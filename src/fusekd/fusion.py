"""Teacher fusion, the student adapter, and the distillation losses.

Targets built from frozen teachers travel as plain arrays, which no tape
records; only the student side, computed from parameters, is recorded.
Fusion is an elementwise SUM over teachers (not a mean), so with M teachers
the summed logits act like a 1/M temperature. The summation order is fixed
by array content, which makes fused targets bit-exact invariant to the
ordering of the teacher list.

Loss structure, per sample:
  token loss   = mean over all N+1 tokens (class token included) of
                 KL(softmax(student_token) || softmax(fused_token)),
                 softmax over the D channels;
  spatial loss = mean over D channels (class token excluded) of
                 KL(softmax(student_channel) || softmax(fused_channel)),
                 softmax over the N patch tokens.
Every loss function, ``mode_loss`` included, takes the student's token matrix
(a tape tensor) and the fused token matrix, both (..., N+1, D); none fuses.
The spatial terms read channel rows of the patch tokens themselves, so no
term needs the patch grid. The combined loss is their unweighted sum. The
MSE variant keeps the same averaging denominators but compares raw
embeddings with squared error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor


def fuse_tokens(teacher_tokens: list[np.ndarray]) -> np.ndarray:
    """Sum of M token matrices (..., N+1, D) or feature maps in a content-defined order."""
    if not teacher_tokens:
        raise ValueError("need at least one input to fuse")
    first = np.asarray(teacher_tokens[0], dtype=np.float64)
    arrs = [first]
    for m in teacher_tokens[1:]:
        a = np.asarray(m, dtype=np.float64)
        if a.shape != first.shape:
            raise ValueError(f"shape mismatch in fusion: {a.shape} vs {first.shape}")
        arrs.append(a)
    order = sorted(range(len(arrs)), key=lambda i: arrs[i].tobytes())
    out = arrs[order[0]].copy()
    for i in order[1:]:
        out += arrs[i]
    return out


def tokens_to_feature_map(tokens: np.ndarray) -> np.ndarray:
    """``student_feature_map`` of a plain array; read-only. Never recorded:
    its input is a constant, so no gradient reaches it."""
    return student_feature_map(Tensor(tokens)).array


def student_feature_map(tokens: Tensor) -> Tensor:
    """(..., N+1, D) -> (..., D, N): one row per channel, class token dropped.

    Row c reads channel c of the N patch tokens in their ``patchify`` order.
    """
    if len(tokens.shape) < 2 or tokens.shape[-2] < 2:
        raise ValueError(f"tokens must be (..., N+1, D) with N >= 1, got shape {tokens.shape}")
    k = len(tokens.shape) - 2
    x = T.slice_axis(tokens, k, 1, tokens.shape[-2])
    return T.transpose(x, (*range(k), k + 1, k))


@dataclass
class Adapter:
    """Affine map from student width D' to the shared teacher width D."""

    weight: Tensor  # (D', D)
    bias: Tensor  # (D,)

    @classmethod
    def from_arrays(cls, weight: np.ndarray, bias: np.ndarray) -> "Adapter":
        return cls(
            weight=Tensor(weight, parameter=True, name="adapter.weight"),
            bias=Tensor(bias, parameter=True, name="adapter.bias"),
        )

    @classmethod
    def create(cls, in_dim: int, out_dim: int, seed: int | list[int] = 0) -> "Adapter":
        """Weight drawn N(0, 0.02) from ``default_rng(seed)``, bias zero."""
        rng = np.random.default_rng(seed)
        return cls.from_arrays(rng.normal(0.0, 0.02, (in_dim, out_dim)), np.zeros(out_dim))

    def project(self, tokens: Tensor) -> Tensor:
        if tokens.shape[-1] != self.weight.shape[0]:
            raise ValueError(
                f"adapter expects width {self.weight.shape[0]}, got {tokens.shape[-1]}"
            )
        return T.linear(tokens, self.weight, self.bias)

    def parameters(self) -> list[Tensor]:
        return [self.weight, self.bias]


def _mean_row_kl(student: Tensor, target: np.ndarray, rows: int) -> Tensor:
    """Mean over leading rows of KL(softmax(student_row) || softmax(target_row))."""
    return T.scale(T.kl_vs_constant(student, target), 1.0 / rows)


def _mean_row_sq(student: Tensor, target: np.ndarray, rows: int) -> Tensor:
    """Sum of squared differences divided by the number of leading rows."""
    d = T.sub(student, Tensor(target))
    return T.scale(T.sum_all(T.mul(d, d)), 1.0 / rows)


def _rows(reduce, student: Tensor, target) -> Tensor:
    """``reduce`` over every leading row of ``student`` against the same-shaped ``target``."""
    t = np.asarray(target, dtype=np.float64)
    if student.shape != t.shape:
        raise ValueError(f"shape mismatch: {student.shape} vs {t.shape}")
    return reduce(student, t, int(np.prod(t.shape[:-1])))


def token_fusion_loss(student_tokens, fused_tokens) -> Tensor:
    """Per-token channel KL against the fused target; all N+1 tokens included."""
    return _rows(_mean_row_kl, student_tokens, fused_tokens)


def spatial_fusion_loss(student_tokens, fused_tokens) -> Tensor:
    """Per-channel KL over the N patch tokens against the fused target."""
    return _rows(_mean_row_kl, student_feature_map(student_tokens), tokens_to_feature_map(fused_tokens))


def mse_token_term(student_tokens, fused_tokens) -> Tensor:
    return _rows(_mean_row_sq, student_tokens, fused_tokens)


def mse_spatial_term(student_tokens, fused_tokens) -> Tensor:
    return _rows(_mean_row_sq, student_feature_map(student_tokens), tokens_to_feature_map(fused_tokens))


LOSS_MODES = ("tfd", "sfd", "tfd+sfd", "mse")


def mode_loss(
    mode: str, proj: Tensor, fused_tokens: np.ndarray
) -> tuple[Tensor, Tensor | None, Tensor | None]:
    """Training objective for one of ``LOSS_MODES``, from the projected student
    tokens (B, N+1, D) and the fused target of the same shape.

    Returns (loss, token_term, spatial_term); a term the mode leaves out of
    the gradient is None. ``mse`` swaps both KL terms for squared error.
    """
    if mode not in LOSS_MODES:
        raise ValueError(f"loss_mode must be one of {LOSS_MODES}")
    token_term = mse_token_term if mode == "mse" else token_fusion_loss
    spatial_term = mse_spatial_term if mode == "mse" else spatial_fusion_loss
    lt = None if mode == "sfd" else token_term(proj, fused_tokens)
    if mode == "tfd":
        return lt, lt, None
    ls = spatial_term(proj, fused_tokens)
    return (ls, None, ls) if mode == "sfd" else (T.add(lt, ls), lt, ls)


def total_loss(student_tokens, fused_tokens) -> Tensor:
    """Unweighted sum of the token and spatial losses."""
    return mode_loss("tfd+sfd", student_tokens, fused_tokens)[0]


def mse_loss_variant(student_tokens, fused_tokens) -> Tensor:
    """Ablation: same two-term structure on raw embeddings with squared error."""
    return mode_loss("mse", student_tokens, fused_tokens)[0]
