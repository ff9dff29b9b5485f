"""Teacher fusion, the student adapter, and the distillation losses.

Targets built from frozen teachers travel as plain arrays; the student side
stays on the gradient tape. Fusion is an elementwise SUM over teachers (not
a mean), so with M teachers the summed logits act like a 1/M temperature.
The summation order is fixed by array content, which makes fused targets
bit-exact invariant to the ordering of the teacher list.

Loss structure, per sample:
  token loss   = mean over all N+1 tokens (class token included) of
                 KL(softmax(student_token) || softmax(fused_token)),
                 softmax over the D channels;
  spatial loss = mean over D channels (class token excluded) of
                 KL(softmax(student_channel) || softmax(fused_channel)),
                 softmax over the N grid cells.
The combined loss is their unweighted sum. The MSE variant keeps the same
averaging denominators but compares raw embeddings with squared error.
"""

from __future__ import annotations

import math
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


def tokens_to_feature_map(tokens: np.ndarray, grid_h: int, grid_w: int) -> np.ndarray:
    """(..., N+1, D) -> (..., D, H', W'), class token dropped.

    Cell (c, r, w) of the map reads token 1 + r*W' + w, channel c, matching
    the row-major grid order of ``patchify``.
    """
    arr = np.asarray(tokens, dtype=np.float64)
    n = arr.shape[-2] - 1
    if grid_h * grid_w != n:
        raise ValueError(f"grid {grid_h}x{grid_w} != {n} patch tokens")
    d = arr.shape[-1]
    lead = arr.shape[:-2]
    x = arr[..., 1:, :].reshape(lead + (grid_h, grid_w, d))
    return np.ascontiguousarray(np.moveaxis(x, -1, -3))


def student_feature_map(tokens: Tensor, grid_h: int, grid_w: int) -> Tensor:
    """Tape-aware version of ``tokens_to_feature_map`` for the student."""
    n = tokens.shape[-2] - 1
    if grid_h * grid_w != n:
        raise ValueError(f"grid {grid_h}x{grid_w} != {n} patch tokens")
    lead, d = tokens.shape[:-2], tokens.shape[-1]
    k = len(lead)
    x = T.slice_axis(tokens, k, 1, n + 1)
    x = T.reshape(x, lead + (grid_h, grid_w, d))
    return T.transpose(x, (*range(k), k + 2, k, k + 1))


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


def _target(student: Tensor, target, what: str) -> np.ndarray:
    """``target`` as a float64 array, checked against the student's shape."""
    t = np.asarray(target, dtype=np.float64)
    if student.shape != t.shape:
        raise ValueError(f"{what} shape mismatch: {student.shape} vs {t.shape}")
    return t


def _mean_row_kl(student: Tensor, target: np.ndarray, rows: int) -> Tensor:
    """Mean over leading rows of KL(softmax(student_row) || softmax(target_row))."""
    return T.scale(T.kl_vs_constant(student, target), 1.0 / rows)


def _mean_row_sq(student: Tensor, target: np.ndarray, rows: int) -> Tensor:
    """Sum of squared differences divided by the number of leading rows."""
    d = T.sub(student, Tensor(target))
    return T.scale(T.sum_all(T.mul(d, d)), 1.0 / rows)


def _token_term(reduce, student_tokens: Tensor, fused_tokens) -> Tensor:
    """``reduce`` over every token row: B * (N+1) rows, each over D channels."""
    t = _target(student_tokens, fused_tokens, "token")
    return reduce(student_tokens, t, int(np.prod(t.shape[:-1])))


def _spatial_term(reduce, student_map: Tensor, fused_map) -> Tensor:
    """``reduce`` over every channel row: B * D rows, each over N grid cells."""
    t = _target(student_map, fused_map, "feature map")
    if t.ndim < 3:
        raise ValueError("feature maps must be (..., D, H', W')")
    lead = t.shape[:-2]
    n = t.shape[-2] * t.shape[-1]
    return reduce(T.reshape(student_map, lead + (n,)), t.reshape(lead + (n,)), int(np.prod(lead)))


def token_fusion_loss(student_tokens, fused_tokens) -> Tensor:
    """Per-token channel KL against the fused target; all N+1 tokens included."""
    return _token_term(_mean_row_kl, student_tokens, fused_tokens)


def spatial_fusion_loss(student_map, fused_map) -> Tensor:
    """Per-channel spatial KL; each channel flattened to its N grid cells."""
    return _spatial_term(_mean_row_kl, student_map, fused_map)


def total_loss(student_tokens, fused_tokens, student_map, fused_map) -> Tensor:
    """Unweighted sum of the token and spatial losses."""
    return T.add(
        token_fusion_loss(student_tokens, fused_tokens),
        spatial_fusion_loss(student_map, fused_map),
    )


def mse_token_term(student_tokens, fused_tokens) -> Tensor:
    return _token_term(_mean_row_sq, student_tokens, fused_tokens)


def mse_spatial_term(student_map, fused_map) -> Tensor:
    return _spatial_term(_mean_row_sq, student_map, fused_map)


def mse_loss_variant(student_tokens, fused_tokens, student_map, fused_map) -> Tensor:
    """Ablation: same two-term structure on raw embeddings with squared error."""
    return T.add(
        mse_token_term(student_tokens, fused_tokens),
        mse_spatial_term(student_map, fused_map),
    )


LOSS_MODES = ("tfd", "sfd", "tfd+sfd", "mse")


def mode_loss(
    mode: str, proj: Tensor, teacher_tokens: list[np.ndarray]
) -> tuple[Tensor, Tensor | None, Tensor | None]:
    """Training objective for one of ``LOSS_MODES``, from the projected student
    tokens (B, N+1, D) and each teacher's tokens of the same shape.

    The target is ``fuse_tokens(teacher_tokens)``, on a square grid of
    ``isqrt(N)``; only modes with a spatial term build its feature map.
    Returns (loss, token_term, spatial_term); a term the mode leaves out of
    the gradient is None. ``mse`` swaps both KL terms for squared error.
    """
    if mode not in LOSS_MODES:
        raise ValueError(f"loss_mode must be one of {LOSS_MODES}")
    token_term = mse_token_term if mode == "mse" else token_fusion_loss
    spatial_term = mse_spatial_term if mode == "mse" else spatial_fusion_loss
    fused_tokens = fuse_tokens(teacher_tokens)
    lt = None if mode == "sfd" else token_term(proj, fused_tokens)
    if mode == "tfd":
        return lt, lt, None
    grid = math.isqrt(fused_tokens.shape[-2] - 1)
    fused_map = tokens_to_feature_map(fused_tokens, grid, grid)
    ls = spatial_term(student_feature_map(proj, grid, grid), fused_map)
    return (ls, None, ls) if mode == "sfd" else (T.add(lt, ls), lt, ls)
