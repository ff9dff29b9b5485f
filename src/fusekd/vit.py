"""Plain pre-norm ViT encoder.

Pipeline: patchify -> linear token embedding + class token + learned
positional embeddings -> L blocks of (x += Attn(LN(x)); x += MLP(LN(x)))
-> final LN over every token. Frozen encoders never record on a tape and
reject parameter updates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor

LN_EPS = 1e-6


@dataclass(frozen=True)
class ViTConfig:
    image_size: int
    patch_size: int
    depth: int
    embed_dim: int
    num_heads: int
    mlp_ratio: int = 4

    def __post_init__(self):
        # depth 0 is a degenerate config kept legal for testing (encode == final LN of embed)
        if self.depth < 0:
            raise ValueError(f"depth must be >= 0, got {self.depth}")
        for name in ("image_size", "patch_size", "embed_dim", "num_heads", "mlp_ratio"):
            if getattr(self, name) < 1:  # before the modulo checks below
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.image_size % self.patch_size != 0:
            raise ValueError("image_size must be divisible by patch_size")
        if self.embed_dim % self.num_heads != 0:
            raise ValueError("embed_dim must be divisible by num_heads")

    @property
    def grid(self) -> int:
        return self.image_size // self.patch_size

    @property
    def num_patches(self) -> int:
        return self.grid * self.grid

    @property
    def patch_dim(self) -> int:
        return 3 * self.patch_size * self.patch_size


def patchify(images: np.ndarray, patch_size: int) -> np.ndarray:
    """(..., 3, H, W) -> (..., N, 3*p*p).

    Patches are ordered row-major over the grid; within a patch the layout is
    channel-major, then row-major pixels. Lossless (see ``unpatchify``).
    """
    imgs = np.asarray(images, dtype=np.float64)
    h, w = imgs.shape[-2], imgs.shape[-1]
    p = patch_size
    if h % p != 0 or w % p != 0:
        raise ValueError(f"image {h}x{w} not divisible by patch size {p}")
    gh, gw = h // p, w // p
    lead = imgs.shape[:-3]
    x = imgs.reshape(lead + (3, gh, p, gw, p))
    x = np.moveaxis(x, (-4, -2), (-5, -4))  # -> (..., gh, gw, 3, p, p)
    return np.ascontiguousarray(x.reshape(lead + (gh * gw, 3 * p * p)))


def unpatchify(patches: np.ndarray, patch_size: int, image_size: int) -> np.ndarray:
    """Inverse of ``patchify`` for square images."""
    p = patch_size
    g = image_size // p
    lead = patches.shape[:-2]
    x = patches.reshape(lead + (g, g, 3, p, p))
    x = np.moveaxis(x, (-5, -4), (-4, -2))  # (..., gh, gw, 3, p, p) -> (..., 3, gh, p, gw, p)
    return np.ascontiguousarray(x.reshape(lead + (3, image_size, image_size)))


def param_count(config: ViTConfig) -> int:
    """Exact scalar-parameter count for a config."""
    d = config.embed_dim
    n = config.num_patches
    pd = config.patch_dim
    hidden = config.mlp_ratio * d
    per_block = (
        2 * d  # pre-attn LN
        + d * 3 * d + 3 * d  # qkv
        + d * d + d  # attn output projection
        + 2 * d  # pre-MLP LN
        + d * hidden + hidden  # fc1
        + hidden * d + d  # fc2
    )
    return (
        pd * d + d  # patch embedding
        + d  # class token
        + (n + 1) * d  # positional embeddings
        + config.depth * per_block
        + 2 * d  # final LN
    )


class ViTEncoder:
    """Parameter container plus the differentiable forward pass."""

    def __init__(self, config: ViTConfig, seed: int = 0):
        self.config = config
        self.frozen = False
        rng = np.random.default_rng(seed)
        d = config.embed_dim

        def normal(shape, name):
            return Tensor(rng.normal(0.0, 0.02, shape), parameter=True, name=name)

        def fill(shape, value, name):
            return Tensor(np.full(shape, value), parameter=True, name=name)

        self.patch_w = normal((config.patch_dim, d), "patch_w")
        self.patch_b = fill((d,), 0.0, "patch_b")
        self.cls_token = fill((d,), 0.0, "cls_token")
        self.pos_embed = normal((config.num_patches + 1, d), "pos_embed")
        self.blocks = []
        hidden = config.mlp_ratio * d
        for i in range(config.depth):
            self.blocks.append(
                {
                    "ln1_g": fill((d,), 1.0, f"b{i}.ln1_g"),
                    "ln1_b": fill((d,), 0.0, f"b{i}.ln1_b"),
                    "qkv_w": normal((d, 3 * d), f"b{i}.qkv_w"),
                    "qkv_b": fill((3 * d,), 0.0, f"b{i}.qkv_b"),
                    "proj_w": normal((d, d), f"b{i}.proj_w"),
                    "proj_b": fill((d,), 0.0, f"b{i}.proj_b"),
                    "ln2_g": fill((d,), 1.0, f"b{i}.ln2_g"),
                    "ln2_b": fill((d,), 0.0, f"b{i}.ln2_b"),
                    "fc1_w": normal((d, hidden), f"b{i}.fc1_w"),
                    "fc1_b": fill((hidden,), 0.0, f"b{i}.fc1_b"),
                    "fc2_w": normal((hidden, d), f"b{i}.fc2_w"),
                    "fc2_b": fill((d,), 0.0, f"b{i}.fc2_b"),
                }
            )
        self.ln_f_g = fill((d,), 1.0, "ln_f_g")
        self.ln_f_b = fill((d,), 0.0, "ln_f_b")

    def named_tensors(self) -> list[tuple[str, Tensor]]:
        out = [
            ("patch_w", self.patch_w),
            ("patch_b", self.patch_b),
            ("cls_token", self.cls_token),
            ("pos_embed", self.pos_embed),
        ]
        for i, blk in enumerate(self.blocks):
            out.extend((f"b{i}.{k}", v) for k, v in blk.items())
        out.extend([("ln_f_g", self.ln_f_g), ("ln_f_b", self.ln_f_b)])
        return out

    def parameters(self) -> list[Tensor]:
        if self.frozen:
            return []
        return [t for _, t in self.named_tensors()]

    def freeze(self) -> ViTEncoder:
        """Make this encoder a fixed teacher: no parameters, no tape, no further assigns."""
        self.frozen = True
        for _, t in self.named_tensors():
            object.__setattr__(t, "parameter", False)
        return self

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Set every weight; a frozen encoder rejects this (load, then ``freeze``)."""
        for name, t in self.named_tensors():
            arr = np.asarray(arrays[name], dtype=np.float64)
            if arr.shape != t.shape:
                raise ValueError(f"tensor {name}: shape {arr.shape} != {t.shape}")
            t.assign(arr)

    def embed(self, images: np.ndarray) -> Tensor:
        """(B, 3, H, W) -> token matrix (B, N+1, D); row 0 is cls + pos0."""
        imgs = self._check_images(images)
        b = imgs.shape[0]
        d = self.config.embed_dim
        patches = Tensor(patchify(imgs, self.config.patch_size))
        x = T.linear(patches, self.patch_w, self.patch_b)  # (B, N, D)
        cls = T.add(
            T.reshape(self.cls_token, (1, 1, d)), Tensor(np.zeros((b, 1, d)))
        )  # broadcast to (B, 1, D)
        x = T.concat(cls, x, axis=1)
        return T.add(x, self.pos_embed)

    def encode_batch(self, images: np.ndarray) -> Tensor:
        """(B, 3, H, W) -> (B, N+1, D), final LN applied to every token."""
        if self.frozen:
            with T.no_tape():
                return self._forward(images)
        return self._forward(images)

    def _check_images(self, images: np.ndarray) -> np.ndarray:
        imgs = np.asarray(images, dtype=np.float64)
        s = self.config.image_size
        if imgs.ndim != 4 or imgs.shape[1:] != (3, s, s):
            raise ValueError(f"expected (B, 3, {s}, {s}) images, got {imgs.shape}")
        return imgs

    def _forward(self, images: np.ndarray) -> Tensor:
        cfg = self.config
        x = self.embed(images)
        b = x.shape[0]
        t_len = cfg.num_patches + 1
        d = cfg.embed_dim
        heads = cfg.num_heads
        dh = d // heads
        for blk in self.blocks:
            h = T.layer_norm(x, blk["ln1_g"], blk["ln1_b"], LN_EPS)
            qkv = T.linear(h, blk["qkv_w"], blk["qkv_b"])  # (B, T, 3D)
            q = self._split_heads(T.slice_axis(qkv, 2, 0, d), b, t_len, heads, dh)
            k = self._split_heads(T.slice_axis(qkv, 2, d, 2 * d), b, t_len, heads, dh)
            v = self._split_heads(T.slice_axis(qkv, 2, 2 * d, 3 * d), b, t_len, heads, dh)
            scores = T.scale(T.matmul(q, T.transpose(k, (0, 1, 3, 2))), 1.0 / np.sqrt(dh))
            attn = T.softmax(scores)  # (B, heads, T, T)
            ctx = T.matmul(attn, v)  # (B, heads, T, dh)
            ctx = T.reshape(T.transpose(ctx, (0, 2, 1, 3)), (b, t_len, d))
            x = T.add(x, T.linear(ctx, blk["proj_w"], blk["proj_b"]))
            h2 = T.layer_norm(x, blk["ln2_g"], blk["ln2_b"], LN_EPS)
            m = T.gelu(T.linear(h2, blk["fc1_w"], blk["fc1_b"]))
            m = T.linear(m, blk["fc2_w"], blk["fc2_b"])
            x = T.add(x, m)
        return T.layer_norm(x, self.ln_f_g, self.ln_f_b, LN_EPS)

    @staticmethod
    def _split_heads(t: Tensor, b: int, t_len: int, heads: int, dh: int) -> Tensor:
        return T.transpose(T.reshape(t, (b, t_len, heads, dh)), (0, 2, 1, 3))
