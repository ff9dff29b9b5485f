"""Plain pre-norm ViT encoder.

Pipeline: patchify -> linear token embedding + class token + learned
positional embeddings -> L blocks of (x += Attn(LN(x)); x += MLP(LN(x)))
-> final LN over every token. A frozen encoder has no parameters, so its
forward records nothing on a tape, and it rejects parameter updates.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, fields, replace

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
        for f in fields(self):  # first: 32.0 and True pass every comparison below
            value = getattr(self, f.name)
            if type(value) is not int:
                raise ValueError(f"{f.name} must be an integer, got {value!r}")
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
    """(..., 3, S, S) -> (..., N, 3*p*p) with N = (S / p)**2.

    Patches are ordered row-major over the grid; within a patch the layout is
    channel-major, then row-major pixels. Lossless (see ``unpatchify``).
    """
    imgs = np.asarray(images, dtype=np.float64)
    h, s = imgs.shape[-2], imgs.shape[-1]
    p = patch_size
    if h != s or s % p != 0:
        raise ValueError(f"image {h}x{s} is not square or not divisible by patch size {p}")
    g = s // p
    lead = imgs.shape[:-3]
    x = imgs.reshape(lead + (3, g, p, g, p))
    x = np.moveaxis(x, (-4, -2), (-5, -4))  # -> (..., g, g, 3, p, p)
    return np.ascontiguousarray(x.reshape(lead + (g * g, 3 * p * p)))


def unpatchify(patches: np.ndarray, patch_size: int) -> np.ndarray:
    """Inverse of ``patchify``; the grid side is the square root of N."""
    p = patch_size
    g = math.isqrt(patches.shape[-2])
    lead = patches.shape[:-2]
    x = patches.reshape(lead + (g, g, 3, p, p))
    x = np.moveaxis(x, (-5, -4), (-4, -2))  # (..., g, g, 3, p, p) -> (..., 3, g, p, g, p)
    return np.ascontiguousarray(x.reshape(lead + (3, g * p, g * p)))


def param_table(config: ViTConfig) -> Iterator[tuple[str, tuple[int, ...], float | None]]:
    """Every parameter as ``(name, shape, fill)`` in creation order, which is
    checkpoint order; ``fill`` None means drawn N(0, 0.02), else the constant."""
    d = config.embed_dim
    hidden = config.mlp_ratio * d
    block = (
        ("ln1_g", (d,), 1.0), ("ln1_b", (d,), 0.0),
        ("qkv_w", (d, 3 * d), None), ("qkv_b", (3 * d,), 0.0),
        ("proj_w", (d, d), None), ("proj_b", (d,), 0.0),
        ("ln2_g", (d,), 1.0), ("ln2_b", (d,), 0.0),
        ("fc1_w", (d, hidden), None), ("fc1_b", (hidden,), 0.0),
        ("fc2_w", (hidden, d), None), ("fc2_b", (d,), 0.0),
    )
    yield "patch_w", (config.patch_dim, d), None
    yield "patch_b", (d,), 0.0
    yield "cls_token", (d,), 0.0
    yield "pos_embed", (config.num_patches + 1, d), None
    for i in range(config.depth):
        yield from ((f"b{i}.{key}", shape, fill) for key, shape, fill in block)
    yield "ln_f_g", (d,), 1.0
    yield "ln_f_b", (d,), 0.0


def param_count(config: ViTConfig) -> int:
    """Exact scalar-parameter count; one block is summed once, so any depth is cheap."""
    stem, with_block = (
        sum(math.prod(s) for _, s, _ in param_table(replace(config, depth=k))) for k in (0, 1)
    )
    return stem + config.depth * (with_block - stem)


class ViTEncoder:
    """Parameter container plus the differentiable forward pass."""

    def __init__(self, config: ViTConfig, seed: int = 0):
        rng = np.random.default_rng(seed)
        self._bind(config, {
            name: rng.normal(0.0, 0.02, shape) if fill is None else np.full(shape, fill)
            for name, shape, fill in param_table(config)
        })

    @classmethod
    def from_arrays(cls, config: ViTConfig, arrays: dict[str, np.ndarray]) -> ViTEncoder:
        """Copies of ``arrays`` as parameters, no init drawn. Before anything is
        allocated, the first name of ``param_table(config)`` that is missing or
        mis-shaped, then the first name outside it, raises ``ValueError``."""
        known = set()
        for name, shape, _ in param_table(config):
            if name not in arrays:
                raise ValueError(f"missing tensor {name!r}")
            if np.shape(arrays[name]) != shape:
                raise ValueError(f"tensor {name!r} has shape {np.shape(arrays[name])}, not {shape}")
            known.add(name)
        extra = [name for name in arrays if name not in known]
        if extra:
            raise ValueError(f"unexpected tensor {extra[0]!r}")
        enc = cls.__new__(cls)
        enc._bind(config, arrays)
        return enc

    def _bind(self, config: ViTConfig, arrays: dict[str, np.ndarray]) -> None:
        """Wrap ``arrays`` as parameters in table order, which is checkpoint order."""
        self.config, self.frozen = config, False
        self._tensors = [Tensor(arrays[n], parameter=True, name=n) for n, _, _ in param_table(config)]
        self.blocks: list[dict[str, Tensor]] = [{} for _ in range(config.depth)]
        for t in self._tensors:  # "b{i}.{key}" joins block i; the rest become attributes
            block, _, key = t.name.partition(".")
            if key:
                self.blocks[int(block[1:])][key] = t
            else:
                setattr(self, t.name, t)

    def named_tensors(self) -> list[tuple[str, Tensor]]:
        return [(t.name, t) for t in self._tensors]

    def parameters(self) -> list[Tensor]:
        return [] if self.frozen else list(self._tensors)

    def freeze(self) -> ViTEncoder:
        """Make this encoder a fixed teacher: no parameters, so no tape records and no assigns."""
        self.frozen = True
        for t in self._tensors:
            object.__setattr__(t, "parameter", False)
        return self

    def embed(self, images: np.ndarray) -> Tensor:
        """(B, 3, S, S) -> token matrix (B, N+1, D); row 0 is cls + pos0."""
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

    def _check_images(self, images: np.ndarray) -> np.ndarray:
        imgs = np.asarray(images, dtype=np.float64)
        s = self.config.image_size
        if imgs.ndim != 4 or imgs.shape[1:] != (3, s, s):
            raise ValueError(f"expected (B, 3, {s}, {s}) images, got {imgs.shape}")
        return imgs

    def encode_batch(self, images: np.ndarray) -> Tensor:
        """(B, 3, S, S) -> (B, N+1, D), final LN applied to every token."""
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
            qkv = T.transpose(T.reshape(qkv, (b, t_len, 3, heads, dh)), (2, 0, 3, 1, 4))
            q, k, v = (T.slice_axis(qkv, 0, i, i + 1) for i in range(3))  # (1, B, heads, T, dh)
            scores = T.scale(T.matmul(q, T.transpose(k, (0, 1, 2, 4, 3))), 1.0 / np.sqrt(dh))
            attn = T.softmax(scores)  # (1, B, heads, T, T)
            ctx = T.matmul(attn, v)  # (1, B, heads, T, dh)
            ctx = T.reshape(T.transpose(ctx, (0, 1, 3, 2, 4)), (b, t_len, d))
            x = T.add(x, T.linear(ctx, blk["proj_w"], blk["proj_b"]))
            h2 = T.layer_norm(x, blk["ln2_g"], blk["ln2_b"], LN_EPS)
            m = T.gelu(T.linear(h2, blk["fc1_w"], blk["fc1_b"]))
            m = T.linear(m, blk["fc2_w"], blk["fc2_b"])
            x = T.add(x, m)
        return T.layer_norm(x, self.ln_f_g, self.ln_f_b, LN_EPS)
