"""Paired view generation.

One geometric transform (crop box + flip flag) is sampled per image and
applied to BOTH views so that token n looks at the same region in the
teacher and student networks; photometric jitter is applied to the student
view only. Images are square, (3, S, S) float64 in [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class AugmentConfig:
    scale_min: float = 0.2
    scale_max: float = 1.0
    flip_prob: float = 0.5
    brightness: float = 0.4
    contrast: float = 0.4
    saturation: float = 0.4

    def __post_init__(self):
        for f in fields(self):  # first: NaN slips through every comparison below
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"augment.{f.name} must be finite, got {value}")
        if not (0.0 < self.scale_min <= self.scale_max <= 1.0):
            raise ValueError("need 0 < scale_min <= scale_max <= 1")
        if not (0.0 <= self.flip_prob <= 1.0):
            raise ValueError("flip_prob must be in [0, 1]")
        if min(self.brightness, self.contrast, self.saturation) < 0:
            raise ValueError("jitter strengths must be >= 0")


@dataclass(frozen=True)
class ViewPair:
    teacher_view: np.ndarray
    student_view: np.ndarray


def _check_image(image: np.ndarray) -> np.ndarray:
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 3 or img.shape[0] != 3 or img.shape[1] != img.shape[2]:
        raise ValueError(f"expected a square (3, S, S) image, got {img.shape}")
    if img.shape[1] < 2:
        raise ValueError("degenerate source image (smaller than 2x2)")
    return img


RATIO_RANGE = (3.0 / 4.0, 4.0 / 3.0)  # crop aspect (w / h) bounds


def sample_crop_box(
    size: int, rng: np.random.Generator, scale_range: tuple[float, float]
) -> tuple[int, int, int, int]:
    """Sample (top, left, h, w) in a size x size image: area fraction from
    scale_range, aspect log-uniform from RATIO_RANGE, 10 attempts, then the
    whole image (whose aspect 1 lies in RATIO_RANGE)."""
    log_lo, log_hi = (math.log(r) for r in RATIO_RANGE)
    for _ in range(10):
        target_area = size * size * rng.uniform(scale_range[0], scale_range[1])
        aspect = math.exp(rng.uniform(log_lo, log_hi))
        w = int(round(math.sqrt(target_area * aspect)))
        h = int(round(math.sqrt(target_area / aspect)))
        if 0 < w <= size and 0 < h <= size:
            top = int(rng.integers(0, size - h + 1))
            left = int(rng.integers(0, size - w + 1))
            return (top, left, h, w)
    return (0, 0, size, size)


@lru_cache(maxsize=1024)
def _axis_weights(n_src: int, n_dst: int) -> tuple[np.ndarray, np.ndarray]:
    """Source indices [lo, hi] and their weights [1 - frac, frac] of one axis, each (2, n_dst).

    Read-only: the arrays are shared by every caller with the same sizes.
    """
    src = (np.arange(n_dst) + 0.5) * (n_src / n_dst) - 0.5
    src = np.clip(src, 0.0, n_src - 1.0)
    lo = np.floor(src).astype(np.int64)
    hi = np.minimum(lo + 1, n_src - 1)
    frac = src - lo
    out = (np.stack([lo, hi]), np.stack([1 - frac, frac]))
    for a in out:
        a.setflags(write=False)
    return out


def _crop_resize(
    img: np.ndarray, box: tuple[int, int, int, int], out_h: int, out_w: int, flip: bool = False
) -> np.ndarray:
    """Bilinear resize of the crop ``box`` of ``img``, columns reversed when ``flip``.

    No corner alignment: the source coordinate of output index i is
    (i + 0.5) * (src / dst) - 0.5, clamped to the valid range, and each
    output is the area-weighted blend of the four neighbouring pixels. The
    box must lie inside the image.

    The four neighbours of every output pixel come from one gather on flat
    indices, and the flip is folded into the column order. Each pixel is
    blended as ((a*(1-fx) + b*fx) * (1-fy)) + ((c*(1-fx) + d*fx) * fy), the
    same float operations in the same order as resizing a copy of the crop
    and then flipping it.
    """
    top, left, h, w = box
    ys, wy = _axis_weights(h, out_h)
    xs, wx = _axis_weights(w, out_w)
    if flip:
        xs, wx = xs[:, ::-1], wx[:, ::-1]
    rows = (top + ys) * img.shape[-1]
    flat = (left + xs)[:, None, None, :] + rows[None, :, :, None]  # (x end, y end, out_h, out_w)
    lead = img.shape[:-2]
    g = np.take(img.reshape(lead + (-1,)), flat, axis=-1)
    blend = g[..., 0, :, :, :] * wx[0]  # lead + (y end, out_h, out_w)
    blend += g[..., 1, :, :, :] * wx[1]
    blend *= wy[:, :, None]
    return blend[..., 0, :, :] + blend[..., 1, :, :]


_LUMA = np.array([0.299, 0.587, 0.114])
_LUMA_ROW = _LUMA.reshape(1, 3)


def apply_jitter(image: np.ndarray, order: tuple[str, ...], factors: tuple[float, ...]) -> np.ndarray:
    """Apply named jitter operations in order, clamping to [0, 1] after each."""
    img = np.array(image, dtype=np.float64, order="C")
    for op, f in zip(order, factors):
        if f == 1.0:  # exact no-op keeps strengths-0 views bit-identical
            continue
        if op == "brightness":
            img *= f
        elif op == "contrast":
            luma = _LUMA @ img.reshape(3, -1)
            mean = float(luma.sum() / luma.size)  # what np.mean computes
            img -= mean
            img *= f
            img += mean
        elif op == "saturation":
            # the (1, 3) @ (3, H*W) product np.tensordot(_LUMA, img, axes=(0, 0)) makes
            luma = np.dot(_LUMA_ROW, img.reshape(3, -1)).reshape((1,) + img.shape[1:])
            img -= luma
            img *= f
            img += luma
        else:
            raise ValueError(f"unknown jitter op {op!r}")
        np.maximum(img, 0.0, out=img)
        np.minimum(img, 1.0, out=img)
    return img


_JITTER_OPS = ("brightness", "contrast", "saturation")


def sample_jitter(
    rng: np.random.Generator, strengths: tuple[float, float, float]
) -> tuple[tuple[str, ...], tuple[float, ...]]:
    order_idx = rng.permutation(3)
    by_op = {op: rng.uniform(1.0 - s, 1.0 + s) for op, s in zip(_JITTER_OPS, strengths)}
    order = tuple(_JITTER_OPS[i] for i in order_idx)
    return order, tuple(float(by_op[op]) for op in order)


def make_views(image: np.ndarray, rng: np.random.Generator, config: AugmentConfig) -> ViewPair:
    """Shared crop + flip for both views; jitter on the student view only."""
    img = _check_image(image)
    size = img.shape[1]
    box = sample_crop_box(size, rng, (config.scale_min, config.scale_max))
    flip = bool(rng.random() < config.flip_prob)
    order, factors = sample_jitter(
        rng, (config.brightness, config.contrast, config.saturation)
    )
    shared = _crop_resize(img, box, size, size, flip)
    return ViewPair(teacher_view=shared, student_view=apply_jitter(shared, order, factors))
