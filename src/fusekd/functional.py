"""Plain-array numeric kernels.

Everything here operates on float64 numpy arrays and is shared by the
autodiff layer, the losses, and the test oracles. All reductions run at
64-bit precision. The public kernels check that their input is finite; the
``*_kernel`` forms skip that scan for a ``Tensor``'s array, which is finite
by construction.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erf

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


def _as_f64(x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise ValueError("non-finite values in input")
    return arr


def softmax(x) -> np.ndarray:
    """Stable softmax along the last axis (max-subtracted)."""
    return softmax_kernel(_as_f64(x))


def softmax_kernel(arr: np.ndarray) -> np.ndarray:
    """``softmax`` of a finite float64 array, without the input scan."""
    if arr.size == 0:
        raise ValueError("softmax of empty axis")
    e = arr - arr.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def log_softmax(x) -> np.ndarray:
    """Stable log-softmax along the last axis."""
    return log_softmax_kernel(_as_f64(x))


def log_softmax_kernel(arr: np.ndarray) -> np.ndarray:
    """``log_softmax`` of a finite float64 array, without the input scan."""
    if arr.size == 0:
        raise ValueError("log_softmax of empty axis")
    shifted = arr - arr.max(axis=-1, keepdims=True)
    shifted -= np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return shifted


def kl_divergence(p, q) -> float:
    """KL(p || q) = sum_j p_j log(p_j / q_j) for 1-D probability vectors.

    Entries of q must be strictly positive; both vectors must sum to 1
    within 1e-6. Entries p_j == 0 contribute zero (0 log 0 limit).
    """
    pa = _as_f64(p)
    qa = _as_f64(q)
    if pa.ndim != 1 or qa.ndim != 1:
        raise ValueError("kl_divergence expects 1-D vectors")
    if pa.shape != qa.shape:
        raise ValueError(f"length mismatch: {pa.shape[0]} vs {qa.shape[0]}")
    if np.any(qa <= 0.0):
        raise ValueError("q has non-positive entries")
    if np.any(pa < 0.0):
        raise ValueError("p has negative entries")
    if abs(pa.sum() - 1.0) > 1e-6 or abs(qa.sum() - 1.0) > 1e-6:
        raise ValueError("inputs are not probability vectors (sum != 1)")
    mask = pa > 0.0
    return float(np.sum(pa[mask] * (np.log(pa[mask]) - np.log(qa[mask]))))


def gelu_one_plus_erf(arr: np.ndarray) -> np.ndarray:
    """1 + erf(x / sqrt(2)), the term shared by GELU and its derivative (one buffer)."""
    e1 = arr * _INV_SQRT2
    erf(e1, out=e1)
    e1 += 1.0
    return e1


def gelu_from_erf(arr: np.ndarray, e1: np.ndarray) -> np.ndarray:
    """GELU given ``e1 = gelu_one_plus_erf(arr)``: 0.5 * x * e1."""
    out = 0.5 * arr
    out *= e1
    return out


def gelu_grad_from_erf(arr: np.ndarray, e1: np.ndarray) -> np.ndarray:
    """d GELU / dx given ``e1 = gelu_one_plus_erf(arr)``: CDF + x * PDF."""
    cdf = 0.5 * e1
    pdf = -0.5 * arr
    pdf *= arr
    np.exp(pdf, out=pdf)
    pdf *= _INV_SQRT2PI
    pdf *= arr
    cdf += pdf
    return cdf


def gelu(x) -> np.ndarray:
    """Exact erf-based GELU: 0.5 * x * (1 + erf(x / sqrt(2)))."""
    arr = _as_f64(x)
    return gelu_from_erf(arr, gelu_one_plus_erf(arr))


def gelu_grad(x) -> np.ndarray:
    """d GELU / dx of a finite input."""
    arr = _as_f64(x)
    return gelu_grad_from_erf(arr, gelu_one_plus_erf(arr))
