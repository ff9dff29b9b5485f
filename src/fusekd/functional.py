"""Plain-array numeric kernels.

Everything here operates on float64 numpy arrays and is shared by the
autodiff layer, the losses, and the test oracles. All reductions run at
64-bit precision.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erf

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


def _as_f64(x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("non-finite values in input")
    return arr


def softmax(x) -> np.ndarray:
    """Stable softmax along the last axis (max-subtracted)."""
    arr = _as_f64(x)
    if arr.size == 0:
        raise ValueError("softmax of empty axis")
    shifted = arr - arr.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(x) -> np.ndarray:
    """Stable log-softmax along the last axis."""
    arr = _as_f64(x)
    if arr.size == 0:
        raise ValueError("log_softmax of empty axis")
    shifted = arr - arr.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


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


def gelu_erf(arr: np.ndarray) -> np.ndarray:
    """erf(x / sqrt(2)), the one transcendental shared by GELU and its derivative."""
    return erf(arr * _INV_SQRT2)


def gelu_from_erf(arr: np.ndarray, e: np.ndarray) -> np.ndarray:
    """GELU given ``e = gelu_erf(arr)``."""
    return 0.5 * arr * (1.0 + e)


def gelu_grad_from_erf(arr: np.ndarray, e: np.ndarray) -> np.ndarray:
    """d GELU / dx given ``e = gelu_erf(arr)``: CDF + x * PDF."""
    cdf = 0.5 * (1.0 + e)
    pdf = _INV_SQRT2PI * np.exp(-0.5 * arr * arr)
    return cdf + arr * pdf


def gelu(x) -> np.ndarray:
    """Exact erf-based GELU: 0.5 * x * (1 + erf(x / sqrt(2)))."""
    arr = _as_f64(x)
    return gelu_from_erf(arr, gelu_erf(arr))


def gelu_grad(x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    return gelu_grad_from_erf(arr, gelu_erf(arr))
