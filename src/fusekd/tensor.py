"""Dense float64 tensors and tape-based reverse-mode differentiation.

The primitive set is closed: matmul, linear (matmul plus bias), add/sub/mul,
scalar scale, GELU, softmax, log-softmax, KL against a constant target
(``kl_vs_constant``), layer-norm, full-sum, reshape, transpose, axis slice
and concat. Each primitive carries a hand-derived adjoint. An op records onto
the innermost open ``GradTape``, in execution order, only when a gradient can
reach it: some input is a parameter or an output that tape recorded. So work
on constants and on frozen weights is never recorded. ``GradTape.gradients``
replays the records in reverse.

Finiteness is checked where arithmetic can break it: arithmetic primitives
scan their output, layout primitives (reshape, transpose, slice, concat) only
move values of finite tensors and skip the scan, and kernels called on a
``Tensor``'s array trust it to be finite.

Tensors are immutable once constructed (arrays are flagged read-only);
parameters are updated only through ``Tensor.assign``, or the trusted commit
of ``optim.adamw_step``, which rebind the backing array rather than writing
through views. So an output may be a view sharing its input's read-only
memory, and ``Tensor._wrap``, the one place a forward value is copied for
layout, makes every array C-contiguous.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import functional as F

_TAPE_STACK: list["GradTape"] = []


class Tensor:
    """Row-major float64 array. NaN/Inf anywhere is rejected at construction."""

    __slots__ = ("array", "parameter", "name")

    def __init__(self, data, parameter: bool = False, name: str | None = None):
        arr = np.array(data, dtype=np.float64, order="C")
        if not np.isfinite(arr).all():
            raise ValueError(f"non-finite values in tensor {name or ''!r}")
        arr.setflags(write=False)
        object.__setattr__(self, "array", arr)
        object.__setattr__(self, "parameter", bool(parameter))
        object.__setattr__(self, "name", name)

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Tensor":
        # Internal fast path: a finite f64 array, or a view of a read-only one,
        # copied only if it is not C-contiguous.
        self = object.__new__(cls)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "array", arr)
        object.__setattr__(self, "parameter", False)
        object.__setattr__(self, "name", None)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("tensors are immutable; parameters change via assign()")

    def assign(self, data) -> None:
        """Replace the backing array (parameter updates only; single writer)."""
        if not self.parameter:
            raise ValueError("assign is only valid on parameters")
        arr = np.array(data, dtype=np.float64, order="C")
        if arr.shape != self.array.shape:
            raise ValueError(f"tensor {self.name!r}: shape {arr.shape} != {self.array.shape}")
        if not np.isfinite(arr).all():
            raise ValueError(f"non-finite values assigned to {self.name!r}")
        self._commit(arr)

    def _commit(self, arr: np.ndarray) -> None:
        # Trusted update path: the caller has checked that ``arr`` is a finite,
        # C-contiguous f64 array of this shape that nothing else writes to, so
        # it is frozen in place, neither copied nor scanned again.
        arr.setflags(write=False)
        object.__setattr__(self, "array", arr)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.array.shape

    @property
    def size(self) -> int:
        return self.array.size

    def item(self) -> float:
        if self.array.size != 1:
            raise ValueError("item() requires a single-element tensor")
        return float(self.array.reshape(()))

    def __repr__(self) -> str:
        kind = "param" if self.parameter else "tensor"
        return f"<{kind} {self.name or ''} shape={self.shape}>"


class GradTape:
    """Records primitive applications in execution order.

    Use as a context manager around the forward computation, then call
    ``gradients(loss, params)``. Accumulation order is fixed by the record
    order, so single-threaded replays are bit-reproducible.
    """

    def __init__(self):
        self._records: list[tuple[Tensor, tuple[Tensor, ...], Callable]] = []
        # ids of recorded outputs; the records keep those tensors, so their ids stay unique
        self._recorded: set[int] = set()

    def __enter__(self) -> "GradTape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _TAPE_STACK.pop()
        assert popped is self

    def record(self, out: Tensor, inputs: tuple[Tensor, ...], backward: Callable) -> None:
        self._records.append((out, inputs, backward))
        self._recorded.add(id(out))

    def __len__(self) -> int:
        return len(self._records)

    def gradients(self, loss: Tensor, params: Sequence[Tensor]) -> list[np.ndarray]:
        """d loss / d params, aligned with ``params``; unused entries are zero.
        Only parameters are traced, so any other entry raises ``ValueError``."""
        if loss.size != 1:
            raise ValueError("gradients requires a scalar loss")
        for p in params:
            if not p.parameter:
                raise ValueError(f"gradients with respect to {p!r}, which is not a parameter")
        grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.array)}
        for out, inputs, backward in reversed(self._records):
            g = grads.pop(id(out), None)
            if g is None:
                continue
            for t, gi in zip(inputs, backward(g)):
                if gi is None:
                    continue
                acc = grads.get(id(t))
                grads[id(t)] = gi if acc is None else acc + gi
        return [
            grads.get(id(p), np.zeros_like(p.array)).reshape(p.shape) for p in params
        ]


def _emit(
    out_arr: np.ndarray, inputs: tuple[Tensor, ...], backward: Callable, scan: bool = True
) -> Tensor:
    # scan=False only for layout primitives, whose outputs are values of finite inputs
    if scan and not np.isfinite(out_arr).all():
        # each adjoint is a closure of its primitive: "scale.<locals>.backward"
        op = backward.__qualname__.split(".")[0]
        raise ValueError(f"non-finite output of {op}")
    out = Tensor._wrap(out_arr)
    if _TAPE_STACK:
        tape = _TAPE_STACK[-1]
        if any(t.parameter or id(t) in tape._recorded for t in inputs):
            tape.record(out, inputs, backward)
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `g` down to `shape` (inverse of numpy broadcasting)."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _swap_last(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a, -1, -2)


# ---------------------------------------------------------------- primitives


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.array.ndim < 2 or b.array.ndim < 2:
        raise ValueError("matmul requires >=2-D operands")
    out = a.array @ b.array

    def backward(g):
        return (
            _unbroadcast(g @ _swap_last(b.array), a.shape),
            _unbroadcast(_swap_last(a.array) @ g, b.shape),
        )

    return _emit(out, (a, b), backward)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` as one record; same bits as ``add(matmul(x, w), b)``."""
    if x.array.ndim < 2 or w.array.ndim < 2:
        raise ValueError("linear requires >=2-D operands")
    out = x.array @ w.array
    out += b.array

    def backward(g):
        return (
            _unbroadcast(g @ _swap_last(w.array), x.shape),
            _unbroadcast(_swap_last(x.array) @ g, w.shape),
            _unbroadcast(g, b.shape),
        )

    return _emit(out, (x, w, b), backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    def backward(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _emit(a.array + b.array, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    def backward(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _emit(a.array - b.array, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    def backward(g):
        return (
            _unbroadcast(g * b.array, a.shape),
            _unbroadcast(g * a.array, b.shape),
        )

    return _emit(a.array * b.array, (a, b), backward)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def backward(g):
        return (g * c,)

    return _emit(a.array * c, (a,), backward)


def gelu(a: Tensor) -> Tensor:
    # erf is most of GELU's cost; the adjoint reuses the forward's
    e1 = F.gelu_one_plus_erf(a.array)

    def backward(g):
        d = F.gelu_grad_from_erf(a.array, e1)
        d *= g
        return (d,)

    return _emit(F.gelu_from_erf(a.array, e1), (a,), backward)


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis."""
    y = F.softmax_kernel(a.array)

    def backward(g):
        d = g * y  # y * (g - rowsum(g * y)), built in the product's buffer
        np.subtract(g, d.sum(axis=-1, keepdims=True), out=d)
        d *= y
        return (d,)

    return _emit(y, (a,), backward)


def log_softmax(a: Tensor) -> Tensor:
    y = F.log_softmax_kernel(a.array)
    p = np.exp(y)

    def backward(g):
        d = p * g.sum(axis=-1, keepdims=True)
        np.subtract(g, d, out=d)
        return (d,)

    return _emit(y, (a,), backward)


def kl_vs_constant(a: Tensor, target_logits: np.ndarray) -> Tensor:
    """Sum over rows of KL(softmax(a_row) || softmax(target_row)), target fixed.

    The adjoint uses the simplified softmax-Jacobian form
    p * (diff - rowsum(p * diff)) with diff = log_softmax(a) - log_softmax(t),
    which is exactly zero when the rows match bitwise. The composed
    softmax/log-softmax route leaves ~1e-16 gradient noise there, which the
    optimizer's eps-normalization would amplify into real parameter drift.
    """
    lp = F.log_softmax_kernel(a.array)
    lq = F.log_softmax(target_logits)  # only the plain-array target is scanned
    if lp.shape != lq.shape:
        raise ValueError(f"shape mismatch: {lp.shape} vs {lq.shape}")
    p = np.exp(lp)
    weighted = lp  # lp is not kept: lp - lq, then p * (lp - lq), in its buffer
    weighted -= lq
    weighted *= p
    out = np.array(weighted.sum()).reshape(())

    def backward(g):
        d = p * weighted.sum(axis=-1, keepdims=True)
        np.subtract(weighted, d, out=d)
        d *= g.reshape(())
        return (d,)

    return _emit(out, (a,), backward)


def layer_norm(a: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-6) -> Tensor:
    """Last-axis layer norm (biased variance), y = gamma * xn + beta."""
    x = a.array
    d = x.shape[-1]
    if d < 2:
        raise ValueError("layer_norm needs at least 2 features")
    # ufunc reductions divided by d: the bits of ndarray.mean, without its Python wrapper
    mu = np.add.reduce(x, axis=-1, keepdims=True)
    mu /= d
    xc = x - mu
    out = xc**2
    var = np.add.reduce(out, axis=-1, keepdims=True)
    var /= d
    var += eps
    inv = np.divide(1.0, np.sqrt(var, out=var), out=var)
    xn = xc  # the adjoint keeps xn, not xc; the squares' buffer takes the output
    xn *= inv
    np.multiply(gamma.array, xn, out=out)
    out += beta.array

    def backward(g):
        lead = tuple(range(g.ndim - 1))
        dgamma = (g * xn).sum(axis=lead) if lead else g * xn
        dbeta = g.sum(axis=lead) if lead else g.copy()
        # dx = inv * (gh - mean(gh) - xn * mean(gh * xn)), built in gh's buffer
        gh = g * gamma.array
        t = gh * xn
        np.multiply(xn, t.mean(axis=-1, keepdims=True), out=t)
        gh -= gh.mean(axis=-1, keepdims=True)
        gh -= t
        gh *= inv
        return gh, dgamma.reshape(gamma.shape), dbeta.reshape(beta.shape)

    return _emit(out, (a, gamma, beta), backward)


def sum_all(a: Tensor) -> Tensor:
    def backward(g):
        return (np.broadcast_to(g.reshape(()), a.shape).copy(),)

    return _emit(np.array(a.array.sum()).reshape(()), (a,), backward)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    def backward(g):
        return (g.reshape(a.shape),)

    return _emit(a.array.reshape(shape), (a,), backward, scan=False)


def transpose(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    def backward(g):
        return (np.ascontiguousarray(g.transpose(np.argsort(axes))),)

    return _emit(a.array.transpose(axes), (a,), backward, scan=False)


def slice_axis(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    idx = [slice(None)] * a.array.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)

    def backward(g):
        full = np.zeros(a.shape)
        full[idx] = g
        return (full,)

    return _emit(a.array[idx], (a,), backward, scan=False)


def concat(a: Tensor, b: Tensor, axis: int) -> Tensor:
    split = a.shape[axis]

    def backward(g):
        ga, gb = np.split(g, [split], axis=axis)
        return np.ascontiguousarray(ga), np.ascontiguousarray(gb)

    return _emit(np.concatenate([a.array, b.array], axis=axis), (a, b), backward, scan=False)


# ------------------------------------------------------------ gradient check


@dataclass
class GradCheckEntry:
    name: str
    max_rel_error: float


@dataclass
class GradCheckReport:
    tol: float
    max_rel_error: float = 0.0
    entries: list[GradCheckEntry] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tol

    def summary(self) -> str:
        lines = [
            f"  {e.name:<24s} max_rel_err={e.max_rel_error:.3e}" for e in self.entries
        ]
        status = "PASS" if self.passed else "FAIL"
        lines.append(f"  => {status} (max {self.max_rel_error:.3e}, tol {self.tol:.1e})")
        return "\n".join(lines)


GRAD_CHECK_FLOOR = 1e-4
GRAD_CHECK_STEP = 1e-5


def run_grad_check(
    computation: Callable[[], Tensor],
    params: Sequence[Tensor],
    tol: float = 1e-4,
) -> GradCheckReport:
    """Compare tape gradients of a scalar computation to central differences
    with step ``GRAD_CHECK_STEP``.

    ``computation`` must close over ``params`` and be deterministic; it is run
    twice up front and any bitwise difference is an error. Relative error per
    entry is |a - n| / max(|a|, |n|, GRAD_CHECK_FLOOR), so entries where
    both gradients are below ``GRAD_CHECK_FLOOR`` are effectively compared
    on an absolute scale.
    """
    v1 = computation()
    v2 = computation()
    if v1.size != 1:
        raise ValueError("computation must return a scalar")
    if not np.array_equal(v1.array, v2.array):
        raise ValueError("computation is not deterministic across forward passes")

    with GradTape() as tape:
        loss = computation()
    analytic = tape.gradients(loss, params)

    report = GradCheckReport(tol=tol)
    for p, a_grad in zip(params, analytic):
        base = p.array.copy()
        worst = 0.0
        try:
            for i in range(base.size):
                bumped = base.copy()
                bumped.flat[i] = base.flat[i] + GRAD_CHECK_STEP
                p.assign(bumped)
                f_plus = computation().item()
                bumped.flat[i] = base.flat[i] - GRAD_CHECK_STEP
                p.assign(bumped)
                f_minus = computation().item()
                numeric = (f_plus - f_minus) / (2.0 * GRAD_CHECK_STEP)
                a = float(a_grad.flat[i])
                rel = abs(a - numeric) / max(abs(a), abs(numeric), GRAD_CHECK_FLOOR)
                worst = max(worst, rel)
        finally:  # a failing computation must not leave p perturbed
            p.assign(base)
        report.entries.append(GradCheckEntry(p.name or "param", worst))
        report.max_rel_error = max(report.max_rel_error, worst)
    return report
