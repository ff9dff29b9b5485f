"""AdamW with decoupled weight decay, plus the warmup/cosine schedule."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .tensor import Tensor


BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamWState:
    """Per-parameter moments plus the shared step counter.

    ``decay`` marks which parameters receive weight decay; LN gains/biases,
    biases, class tokens and positional embeddings are exempt by name
    (``decay_flag``).
    """

    m: list[np.ndarray]
    v: list[np.ndarray]
    decay: list[bool]
    weight_decay: float
    t: int = 0


_NO_DECAY_SUFFIXES = ("_b", "_g", "bias", "cls_token", "pos_embed")


def decay_flag(name: str) -> bool:
    return not name.endswith(_NO_DECAY_SUFFIXES)


def init_adamw(params: list[Tensor], weight_decay: float = 0.05) -> AdamWState:
    return AdamWState(
        m=[np.zeros(p.shape) for p in params],
        v=[np.zeros(p.shape) for p in params],
        decay=[decay_flag(p.name or "") for p in params],
        weight_decay=weight_decay,
    )


def adam_moments(m: np.ndarray, v: np.ndarray, g: np.ndarray, t: int):
    """Adam's step-``t`` moments: ``(m, v, m_hat, denom)``, ``denom = sqrt(v_hat) + eps``."""
    m = BETA1 * m + (1.0 - BETA1) * g
    v = BETA2 * v + (1.0 - BETA2) * g * g
    return m, v, m / (1.0 - BETA1**t), np.sqrt(v / (1.0 - BETA2**t)) + EPS


def adamw_step(
    params: list[Tensor],
    grads: list[np.ndarray],
    state: AdamWState,
    lr: float,
) -> AdamWState:
    """One decoupled-decay update: theta -= lr * (mhat/(sqrt(vhat)+eps) + wd*theta)."""
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ValueError("params/grads/state length mismatch")
    if lr < 0:
        raise ValueError("lr must be >= 0")
    grads = [np.asarray(g, dtype=np.float64) for g in grads]
    # validate everything first: a bad grad must not leave a half-applied update
    for p, g in zip(params, grads):
        if g.shape != p.shape:
            raise ValueError(f"grad shape {g.shape} != param shape {p.shape}")
        if not np.all(np.isfinite(g)):
            raise ValueError(f"non-finite gradient for {p.name!r}")
    t = state.t + 1
    updates = []
    for i, (p, g) in enumerate(zip(params, grads)):
        m, v, m_hat, denom = adam_moments(state.m[i], state.v[i], g, t)
        wd = state.weight_decay if state.decay[i] else 0.0
        new = p.array - lr * (m_hat / denom + wd * p.array)
        # an overflowing update must not be half applied: check all, then commit
        if not (np.all(np.isfinite(m)) and np.all(np.isfinite(v)) and np.all(np.isfinite(new))):
            raise ValueError(f"non-finite update for {p.name!r}")
        updates.append((m, v, new))
    for i, (p, (m, v, new)) in enumerate(zip(params, updates)):
        state.m[i] = m
        state.v[i] = v
        p.assign(new)
    state.t = t
    return state


@dataclass(frozen=True)
class ScheduleSettings:
    """Warmup/cosine knobs of a run; its total epochs and steps per epoch come from the run."""

    base_lr: float = 1.5e-4
    warmup_epochs: int = 15
    floor_lr: float = 0.0

    def __post_init__(self):
        for f in fields(self):  # first: NaN slips through every comparison below
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"schedule.{f.name} must be finite, got {value}")
        if self.base_lr < 0 or self.floor_lr < 0:
            raise ValueError("schedule.base_lr and schedule.floor_lr must be >= 0")


def lr_at(
    global_step: int, schedule: ScheduleSettings, total_epochs: int, steps_per_epoch: int
) -> float:
    """Linear warmup from 0 to base_lr, then cosine decay to floor_lr.

    Needs ``0 <= warmup_epochs < total_epochs`` (``TrainConfig`` checks it).
    """
    warmup_steps = schedule.warmup_epochs * steps_per_epoch
    total_steps = total_epochs * steps_per_epoch
    if not (0 <= global_step <= total_steps):
        raise ValueError(f"step {global_step} outside [0, {total_steps}]")
    if global_step < warmup_steps:
        return schedule.base_lr * global_step / warmup_steps
    progress = (global_step - warmup_steps) / (total_steps - warmup_steps)
    return schedule.floor_lr + 0.5 * (schedule.base_lr - schedule.floor_lr) * (
        1.0 + np.cos(np.pi * progress)
    )
