"""Run configuration and the flat key=value config text format.

The dataclasses are the schema: every field is a key, a nested dataclass
becomes a dotted section (``schedule.base_lr=1.5e-4``), ``tuple[str, ...]``
is comma-joined, and a key is required exactly when its field has no
default. Lines starting with '#' and blank lines are ignored. A serialized
config re-parses to an equal dataclass, and the same text is echoed into
checkpoint metadata.
"""

from __future__ import annotations

import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from functools import cache
from pathlib import Path

from .augment import AugmentConfig
from .fusion import LOSS_MODES
from .optim import ScheduleSettings
from .vit import ViTConfig

_STRINGS = tuple[str, ...]


@dataclass(frozen=True)
class TrainConfig:
    student: ViTConfig
    teacher_paths: tuple[str, ...]
    dataset: str
    out_dir: str
    epochs: int = 50
    batch_size: int = 64
    schedule: ScheduleSettings = field(default_factory=ScheduleSettings)
    augment: AugmentConfig = field(default_factory=AugmentConfig)
    loss_mode: str = "tfd+sfd"
    seed: int = 0
    save_interval: int = 10

    def __post_init__(self):
        if not self.teacher_paths:
            raise ValueError("teacher_paths must name at least one teacher")
        # each text value must come back unchanged from its one key=value line
        for p in self.teacher_paths:
            if not p or "," in p:
                raise ValueError(f"teacher_paths: {p!r} is empty or contains a comma")
        for key, value in [("dataset", self.dataset), ("out_dir", self.out_dir)] + [
            ("teacher_paths", p) for p in self.teacher_paths
        ]:
            if value != value.strip() or len(value.splitlines()) > 1:
                raise ValueError(f"{key}: {value!r} has a line break or leading/trailing whitespace")
        if self.loss_mode not in LOSS_MODES:
            raise ValueError(f"loss_mode must be one of {LOSS_MODES}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.save_interval < 0:
            raise ValueError("save_interval must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.epochs > 0 and not 0 <= self.schedule.warmup_epochs < self.epochs:
            raise ValueError("need 0 <= schedule.warmup_epochs < epochs")


@cache
def _hints(cls: type) -> dict[str, typing.Any]:
    """Resolved field types (annotations are strings under postponed evaluation)."""
    return typing.get_type_hints(cls)


def _lines(obj, prefix: str):
    hints = _hints(type(obj))
    for f in fields(obj):
        key, value = prefix + f.name, getattr(obj, f.name)
        if is_dataclass(hints[f.name]):
            yield from _lines(value, key + ".")
        elif hints[f.name] == _STRINGS:
            yield f"{key}={','.join(value)}"
        else:
            yield f"{key}={value!r}" if isinstance(value, float) else f"{key}={value}"


def serialize_config(cfg: TrainConfig) -> str:
    return "\n".join(_lines(cfg, "")) + "\n"


def _build(cls: type, pairs: dict[str, str], prefix: str):
    """Construct ``cls`` from the ``prefix``-keyed entries of ``pairs``, consuming them."""
    hints = _hints(cls)
    kwargs = {}
    for f in fields(cls):
        key, ftype = prefix + f.name, hints[f.name]
        if is_dataclass(ftype):
            kwargs[f.name] = _build(ftype, pairs, key + ".")
        elif key in pairs:
            text = pairs.pop(key)
            kwargs[f.name] = tuple(p for p in text.split(",") if p) if ftype == _STRINGS else ftype(text)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ValueError(f"missing required key {key!r}")
    return cls(**kwargs)


def parse_config(text: str) -> TrainConfig:
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in pairs:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        pairs[key] = value.strip()
    pairs.pop("augment.seed", None)  # legacy key, never read; old configs still load
    cfg = _build(TrainConfig, pairs, "")
    if pairs:
        raise ValueError(f"unknown config keys: {sorted(pairs)}")
    return cfg


def load_config(path: str | Path) -> TrainConfig:
    return parse_config(Path(path).read_text())
