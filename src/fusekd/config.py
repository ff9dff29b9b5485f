"""Run configuration and the flat key=value config text format.

Keys mirror dataclass fields with dotted sections, e.g.
``schedule.base_lr=1.5e-4``. Lines starting with '#' and blank lines are
ignored. A serialized config re-parses to an equal dataclass, and the same
text is echoed into checkpoint metadata.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path

from .augment import AugmentConfig
from .fusion import LOSS_MODES
from .vit import ViTConfig


@dataclass(frozen=True)
class ScheduleSettings:
    """File-level schedule knobs; total epochs and steps come from the run."""

    base_lr: float = 1.5e-4
    warmup_epochs: int = 15
    floor_lr: float = 0.0


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
        if self.loss_mode not in LOSS_MODES:
            raise ValueError(f"loss_mode must be one of {LOSS_MODES}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def serialize_config(cfg: TrainConfig) -> str:
    lines = []
    for f in fields(cfg.student):
        lines.append(f"student.{f.name}={_fmt(getattr(cfg.student, f.name))}")
    lines.append("teacher_paths=" + ",".join(cfg.teacher_paths))
    lines.append(f"dataset={cfg.dataset}")
    lines.append(f"out_dir={cfg.out_dir}")
    lines.append(f"epochs={cfg.epochs}")
    lines.append(f"batch_size={cfg.batch_size}")
    for f in fields(cfg.schedule):
        lines.append(f"schedule.{f.name}={_fmt(getattr(cfg.schedule, f.name))}")
    for f in fields(cfg.augment):
        lines.append(f"augment.{f.name}={_fmt(getattr(cfg.augment, f.name))}")
    lines.append(f"loss_mode={cfg.loss_mode}")
    lines.append(f"seed={cfg.seed}")
    lines.append(f"save_interval={cfg.save_interval}")
    return "\n".join(lines) + "\n"


def _parse_scalar(text: str, target_type: type):
    if target_type is bool:
        if text.lower() in ("true", "1", "yes"):
            return True
        if text.lower() in ("false", "0", "no"):
            return False
        raise ValueError(f"bad boolean {text!r}")
    return target_type(text)


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

    named_types = {"int": int, "float": float, "bool": bool, "str": str}

    def section(prefix: str, cls):
        kwargs = {}
        for f in fields(cls):
            key = f"{prefix}.{f.name}"
            if key in pairs:
                # annotations are strings under `from __future__ import annotations`
                ftype = named_types.get(str(f.type), type(f.default))
                kwargs[f.name] = _parse_scalar(pairs.pop(key), ftype)
        return cls(**kwargs)

    student_kwargs = {}
    for f in fields(ViTConfig):
        key = f"student.{f.name}"
        if key not in pairs:
            raise ValueError(f"missing required key {key!r}")
        student_kwargs[f.name] = int(pairs.pop(key))
    student = ViTConfig(**student_kwargs)

    for required in ("teacher_paths", "dataset", "out_dir"):
        if required not in pairs:
            raise ValueError(f"missing required key {required!r}")
    teacher_paths = tuple(p for p in pairs.pop("teacher_paths").split(",") if p)
    dataset = pairs.pop("dataset")
    out_dir = pairs.pop("out_dir")

    schedule = section("schedule", ScheduleSettings)
    pairs.pop("augment.seed", None)  # legacy key, never read; old configs still load
    augment = section("augment", AugmentConfig)

    simple = {}
    for name, caster in (
        ("epochs", int),
        ("batch_size", int),
        ("loss_mode", str),
        ("seed", int),
        ("save_interval", int),
    ):
        if name in pairs:
            simple[name] = caster(pairs.pop(name))
    if pairs:
        raise ValueError(f"unknown config keys: {sorted(pairs)}")
    return TrainConfig(
        student=student,
        teacher_paths=teacher_paths,
        dataset=dataset,
        out_dir=out_dir,
        schedule=schedule,
        augment=augment,
        **simple,
    )


def load_config(path: str | Path) -> TrainConfig:
    return parse_config(Path(path).read_text())
