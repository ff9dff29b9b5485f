"""Flat key=value config format."""

import re
from dataclasses import MISSING, fields, is_dataclass, replace

import pytest

from fusekd.augment import AugmentConfig
from fusekd.config import (
    ScheduleSettings,
    TrainConfig,
    parse_config,
    serialize_config,
)
from fusekd.vit import ViTConfig


def sample_config():
    return TrainConfig(
        student=ViTConfig(16, 4, 2, 16, 2),
        teacher_paths=("a.dmtc", "b.dmtc"),
        dataset="data/",
        out_dir="runs/x",
        epochs=50,
        batch_size=64,
        schedule=ScheduleSettings(base_lr=1.5e-4, warmup_epochs=15, floor_lr=0.0),
        augment=AugmentConfig(scale_min=0.2, brightness=0.4),
        loss_mode="tfd+sfd",
        seed=7,
    )


# checkpoints echo the config text, so a schema change must not move it
GOLDEN = (
    "student.image_size=16\nstudent.patch_size=4\nstudent.depth=2\n"
    "student.embed_dim=16\nstudent.num_heads=2\nstudent.mlp_ratio=4\n"
    "teacher_paths=a.dmtc,b.dmtc\ndataset=data/\nout_dir=runs/x\nepochs=50\n"
    "batch_size=64\nschedule.base_lr=0.00015\nschedule.warmup_epochs=15\n"
    "schedule.floor_lr=0.0\naugment.scale_min=0.2\naugment.scale_max=1.0\n"
    "augment.flip_prob=0.5\naugment.brightness=0.4\naugment.contrast=0.4\n"
    "augment.saturation=0.4\nloss_mode=tfd+sfd\nseed=7\nsave_interval=10\n"
)


def leaves(obj, prefix=""):
    """(dotted key, value, field) of every non-dataclass field, nested ones included."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            yield from leaves(value, prefix + f.name + ".")
        else:
            yield prefix + f.name, value, f


def every_leaf_changed():
    """A config whose every leaf field differs from its default."""
    return TrainConfig(
        student=ViTConfig(24, 8, 3, 12, 3, mlp_ratio=2),
        teacher_paths=("t/x.dmtc", "t/y.dmtc", "t/z.dmtc"),
        dataset="elsewhere",
        out_dir="runs/every",
        epochs=7,
        batch_size=5,
        schedule=ScheduleSettings(base_lr=0.25, warmup_epochs=3, floor_lr=1e-7),
        augment=AugmentConfig(
            scale_min=0.3, scale_max=0.9, flip_prob=0.25,
            brightness=0.1, contrast=0.2, saturation=0.3,
        ),
        loss_mode="mse",
        seed=11,
        save_interval=2,
    )


class TestRoundTrip:
    def test_golden_text(self):
        assert serialize_config(sample_config()) == GOLDEN

    def test_every_leaf_field_is_one_key_and_round_trips(self):
        cfg = every_leaf_changed()
        found = list(leaves(cfg))
        for key, value, f in found:
            if f.default is not MISSING:
                assert value != f.default, f"{key} left at its default"
        text = serialize_config(cfg)
        keys = [line.split("=", 1)[0] for line in text.splitlines()]
        assert sorted(keys) == sorted(key for key, _, _ in found)
        assert len(keys) == len(set(keys))
        assert parse_config(text) == cfg

    def test_serialize_parse_equal(self):
        cfg = sample_config()
        assert parse_config(serialize_config(cfg)) == cfg

    def test_dotted_keys_present(self):
        text = serialize_config(sample_config())
        assert "schedule.base_lr=1.5e-4" in text.replace("1.5e-04", "1.5e-4") or "schedule.base_lr=0.00015" in text
        assert "student.patch_size=4" in text
        assert "augment.flip_prob=" in text

    def test_comments_and_blanks_ignored(self):
        text = "# a comment\n\n" + serialize_config(sample_config())
        assert parse_config(text) == sample_config()

    def test_legacy_augment_seed_ignored(self):
        text = serialize_config(sample_config()) + "augment.seed=3\n"
        assert parse_config(text) == sample_config()


class TestParseErrors:
    def test_unknown_key_rejected(self):
        text = serialize_config(sample_config()) + "mystery=1\n"
        with pytest.raises(ValueError, match="unknown"):
            parse_config(text)

    def test_missing_required_key(self):
        text = "\n".join(
            line
            for line in serialize_config(sample_config()).splitlines()
            if not line.startswith("dataset=")
        )
        with pytest.raises(ValueError, match="dataset"):
            parse_config(text)

    def test_mlp_ratio_is_optional(self):
        text = serialize_config(sample_config()).replace("student.mlp_ratio=4\n", "")
        assert "mlp_ratio" not in text
        assert parse_config(text).student.mlp_ratio == 4

    def test_missing_student_key(self):
        text = serialize_config(sample_config()).replace("student.depth=2\n", "")
        with pytest.raises(ValueError, match="student.depth"):
            parse_config(text)

    def test_warmup_not_before_epochs_rejected(self):
        text = serialize_config(sample_config()).replace("epochs=50\n", "epochs=15\n")
        with pytest.raises(ValueError, match="warmup_epochs"):
            parse_config(text)

    def test_empty_teacher_paths_rejected(self):
        with pytest.raises(ValueError, match="teacher_paths"):
            replace(sample_config(), teacher_paths=())
        text = serialize_config(sample_config()).replace(
            "teacher_paths=a.dmtc,b.dmtc\n", "teacher_paths=\n"
        )
        with pytest.raises(ValueError, match="teacher_paths"):
            parse_config(text)

    def test_duplicate_key_rejected(self):
        text = serialize_config(sample_config()) + "seed=9\n"
        with pytest.raises(ValueError, match="duplicate"):
            parse_config(text)

    def test_malformed_line(self):
        with pytest.raises(ValueError, match="key=value"):
            parse_config("just words\n")

    def test_bad_loss_mode(self):
        text = serialize_config(sample_config()).replace(
            "loss_mode=tfd+sfd", "loss_mode=huber"
        )
        with pytest.raises(ValueError, match="loss_mode"):
            parse_config(text)

    @pytest.mark.parametrize("key", ["base_lr", "floor_lr"])
    def test_negative_learning_rate_rejected(self, key):
        with pytest.raises(ValueError, match=key):
            ScheduleSettings(**{key: -1e-3})
        text = re.sub(
            rf"schedule\.{key}=.*", f"schedule.{key}=-1e-05", serialize_config(sample_config())
        )
        with pytest.raises(ValueError, match=key):
            parse_config(text)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "key",
        [k for k, v, _ in leaves(sample_config()) if isinstance(v, float)],
    )
    def test_non_finite_float_rejected(self, key, value):
        text = re.sub(rf"{re.escape(key)}=.*", f"{key}={value}", serialize_config(sample_config()))
        with pytest.raises(ValueError, match=rf"{re.escape(key)} must be finite"):
            parse_config(text)

    @pytest.mark.parametrize("key", ["patch_size", "num_heads", "embed_dim", "image_size"])
    def test_zero_student_size_rejected(self, key):
        text = re.sub(rf"student\.{key}=.*", f"student.{key}=0", serialize_config(sample_config()))
        with pytest.raises(ValueError, match=key):
            parse_config(text)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            replace(sample_config(), seed=-1)
        text = serialize_config(sample_config()).replace("\nseed=7", "\nseed=-1")
        with pytest.raises(ValueError, match="seed"):
            parse_config(text)

    def test_negative_save_interval_rejected(self):
        with pytest.raises(ValueError, match="save_interval"):
            replace(sample_config(), save_interval=-1)
        text = serialize_config(sample_config()).replace("save_interval=10", "save_interval=-1")
        with pytest.raises(ValueError, match="save_interval"):
            parse_config(text)
