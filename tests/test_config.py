"""Flat key=value config format."""

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


class TestRoundTrip:
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
