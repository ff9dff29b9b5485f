"""CLI dispatch, exit codes, and command behaviour on a micro setup."""

import argparse
import struct

import numpy as np
import pytest

from fusekd import data as dat
from fusekd import teachers as tch
from fusekd.augment import AugmentConfig
from fusekd.checkpoint import save_checkpoint
from fusekd.cli import _build_parser, main
from fusekd.config import ScheduleSettings, TrainConfig, serialize_config
from fusekd.vit import ViTConfig, ViTEncoder, param_count


@pytest.fixture(scope="module")
def cli_env(tmp_path_factory):
    """Dataset + one-teacher bank + config file for fast CLI runs."""
    root = tmp_path_factory.mktemp("cli")
    dat.gen_data(root / "data", 48, 24, seed=0)
    enc = tch.make_toy_teacher(0, "random-frozen")
    tch.save_teacher(enc, root / "t0.dmtc", label="toy-random")
    cfg = TrainConfig(
        student=ViTConfig(16, 4, 2, 16, 2),
        teacher_paths=(str(root / "t0.dmtc"),),
        dataset=str(root / "data"),
        out_dir=str(root / "run"),
        epochs=2,
        batch_size=24,
        schedule=ScheduleSettings(base_lr=1e-3, warmup_epochs=1),
        augment=AugmentConfig(),
        seed=0,
    )
    cfg_path = root / "run.cfg"
    cfg_path.write_text(serialize_config(cfg))
    return root, cfg_path


class TestDispatch:
    def test_no_args_usage_error(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_unknown_flag_rejected(self, capsys):
        assert main(["gen-data", "--out", "x", "--bogus", "1"]) == 1

    @pytest.mark.parametrize(
        "cmd",
        [
            "gen-data",
            "make-teachers",
            "distill",
            "eval",
            "sweep-teachers",
            "sweep-losses",
            "gradcheck",
            "inspect-ckpt",
        ],
    )
    def test_help_exits_zero(self, cmd, capsys):
        assert main([cmd, "--help"]) == 0
        assert cmd in capsys.readouterr().out

    def test_top_level_help(self, capsys):
        assert main(["--help"]) == 0


# every subcommand's option strings (positionals by dest), "-h/--help" left out
OPTIONS = {
    "gen-data": {"--seed", "--out", "--n-train", "--n-test", "--image-size"},
    "make-teachers": {"--seed", "--data", "--out", "--epochs", "--embed-dim", "--flavors"},
    "distill": {"--config", "--seed"},
    "eval": {"--probe-epochs", "--ckpt", "--data"},
    "sweep-teachers": {"--config", "--seed", "--probe-epochs", "--subsets"},
    "sweep-losses": {"--config", "--seed", "--probe-epochs"},
    "gradcheck": {"--seed"},
    "inspect-ckpt": {"path"},
}


def test_each_command_declares_exactly_its_options():
    parser = _build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    found = {
        name: {s for a in cmd._actions for s in (a.option_strings or [a.dest])} - {"-h", "--help"}
        for name, cmd in sub.choices.items()
    }
    assert found == OPTIONS
    seeded = {name for name, opts in found.items() if "--seed" in opts}
    assert seeded == {"gen-data", "make-teachers", "distill", "sweep-teachers", "sweep-losses", "gradcheck"}


@pytest.mark.parametrize(
    "argv",
    [
        ["gradcheck", "--tiny"],
        ["eval", "--ckpt", "x.dmtc", "--data", "d", "--seed", "0"],
        ["inspect-ckpt", "x.dmtc", "--seed", "0"],
    ],
    ids=["gradcheck-tiny", "eval-seed", "inspect-seed"],
)
def test_removed_flags_are_usage_errors(argv, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "usage" in err.lower() and "unrecognized arguments" in err


def _set_key(cfg_path, key, value):
    """Rewrite the ``key=`` line of a config file in place."""
    lines = [f"{key}={value}" if line.startswith(f"{key}=") else line
             for line in cfg_path.read_text().splitlines()]
    cfg_path.write_text("\n".join(lines) + "\n")


def _config_with_out_dir(cfg_path, out, tmp_path):
    """Copy of the ``cli_env`` config that writes to ``out``."""
    p = tmp_path / "out.cfg"
    p.write_text(cfg_path.read_text())
    _set_key(p, "out_dir", out)
    return p


@pytest.mark.parametrize("command", ["gen-data", "make-teachers", "distill"])
def test_negative_seed_exit_2_and_nothing_created(cli_env, tmp_path, capsys, command):
    root, cfg_path = cli_env
    out = tmp_path / "out"
    argv = {
        "gen-data": ["gen-data", "--out", str(out)],
        "make-teachers": ["make-teachers", "--data", str(root / "data"), "--out", str(out)],
        "distill": ["distill", "--config", str(_config_with_out_dir(cfg_path, out, tmp_path))],
    }[command]
    assert main(argv + ["--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "seed" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("key", ["patch_size", "num_heads"])
def test_zero_student_size_exit_2_and_nothing_created(cli_env, tmp_path, capsys, key):
    root, cfg_path = cli_env
    out = tmp_path / "out"
    p = _config_with_out_dir(cfg_path, out, tmp_path)
    _set_key(p, f"student.{key}", 0)
    assert main(["distill", "--config", str(p)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and key in err and "Traceback" not in err
    assert not out.exists()


def test_unallocatable_student_exit_2_and_nothing_created(cli_env, tmp_path, capsys):
    # numpy refuses a 10**12-wide patch embedding at once; a smaller width could really allocate
    root, cfg_path = cli_env
    out = tmp_path / "out"
    p = _config_with_out_dir(cfg_path, out, tmp_path)
    _set_key(p, "student.embed_dim", 10**12)
    assert main(["distill", "--config", str(p)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    assert not out.exists()


@pytest.fixture
def empty_test_split(cli_env, tmp_path):
    """Data directory with cli_env's training split and a test split of 0 records."""
    root, _ = cli_env
    data = tmp_path / "data"
    data.mkdir()
    (data / "train.dmtd").write_bytes((root / "data" / "train.dmtd").read_bytes())
    empty = dat.Dataset(np.zeros((0, 3, 16, 16), np.uint8), np.zeros(0, np.uint8))
    dat.write_dmtd(data / "test.dmtd", empty)
    return data


def test_eval_empty_test_split_exit_2(cli_env, empty_test_split, capsys):
    root, cfg_path = cli_env
    assert main(["distill", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    code = main(["eval", "--ckpt", str(root / "run" / "student_final.dmtc"),
                 "--data", str(empty_test_split), "--probe-epochs", "2"])
    assert code == 2
    captured = capsys.readouterr()
    assert "probe_accuracy" not in captured.out
    assert "error:" in captured.err and "test split" in captured.err and "Traceback" not in captured.err


def test_sweep_empty_test_split_exit_2_before_any_run(cli_env, empty_test_split, tmp_path, capsys):
    _, cfg_path = cli_env
    out = tmp_path / "sl"
    p = _config_with_out_dir(cfg_path, out, tmp_path)
    _set_key(p, "dataset", empty_test_split)
    assert main(["sweep-losses", "--config", str(p), "--probe-epochs", "2"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "test split" in err and "Traceback" not in err
    assert not out.exists()


def test_sweep_single_class_train_split_exit_2_before_any_run(cli_env, tmp_path, capsys):
    root, cfg_path = cli_env
    data = tmp_path / "data"
    train = dat.read_dmtd(root / "data" / "train.dmtd")
    dat.write_dmtd(data / "train.dmtd", dat.Dataset(train.images, np.zeros_like(train.labels)))
    (data / "test.dmtd").write_bytes((root / "data" / "test.dmtd").read_bytes())
    out = tmp_path / "sl"
    p = _config_with_out_dir(cfg_path, out, tmp_path)
    _set_key(p, "dataset", data)
    assert main(["sweep-losses", "--config", str(p), "--probe-epochs", "2"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "two classes" in err and "Traceback" not in err
    assert not out.exists()


def test_nan_learning_rate_exit_2_and_nothing_created(cli_env, tmp_path, capsys):
    root, cfg_path = cli_env
    out = tmp_path / "out"
    p = _config_with_out_dir(cfg_path, out, tmp_path)
    _set_key(p, "schedule.base_lr", "nan")
    assert main(["distill", "--config", str(p)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "schedule.base_lr must be finite" in err and "Traceback" not in err
    assert not out.exists()


class TestGenData:
    @pytest.mark.parametrize("size", ["0", "-2"])
    def test_bad_image_size_exit_2_and_nothing_created(self, tmp_path, capsys, size):
        out = tmp_path / "out"
        code = main(["gen-data", "--out", str(out), "--n-train", "2", "--n-test", "2",
                     "--image-size", size])
        assert code == 2
        assert "image_size" in capsys.readouterr().err
        assert not out.exists()

    def test_writes_files_and_is_deterministic(self, tmp_path, capsys):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            code = main(
                ["gen-data", "--out", str(out), "--n-train", "8", "--n-test", "4", "--seed", "5"]
            )
            assert code == 0
        assert (a / "train.dmtd").read_bytes() == (b / "train.dmtd").read_bytes()
        assert (a / "test.dmtd").read_bytes() == (b / "test.dmtd").read_bytes()

    def test_unwritable_path_fails(self, capsys):
        assert main(["gen-data", "--out", "/proc/nope", "--n-train", "1", "--n-test", "1"]) == 2


class TestDistillAndEval:
    def test_distill_twice_byte_identical_metrics(self, cli_env, tmp_path, capsys):
        root, cfg_path = cli_env
        outputs = []
        for sub in ("r1", "r2"):
            cfg_text = cfg_path.read_text().replace(
                f"out_dir={root / 'run'}", f"out_dir={tmp_path / sub}"
            )
            p = tmp_path / f"{sub}.cfg"
            p.write_text(cfg_text)
            assert main(["distill", "--config", str(p), "--seed", "0"]) == 0
            outputs.append((tmp_path / sub / "metrics.ndjson").read_bytes())
        assert outputs[0] == outputs[1]

    def test_empty_teacher_paths_exit_2_and_nothing_created(self, cli_env, tmp_path, capsys):
        root, cfg_path = cli_env
        out = tmp_path / "run"
        lines = [
            "teacher_paths=" if line.startswith("teacher_paths=")
            else f"out_dir={out}" if line.startswith("out_dir=") else line
            for line in cfg_path.read_text().splitlines()
        ]
        p = tmp_path / "empty.cfg"
        p.write_text("\n".join(lines) + "\n")
        assert main(["distill", "--config", str(p)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "teacher_paths" in err and "Traceback" not in err
        assert not out.exists()

    def test_eval_prints_probe_accuracy(self, cli_env, capsys):
        root, cfg_path = cli_env
        assert main(["distill", "--config", str(cfg_path)]) == 0
        capsys.readouterr()
        code = main(
            ["eval", "--ckpt", str(root / "run" / "student_final.dmtc"),
             "--data", str(root / "data"), "--probe-epochs", "20"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "probe_accuracy:" in out
        acc = float(out.split("probe_accuracy:")[1].strip())
        assert 0.0 <= acc <= 1.0

    def test_eval_probe_epochs_below_one_exit_2(self, cli_env, capsys):
        root, cfg_path = cli_env
        assert main(["distill", "--config", str(cfg_path)]) == 0
        capsys.readouterr()
        code = main(
            ["eval", "--ckpt", str(root / "run" / "student_final.dmtc"),
             "--data", str(root / "data"), "--probe-epochs", "-3"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "probe_accuracy" not in captured.out
        assert "error:" in captured.err and "iterations" in captured.err

    def test_eval_checkpoint_without_config_exit_2(self, cli_env, tmp_path, capsys):
        root, _ = cli_env
        p = tmp_path / "noconfig.dmtc"
        save_checkpoint(p, {"w": np.zeros(3)}, meta={"kind": "train_state"})
        assert main(["eval", "--ckpt", str(p), "--data", str(root / "data")]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "config" in err

    def test_missing_config_is_runtime_error(self, capsys):
        assert main(["distill", "--config", "/does/not/exist.cfg"]) == 2


class TestSweepTeachers:
    @pytest.mark.parametrize("index", ["7", "-1"])
    def test_out_of_range_subset_is_runtime_error(self, cli_env, tmp_path, capsys, index):
        root, cfg_path = cli_env
        # three copies of the one teacher: a 3-teacher bank with valid indices 0..2
        t0 = str(root / "t0.dmtc")
        cfg_text = cfg_path.read_text().replace(
            f"out_dir={root / 'run'}", f"out_dir={tmp_path / 'sw'}"
        ).replace(f"teacher_paths={t0}", f"teacher_paths={t0},{t0},{t0}")
        p = tmp_path / "sw.cfg"
        p.write_text(cfg_text)
        assert main(["sweep-teachers", "--config", str(p), "--subsets", f"0;{index}"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "outside 0..2" in err
        assert "Traceback" not in err
        assert not (tmp_path / "sw").exists()


class TestSweepLosses:
    def test_probe_epochs_below_one_exit_2_before_any_run(self, cli_env, tmp_path, capsys):
        root, cfg_path = cli_env
        out = tmp_path / "sl"
        p = _config_with_out_dir(cfg_path, out, tmp_path)
        assert main(["sweep-losses", "--config", str(p), "--probe-epochs", "0"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "probe_epochs" in err and "Traceback" not in err
        assert not out.exists()


class TestGradcheckCommand:
    def test_tiny_suite_passes(self, capsys):
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "end-to-end-combined-loss" in out
        assert "max_rel_err" in out
        assert "all gradient checks passed" in out


class TestInspect:
    def test_student_checkpoint_count_matches_param_count(self, cli_env, capsys):
        root, cfg_path = cli_env
        main(["distill", "--config", str(cfg_path)])
        capsys.readouterr()
        assert main(["inspect-ckpt", str(root / "run" / "student_final.dmtc")]) == 0
        out = capsys.readouterr().out
        assert "version: 1" in out
        assert "f64" in out

    def test_teacher_checkpoint_cross_check(self, cli_env, capsys):
        root, _ = cli_env
        assert main(["inspect-ckpt", str(root / "t0.dmtc")]) == 0
        out = capsys.readouterr().out
        expected = param_count(ViTConfig(16, 4, 1, 32, 2))
        assert f"total_parameters: {expected}" in out
        assert f"config_param_count: {expected}" in out

    def test_corrupt_file_exit_2_names_check(self, tmp_path, capsys):
        p = tmp_path / "bad.dmtc"
        save_checkpoint(p, {"w": np.zeros(4)})
        raw = bytearray(p.read_bytes())
        raw[0] ^= 0xFF
        p.write_bytes(bytes(raw))
        assert main(["inspect-ckpt", str(p)]) == 2
        assert "magic" in capsys.readouterr().err

    def test_non_object_metadata_exit_2(self, tmp_path, capsys):
        md = b"[1, 2]"
        p = tmp_path / "list.dmtc"
        p.write_bytes(b"DMTC" + struct.pack("<IQ", 1, len(md)) + md)
        assert main(["inspect-ckpt", str(p)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    def test_f64_dtype_shown(self, tmp_path, capsys):
        p = tmp_path / "x.dmtc"
        save_checkpoint(p, {"w": np.zeros(4)})
        assert main(["inspect-ckpt", str(p)]) == 0
        assert "f64" in capsys.readouterr().out


class TestMakeTeachers:
    def test_writes_requested_flavors(self, cli_env, tmp_path, capsys):
        root, _ = cli_env
        code = main(
            ["make-teachers", "--data", str(root / "data"), "--out", str(tmp_path),
             "--epochs", "1", "--flavors", "random-frozen", "--seed", "3"]
        )
        assert code == 0
        assert (tmp_path / "toy-random.dmtc").exists()
        enc, label = tch.load_teacher(tmp_path / "toy-random.dmtc")
        assert label == "toy-random"
        ref = ViTEncoder(ViTConfig(16, 4, 1, 32, 2), seed=3)
        for (_, a), (_, b) in zip(enc.named_tensors(), ref.named_tensors()):
            np.testing.assert_array_equal(a.array, b.array)

    def test_unknown_flavor_runtime_error(self, cli_env, tmp_path):
        root, _ = cli_env
        code = main(
            ["make-teachers", "--data", str(root / "data"), "--out", str(tmp_path),
             "--flavors", "alchemy"]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--epochs", "-3", "epochs"),
            ("--embed-dim", "33", "embed_dim"),
            ("--embed-dim", "0", "embed_dim"),
            ("--flavors", ",", "flavors"),
        ],
        ids=["epochs", "embed-dim", "embed-dim-zero", "no-flavors"],
    )
    def test_bad_teacher_arguments_rejected_before_loading(
        self, tmp_path, capsys, flag, value, message
    ):
        # the data directory does not exist: the argument error must come first
        out = tmp_path / "bank"
        code = main(
            ["make-teachers", "--data", str(tmp_path / "no-data"), "--out", str(out),
             "--flavors", "masked-reconstruction", flag, value]
        )
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_empty_training_split_rejected_before_out(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        empty = dat.Dataset(np.zeros((0, 3, 16, 16), np.uint8), np.zeros(0, np.uint8))
        for split in ("train", "test"):
            dat.write_dmtd(data / f"{split}.dmtd", empty)
        out = tmp_path / "bank"
        code = main(
            ["make-teachers", "--data", str(data), "--out", str(out),
             "--epochs", "2", "--flavors", "masked-reconstruction"]
        )
        assert code == 2
        assert "no samples" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flavor", ["masked-reconstruction", "instance-contrastive"])
    def test_non_square_images_rejected_before_training(self, tmp_path, capsys, flavor):
        data = tmp_path / "data"
        rng = np.random.default_rng(0)
        wide = dat.Dataset(rng.integers(0, 256, (4, 3, 8, 16), dtype=np.uint8), np.zeros(4, np.uint8))
        for split in ("train", "test"):
            dat.write_dmtd(data / f"{split}.dmtd", wide)
        out = tmp_path / "bank"
        code = main(
            ["make-teachers", "--data", str(data), "--out", str(out),
             "--epochs", "1", "--flavors", flavor]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: {data}: images are 8x16" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_unknown_flavor_rejected_before_training(self, cli_env, tmp_path, capsys):
        root, _ = cli_env
        out = tmp_path / "bank"
        code = main(
            ["make-teachers", "--data", str(root / "data"), "--out", str(out),
             "--epochs", "1", "--flavors", "masked-reconstruction,bogus"]
        )
        assert code == 2
        assert "bogus" in capsys.readouterr().err
        assert not out.exists()
