"""Training orchestration: steps, full runs, probing, sweeps, state I/O."""

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fusekd import checkpoint as ckpt
from fusekd import data as dat
from fusekd import fusion
from fusekd import optim
from fusekd import teachers as tch
from fusekd import trainer
from fusekd.augment import AugmentConfig
from fusekd.config import ScheduleSettings, TrainConfig, serialize_config, parse_config
from fusekd.fusion import LOSS_MODES, Adapter
from fusekd.trainer import (
    NonFiniteLossError,
    distill_step,
    fit_linear_head,
    linear_probe,
    load_train_checkpoint,
    sample_seed,
    save_train_checkpoint,
    sweep_loss_modes,
    sweep_teacher_combinations,
    train,
)
from fusekd.vit import ViTConfig, ViTEncoder

TEACHER_CFG = ViTConfig(16, 4, 2, 32, 2)
STUDENT_CFG = ViTConfig(16, 4, 2, 16, 2)
NO_JITTER = AugmentConfig(brightness=0.0, contrast=0.0, saturation=0.0)

# train(config) in a fresh interpreter that calls os._exit(3), skipping every
# handler and buffer flush as a kill would, just before optimizer step
# argv[2] (1-based; 0 never exits)
EXIT_AT_STEP = """
import os, sys
from fusekd import config, trainer

step, calls = trainer.distill_step, 0

def exiting_step(*args, **kwargs):
    global calls
    calls += 1
    if calls == int(sys.argv[2]):
        os._exit(3)
    return step(*args, **kwargs)

trainer.distill_step = exiting_step
trainer.train(config.load_config(sys.argv[1]))
"""


@pytest.fixture(scope="module")
def micro_bank(tmp_path_factory):
    out = tmp_path_factory.mktemp("bank")
    paths = []
    for i in range(3):
        enc = tch.make_toy_teacher(i, "random-frozen", config=TEACHER_CFG)
        p = out / f"t{i}.dmtc"
        tch.save_teacher(enc, p, label=f"rnd{i}")
        paths.append(str(p))
    return paths


@pytest.fixture(scope="module")
def micro_data(tmp_path_factory):
    d = tmp_path_factory.mktemp("mdata")
    dat.gen_data(d, 64, 32, seed=2)
    return d


def micro_config(micro_bank, micro_data, out_dir, **kw):
    defaults = dict(
        student=STUDENT_CFG,
        teacher_paths=tuple(micro_bank),
        dataset=str(micro_data),
        out_dir=str(out_dir),
        epochs=2,
        batch_size=32,
        schedule=ScheduleSettings(base_lr=1e-3, warmup_epochs=1),
        augment=AugmentConfig(),
        loss_mode="tfd+sfd",
        seed=0,
        save_interval=10,
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


def saved_fresh_state(micro_bank, micro_data, tmp_path, student_cfg=STUDENT_CFG):
    """Save a fresh student, 16->32 adapter and AdamW state as a training checkpoint; its path."""
    cfg = micro_config(micro_bank, micro_data, tmp_path / "run", student=student_cfg)
    student = ViTEncoder(student_cfg, seed=0)
    adapter = Adapter.create(16, 32)
    state = optim.init_adamw(student.parameters() + adapter.parameters())
    p = tmp_path / "s.dmtc"
    save_train_checkpoint(p, cfg, student, adapter, state, step=0)
    return p


class TestDistillStep:
    def _setup(self, bank_paths, wd=0.05):
        bank = tch.load_bank(bank_paths[:1])
        student = ViTEncoder(STUDENT_CFG, seed=1)
        adapter = Adapter.create(16, 32, seed=2)
        params = student.parameters() + adapter.parameters()
        state = optim.init_adamw(params, weight_decay=wd)
        return bank, student, adapter, state

    def test_self_distillation_fixed_point(self, micro_bank):
        bank = tch.load_bank(micro_bank[:1])
        student = ViTEncoder.from_arrays(
            TEACHER_CFG, {n: t.array for n, t in bank.teachers[0].named_tensors()}
        )
        adapter = Adapter.from_arrays(np.eye(32), np.zeros(32))
        params = student.parameters() + adapter.parameters()
        state = optim.init_adamw(params, weight_decay=0.0)
        images = dat.generate(8, seed=1).float_images()
        before = {n: t.array.copy() for n, t in student.named_tensors()}
        for step in range(10):
            seeds = [sample_seed(1234 + step, i) for i in range(8)]
            losses = distill_step(
                images, seeds, NO_JITTER, bank, student, adapter, state, 1.5e-4
            )
            assert abs(losses.total) < 1e-10
        drift = max(
            float(np.max(np.abs(t.array - before[n])))
            for n, t in student.named_tensors()
        )
        assert drift < 1e-12

    def test_mode_contract_tfd_only(self, micro_bank):
        bank, student, adapter, state = self._setup(micro_bank)
        images = dat.generate(4, seed=3).float_images()
        seeds = [sample_seed(5, i) for i in range(4)]
        losses = distill_step(
            images, seeds, AugmentConfig(), bank, student, adapter, state, 1e-3, "tfd"
        )
        assert losses.spatial == 0.0
        assert losses.total == losses.token

    def test_mode_contract_sfd_only(self, micro_bank):
        bank, student, adapter, state = self._setup(micro_bank)
        images = dat.generate(4, seed=3).float_images()
        seeds = [sample_seed(5, i) for i in range(4)]
        losses = distill_step(
            images, seeds, AugmentConfig(), bank, student, adapter, state, 1e-3, "sfd"
        )
        assert losses.token == 0.0
        assert losses.total == losses.spatial

    def test_golden_seeded_step(self, micro_bank):
        # frozen at the first oracle-validated run of this configuration
        bank, student, adapter, state = self._setup(micro_bank)
        images = dat.generate(4, seed=7).float_images()
        seeds = [sample_seed(42, i) for i in range(4)]
        losses = distill_step(
            images, seeds, AugmentConfig(), bank, student, adapter, state, 1e-3
        )
        assert losses.total == pytest.approx(0.5948400990610558, abs=1e-12)
        assert losses.token == pytest.approx(0.46415089413648497, abs=1e-12)
        assert losses.spatial == pytest.approx(0.13068920492457087, abs=1e-12)
        # exact bits: a kernel rewrite that reorders float work moves these
        assert losses.total.hex() == "0x1.308ee1a7a21e0p-1"
        assert losses.token.hex() == "0x1.db4a5f3ae6c51p-2"
        assert losses.spatial.hex() == "0x1.0ba6c828baedep-3"
        digest = hashlib.sha256()
        for p in student.parameters() + adapter.parameters():
            digest.update(p.array.tobytes())
        assert digest.hexdigest() == (
            "d036353f2bbfb41b884976c31a687187f582db9388aa7c5899cce36aedc96003"
        )

    def test_teachers_untouched_by_steps(self, micro_bank):
        bank, student, adapter, state = self._setup(micro_bank)
        digest = tch.bank_digest(bank)
        images = dat.generate(4, seed=3).float_images()
        for step in range(3):
            seeds = [sample_seed(step, i) for i in range(4)]
            distill_step(
                images, seeds, AugmentConfig(), bank, student, adapter, state, 1e-3
            )
        assert tch.bank_digest(bank) == digest

    def test_teacher_perturbation_changes_loss_not_buffers(self, micro_bank):
        # gradient-flow isolation: the loss depends on teacher weights, but
        # training never writes to them
        images = dat.generate(4, seed=3).float_images()
        seeds = [sample_seed(11, i) for i in range(4)]

        def loss_with(bank):
            student = ViTEncoder(STUDENT_CFG, seed=1)
            adapter = Adapter.create(16, 32, seed=2)
            state = optim.init_adamw(student.parameters() + adapter.parameters())
            return distill_step(
                images, seeds, AugmentConfig(), bank, student, adapter, state, 1e-3
            ).total

        bank = tch.load_bank(micro_bank[:1])
        base = loss_with(bank)
        arrays = {n: t.array.copy() for n, t in bank.teachers[0].named_tensors()}
        arrays["patch_w"][0, 0] += 1e-3
        teacher = ViTEncoder.from_arrays(bank.config, arrays)
        bumped = tch.TeacherBank([teacher.freeze()], ["bumped"])
        assert loss_with(bumped) != base

    @pytest.mark.parametrize("mode", LOSS_MODES)
    def test_non_finite_batch_reports_index(self, micro_bank, mode):
        bank, student, adapter, state = self._setup(micro_bank)
        images = dat.generate(4, seed=3).float_images()
        images[2] = np.nan
        seeds = [sample_seed(1, i) for i in range(4)]
        with pytest.raises(NonFiniteLossError) as exc_info:
            distill_step(
                images, seeds, AugmentConfig(), bank, student, adapter, state, 1e-3, mode
            )
        assert exc_info.value.batch_index == 2
        assert "2" in str(exc_info.value)

    @staticmethod
    def _count_forwards(monkeypatch):
        calls = []
        forward_all = tch.TeacherBank.forward_all

        def counted(bank, images):
            calls.append(len(images))
            return forward_all(bank, images)

        monkeypatch.setattr(tch.TeacherBank, "forward_all", counted)
        return calls

    @pytest.mark.parametrize(
        "module, name",
        [(fusion, "token_fusion_loss"), (optim, "adamw_step")],
        ids=["fusion-loss", "adamw-update"],
    )
    def test_later_failure_has_no_batch_index_and_no_replay(
        self, micro_bank, monkeypatch, module, name
    ):
        bank, student, adapter, state = self._setup(micro_bank)
        before = [p.array for p in student.parameters() + adapter.parameters()]
        calls = self._count_forwards(monkeypatch)

        def broken(*args, **kwargs):
            raise ValueError("non-finite output of scale")

        monkeypatch.setattr(module, name, broken)
        images = dat.generate(4, seed=3).float_images()
        seeds = [sample_seed(1, i) for i in range(4)]
        with pytest.raises(NonFiniteLossError, match="scale") as exc_info:
            distill_step(images, seeds, AugmentConfig(), bank, student, adapter, state, 1e-3)
        assert exc_info.value.batch_index is None
        assert calls == [4]
        after = [p.array for p in student.parameters() + adapter.parameters()]
        assert all(a is b for a, b in zip(before, after))

    def test_out_of_range_sample_reported_before_any_forward(self, micro_bank, monkeypatch):
        bank, student, adapter, state = self._setup(micro_bank)
        calls = self._count_forwards(monkeypatch)
        images = dat.generate(4, seed=3).float_images()
        images[1, 0, 0, 0] = 1.5  # finite, but outside the [0, 1] pixel range
        seeds = [sample_seed(1, i) for i in range(4)]
        with pytest.raises(NonFiniteLossError, match="batch index 1") as exc_info:
            distill_step(images, seeds, AugmentConfig(), bank, student, adapter, state, 1e-3)
        assert exc_info.value.batch_index == 1
        assert calls == []
        assert state.t == 0

    @pytest.mark.parametrize("n_seeds", [2, 6], ids=["too-few", "too-many"])
    def test_seed_count_must_match_batch(self, micro_bank, monkeypatch, n_seeds):
        bank, student, adapter, state = self._setup(micro_bank)
        views = []
        monkeypatch.setattr(trainer.aug, "make_views", lambda *args: views.append(args))
        images = dat.generate(4, seed=3).float_images()
        seeds = [sample_seed(1, i) for i in range(n_seeds)]
        with pytest.raises(ValueError, match=f"{n_seeds} view seeds for 4 images"):
            distill_step(images, seeds, AugmentConfig(), bank, student, adapter, state, 1e-3)
        assert views == []
        assert state.t == 0

    def test_bad_mode_rejected(self, micro_bank):
        bank, student, adapter, state = self._setup(micro_bank)
        with pytest.raises(ValueError):
            distill_step(
                dat.generate(1, seed=0).float_images(),
                [0],
                AugmentConfig(),
                bank,
                student,
                adapter,
                state,
                1e-3,
                "l2",
            )


class TestTrain:
    def test_epochs_zero_checkpoint_equals_init(self, micro_bank, micro_data, tmp_path):
        cfg = micro_config(micro_bank, micro_data, tmp_path / "run0", epochs=0)
        result = train(cfg)
        assert result.metrics_path.read_text() == ""
        _, student, adapter, state, step = load_train_checkpoint(result.checkpoint_path)
        assert step == 0
        fresh = ViTEncoder(cfg.student, seed=trainer.derive_seed(cfg.seed, 1))
        for (_, a), (_, b) in zip(student.named_tensors(), fresh.named_tensors()):
            np.testing.assert_array_equal(a.array, b.array)

    def test_same_seed_runs_byte_identical(self, micro_bank, micro_data, tmp_path):
        cfg_a = micro_config(micro_bank, micro_data, tmp_path / "a")
        cfg_b = replace(cfg_a, out_dir=str(tmp_path / "b"))
        ra = train(cfg_a)
        rb = train(cfg_b)
        # metrics bytes and all tensor payloads must agree; checkpoint files
        # differ only in the echoed out_dir inside the config text
        assert ra.metrics_path.read_bytes() == rb.metrics_path.read_bytes()
        ta, ma = __import__("fusekd.checkpoint", fromlist=["load_checkpoint"]).load_checkpoint(ra.checkpoint_path)
        tb, mb = __import__("fusekd.checkpoint", fromlist=["load_checkpoint"]).load_checkpoint(rb.checkpoint_path)
        assert list(ta) == list(tb)
        for n in ta:
            np.testing.assert_array_equal(ta[n], tb[n])

    def test_seed_changes_outcome(self, micro_bank, micro_data, tmp_path):
        ra = train(micro_config(micro_bank, micro_data, tmp_path / "a", seed=0))
        rb = train(micro_config(micro_bank, micro_data, tmp_path / "b", seed=1))
        assert ra.final_loss != rb.final_loss

    def test_metrics_finite_nonnegative_and_streamed(self, micro_bank, micro_data, tmp_path):
        cfg = micro_config(micro_bank, micro_data, tmp_path / "run")
        result = train(cfg)
        lines = result.metrics_path.read_text().strip().splitlines()
        assert len(lines) == cfg.epochs
        for line in lines:
            rec = json.loads(line)
            for key in ("loss_total", "loss_token", "loss_spatial", "lr"):
                assert np.isfinite(rec[key])
                assert rec[key] >= 0.0
            assert "wall" not in " ".join(rec)  # timing never serialized

    def test_teachers_bit_identical_across_run(self, micro_bank, micro_data, tmp_path):
        bank = tch.load_bank(micro_bank)
        digest = tch.bank_digest(bank)
        train(micro_config(micro_bank, micro_data, tmp_path / "run"))
        assert tch.bank_digest(tch.load_bank(micro_bank)) == digest

    def test_resolution_mismatch_rejected(self, micro_bank, micro_data, tmp_path):
        cfg = micro_config(
            micro_bank,
            micro_data,
            tmp_path / "run",
            student=ViTConfig(16, 8, 2, 16, 2),
        )
        with pytest.raises(ValueError, match="share"):
            train(cfg)

    def test_missing_dataset_fails_with_path(self, micro_bank, tmp_path):
        cfg = micro_config(micro_bank, tmp_path / "nope", tmp_path / "run")
        with pytest.raises(OSError, match="nope"):
            train(cfg)

    def test_truncated_dataset_raises_dataset_error(self, micro_bank, micro_data, tmp_path):
        data_dir = tmp_path / "cut"
        data_dir.mkdir()
        raw = (micro_data / "train.dmtd").read_bytes()
        (data_dir / "train.dmtd").write_bytes(raw[:-7])
        (data_dir / "test.dmtd").write_bytes((micro_data / "test.dmtd").read_bytes())
        out = tmp_path / "run"
        with pytest.raises(dat.DatasetError, match="train.dmtd"):
            train(micro_config(micro_bank, data_dir, out))
        assert not out.exists()

    @pytest.mark.parametrize(
        "case",
        [
            "missing-dataset", "resolution-mismatch", "empty-bank", "missing-teacher",
            "empty-split", "image-size-mismatch",
        ],
    )
    def test_failed_inputs_leave_no_run_directory(self, micro_bank, micro_data, tmp_path, case):
        out = tmp_path / "run"
        cfg = micro_config(micro_bank, micro_data, out)
        if case == "missing-dataset":
            cfg = replace(cfg, dataset=str(tmp_path / "nope"))
        elif case == "resolution-mismatch":
            cfg = replace(cfg, student=ViTConfig(16, 8, 2, 16, 2))
        elif case == "empty-bank":
            # TrainConfig rejects this when built; train() must still check first
            object.__setattr__(cfg, "teacher_paths", ())
        elif case == "missing-teacher":
            cfg = replace(cfg, teacher_paths=(str(tmp_path / "absent.dmtc"),))
        elif case == "empty-split":
            data_dir = tmp_path / "empty"
            data_dir.mkdir()
            dat.write_dmtd(data_dir / "train.dmtd", dat.generate(0, seed=0))
            dat.write_dmtd(data_dir / "test.dmtd", dat.generate(4, seed=0))
            cfg = replace(cfg, dataset=str(data_dir))
        else:  # 8x8 images for a 16x16 student and bank
            dat.gen_data(tmp_path / "small", 8, 4, seed=0, image_size=8)
            cfg = replace(cfg, dataset=str(tmp_path / "small"))
        with pytest.raises((RuntimeError, ValueError, OSError)):
            train(cfg)
        assert not out.exists()

    def test_save_interval_writes_intermediate_checkpoints(
        self, micro_bank, micro_data, tmp_path
    ):
        cfg = micro_config(
            micro_bank, micro_data, tmp_path / "run", epochs=3, save_interval=2
        )
        train(cfg)
        assert (tmp_path / "run" / "ckpt_ep0002.dmtc").exists()
        assert (tmp_path / "run" / "student_final.dmtc").exists()

    def test_hard_exit_leaves_exactly_the_finished_epochs(self, micro_bank, micro_data, tmp_path):
        """A process that dies at the first step of epoch 5 of 8, without
        unwinding, leaves the first 4 metrics lines and checkpoints of a clean
        run, byte for byte, and no temporary file."""
        cfg = micro_config(micro_bank, micro_data, "run", epochs=8, save_interval=2)
        src = str(Path(trainer.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))

        def run(side, exit_at, returncode):
            cwd = tmp_path / side
            cwd.mkdir()
            (cwd / "run.cfg").write_text(serialize_config(cfg))
            proc = subprocess.run(
                [sys.executable, "-c", EXIT_AT_STEP, "run.cfg", str(exit_at)],
                cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == returncode, proc.stderr
            return cwd / "run"

        clean = run("clean", 0, 0)
        killed = run("killed", 4 * 2 + 1, 3)  # 2 steps per epoch
        lines = (clean / "metrics.ndjson").read_bytes().splitlines(keepends=True)
        assert len(lines) == 8
        assert (killed / "metrics.ndjson").read_bytes() == b"".join(lines[:4])
        kept = ["ckpt_ep0002.dmtc", "ckpt_ep0004.dmtc"]
        assert sorted(q.name for q in killed.iterdir()) == kept + ["metrics.ndjson"]
        for name in kept:
            assert (killed / name).read_bytes() == (clean / name).read_bytes()


class TestTrainStateIO:
    def test_round_trip_and_resave_identical(self, micro_bank, micro_data, tmp_path):
        cfg = micro_config(micro_bank, micro_data, tmp_path / "run")
        result = train(cfg)
        loaded_cfg, student, adapter, state, step = load_train_checkpoint(
            result.checkpoint_path
        )
        assert loaded_cfg == cfg
        assert step == cfg.epochs * 2  # 64 samples / batch 32
        resaved = tmp_path / "resaved.dmtc"
        save_train_checkpoint(resaved, loaded_cfg, student, adapter, state, step)
        assert resaved.read_bytes() == Path(result.checkpoint_path).read_bytes()

    def test_missing_config_is_metadata_error(self, tmp_path):
        p = tmp_path / "s.dmtc"
        ckpt.save_checkpoint(p, {"w": np.zeros(3)}, meta={"kind": "train_state"})
        with pytest.raises(ckpt.MetadataError, match="config"):
            load_train_checkpoint(p)

    def test_missing_tensor_is_metadata_error(self, micro_bank, micro_data, tmp_path):
        p = saved_fresh_state(micro_bank, micro_data, tmp_path)
        tensors, meta = ckpt.load_checkpoint(p)
        del tensors["adapter.bias"]
        ckpt.save_checkpoint(p, tensors, meta=meta)
        with pytest.raises(ckpt.MetadataError, match="adapter.bias"):
            load_train_checkpoint(p)

    def test_tensor_names_and_order(self, micro_bank, micro_data, tmp_path):
        p = saved_fresh_state(micro_bank, micro_data, tmp_path, ViTConfig(16, 4, 1, 16, 2))
        encoder = ["patch_w", "patch_b", "cls_token", "pos_embed"]
        encoder += [f"b0.{n}" for n in ("ln1_g", "ln1_b", "qkv_w", "qkv_b", "proj_w", "proj_b")]
        encoder += [f"b0.{n}" for n in ("ln2_g", "ln2_b", "fc1_w", "fc1_b", "fc2_w", "fc2_b")]
        encoder += ["ln_f_g", "ln_f_b"]
        trained = encoder + ["adapter.weight", "adapter.bias"]
        expected = [f"student.{n}" for n in encoder] + ["adapter.weight", "adapter.bias"]
        expected += [f"opt.{k}.{n}" for n in trained for k in ("m", "v")]
        assert list(ckpt.load_checkpoint(p)[0]) == expected

    @pytest.mark.parametrize(
        "key, bad, match",
        [
            ("opt.m.patch_w", lambda a: np.full_like(a, np.nan), "patch_w"),
            ("opt.v.b0.fc1_b", lambda a: a - 1.0, "b0.fc1_b"),
            ("opt.m.patch_b", lambda a: np.zeros((3, 3)), "patch_b"),
            ("adapter.bias", lambda a: a[:1], "adapter.bias"),
            ("adapter.weight", lambda a: a[:5], "adapter.weight"),
            ("step", lambda x: -5, "step"),
            ("opt_t", lambda x: -1, "opt_t"),
            ("opt_t", lambda x: 2.7, "opt_t"),
        ],
        ids=["nan-m", "negative-v", "moment-shape", "bias-shape", "weight-rows", "step", "opt_t", "opt_t-float"],
    )
    def test_unsound_resume_state_is_metadata_error(self, micro_bank, micro_data, tmp_path, key, bad, match):
        p = saved_fresh_state(micro_bank, micro_data, tmp_path)
        tensors, meta = ckpt.load_checkpoint(p)
        target = tensors if key in tensors else meta
        target[key] = bad(target[key])
        ckpt.save_checkpoint(p, tensors, meta=meta)
        with pytest.raises(ckpt.MetadataError, match=match):
            load_train_checkpoint(p)

    def test_config_echo_reparses_equal(self, micro_bank, micro_data, tmp_path):
        cfg = micro_config(micro_bank, micro_data, tmp_path / "run")
        assert parse_config(serialize_config(cfg)) == cfg


class TestLinearProbe:
    def test_injected_one_hot_features_reach_perfect_accuracy(self):
        k = 4
        labels = np.tile(np.arange(k), 32)
        feats = np.eye(k)[labels]
        acc = fit_linear_head(feats, labels, feats, labels, k, iters=50)
        assert acc == 1.0

    def test_shuffled_labels_give_chance_accuracy(self):
        rng = np.random.default_rng(0)
        big_train = dat.generate(1024, seed=3)
        big_test = dat.generate(512, seed=4)
        shuffled_train = dat.Dataset(
            images=big_train.images, labels=rng.permutation(big_train.labels)
        )
        shuffled_test = dat.Dataset(
            images=big_test.images, labels=rng.permutation(big_test.labels)
        )
        # labels on both splits carry no signal; accuracy must sit at chance
        enc = ViTEncoder(STUDENT_CFG, seed=0)
        acc = linear_probe(enc, shuffled_train, shuffled_test, probe_epochs=100)
        sigma = np.sqrt(0.25 * 0.75 / 512)
        assert abs(acc - 0.25) <= 3 * sigma + 1e-9

    @pytest.mark.parametrize(
        "seed, n, d, k, iters, acc_hex",
        [
            (0, 60, 5, 3, 1, "0x1.6666666666666p-1"),
            (1, 80, 8, 4, 200, "0x1.6000000000000p-1"),
            (2, 50, 3, 2, 37, "0x1.b851eb851eb85p-1"),
            (3, 97, 6, 5, 200, "0x1.8699127966ed8p-1"),
        ],
    )
    def test_golden_accuracy_bits(self, seed, n, d, k, iters, acc_hex):
        # noisy linear labels, so the held-out accuracy is neither 0 nor 1
        rng = np.random.default_rng(seed)
        w = rng.normal(size=(d, k))
        x = rng.normal(size=(2 * n, d))
        y = (x @ w + rng.normal(size=(2 * n, k))).argmax(axis=1)
        acc = fit_linear_head(x[:n], y[:n], x[n:], y[n:], k, iters=iters)
        assert acc.hex() == acc_hex

    @pytest.mark.parametrize("iters", [0, -3])
    def test_fewer_than_one_iteration_rejected(self, iters):
        labels = np.tile(np.arange(2), 4)
        feats = np.eye(2)[labels]
        with pytest.raises(ValueError, match="iterations"):
            fit_linear_head(feats, labels, feats, labels, 2, iters=iters)

    def test_single_class_rejected(self):
        feats = np.random.default_rng(0).normal(size=(10, 3))
        labels = np.zeros(10)
        with pytest.raises(ValueError, match="two classes"):
            fit_linear_head(feats, labels, feats, labels, 4)

    def test_probe_leaves_encoder_untouched(self, micro_data):
        train_ds, test_ds = dat.load_splits(micro_data)
        enc = ViTEncoder(STUDENT_CFG, seed=5)
        before = {n: t.array.copy() for n, t in enc.named_tensors()}
        linear_probe(enc, train_ds, test_ds, probe_epochs=20)
        for n, t in enc.named_tensors():
            np.testing.assert_array_equal(t.array, before[n])

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_empty_split_rejected_naming_it(self, micro_data, split):
        splits = dict(zip(("train", "test"), dat.load_splits(micro_data)))
        splits[split] = dat.Dataset(splits[split].images[:0], splits[split].labels[:0])
        with pytest.raises(ValueError, match=f"the {split} split has no samples"):
            linear_probe(ViTEncoder(STUDENT_CFG, seed=5), splits["train"], splits["test"])


class TestSweeps:
    def test_teacher_sweep_table_shape(self, micro_bank, micro_data, tmp_path):
        cfg = micro_config(
            micro_bank, micro_data, tmp_path / "sw", epochs=1,
            schedule=ScheduleSettings(base_lr=1e-3, warmup_epochs=0),
        )
        subsets = [(0,), (1,), (0, 1), (0, 1, 2)]
        table = sweep_teacher_combinations(cfg, subsets, probe_epochs=20)
        assert len(table.rows) == len(subsets)
        full_row = table.rows[-1]
        assert "baseline" in full_row.note
        assert table.rows[0].delta_pp is None  # singletons carry no delta
        assert table.rows[2].delta_pp is not None
        text = table.render()
        assert "rnd0+rnd1+rnd2" in text
        assert "(" in text and ")" in text  # delta formatting present
        assert "toy benchmark" in text

    def test_singleton_subset_reproduces_single_run_bit_exact(
        self, micro_bank, micro_data, tmp_path
    ):
        cfg = micro_config(
            micro_bank, micro_data, tmp_path / "sw", epochs=1,
            schedule=ScheduleSettings(base_lr=1e-3, warmup_epochs=0),
        )
        sweep_teacher_combinations(cfg, [(1,)], probe_epochs=20)
        sweep_ckpt = Path(cfg.out_dir) / "teachers_1" / "student_final.dmtc"
        direct_cfg = replace(
            cfg,
            teacher_paths=(cfg.teacher_paths[1],),
            out_dir=str(tmp_path / "direct"),
        )
        direct = train(direct_cfg)
        from fusekd.checkpoint import load_checkpoint

        ta, _ = load_checkpoint(sweep_ckpt)
        tb, _ = load_checkpoint(direct.checkpoint_path)
        for n in ta:
            np.testing.assert_array_equal(ta[n], tb[n])

    def test_loss_mode_sweep_covers_all_modes(self, micro_bank, micro_data, tmp_path):
        cfg = micro_config(
            micro_bank, micro_data, tmp_path / "sl", epochs=1,
            schedule=ScheduleSettings(base_lr=1e-3, warmup_epochs=0),
        )
        table = sweep_loss_modes(cfg, probe_epochs=20)
        assert [r.label for r in table.rows] == ["tfd", "sfd", "tfd+sfd", "mse"]
        combined = table.rows[2]
        assert combined.delta_pp is not None  # reported vs best single loss
        assert "baseline" in combined.note

    @pytest.mark.parametrize(
        "sweep",
        [
            lambda cfg: sweep_teacher_combinations(cfg, [(0,)], probe_epochs=0),
            lambda cfg: sweep_loss_modes(cfg, probe_epochs=-3),
        ],
        ids=["teachers", "losses"],
    )
    def test_probe_epochs_below_one_rejected_before_any_run(self, micro_bank, tmp_path, sweep):
        # the dataset does not exist: the probe check must come before loading it
        cfg = micro_config(micro_bank, tmp_path / "no-data", tmp_path / "sw")
        with pytest.raises(ValueError, match="probe_epochs"):
            sweep(cfg)
        assert not (tmp_path / "sw").exists()

    def test_empty_subsets_rejected(self, micro_bank, micro_data, tmp_path):
        cfg = micro_config(micro_bank, micro_data, tmp_path / "sw")
        with pytest.raises(ValueError):
            sweep_teacher_combinations(cfg, [])
        with pytest.raises(ValueError):
            sweep_teacher_combinations(cfg, [()])
