"""Acceptance gate.

Each test implements one acceptance criterion at its stated tolerance and
prints a single PASS/FAIL line (run with `pytest -s` to see them live).
Heavy artifacts (reference dataset, 40-epoch teacher bank, three 50-epoch
reference runs) are session fixtures shared with the unit suites.
"""

import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import oracles
from fusekd import cli
from fusekd import data as dat
from fusekd import functional as F
from fusekd import fusion
from fusekd import optim
from fusekd import teachers as tch
from fusekd import tensor as T
from fusekd import trainer
from fusekd.augment import AugmentConfig
from fusekd.config import ScheduleSettings, TrainConfig, serialize_config
from fusekd.fusion import Adapter
from fusekd.tensor import Tensor, run_grad_check
from fusekd.vit import ViTConfig, ViTEncoder, param_count


def report(name: str, ok: bool, detail: str = "") -> bool:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    return ok


REF_STUDENT = ViTConfig(image_size=16, patch_size=4, depth=2, embed_dim=16, num_heads=2)
REF_SCHEDULE = ScheduleSettings(base_lr=1.5e-3, warmup_epochs=5)


def reference_config(data_dir, teacher_paths, out_dir, seed) -> TrainConfig:
    return TrainConfig(
        student=REF_STUDENT,
        teacher_paths=tuple(teacher_paths),
        dataset=str(data_dir),
        out_dir=str(out_dir),
        epochs=50,
        batch_size=64,
        schedule=REF_SCHEDULE,
        augment=AugmentConfig(),
        loss_mode="tfd+sfd",
        seed=seed,
    )


def determinism_config_file(ref_data_dir, teacher_paths, work_dir):
    """The seed-0 reference config, written where the determinism test reads it."""
    cfg = reference_config(ref_data_dir, teacher_paths, work_dir / "determinism", seed=0)
    cfg_path = work_dir / "determinism.cfg"
    cfg_path.write_text(serialize_config(cfg))
    return cfg, cfg_path


def cli_distill_bytes(cfg_path, out_dir) -> tuple[bytes, bytes]:
    """Run ``fusekd distill`` on ``cfg_path`` at seed 0; (checkpoint, metrics) bytes."""
    assert cli.main(["distill", "--config", str(cfg_path), "--seed", "0"]) == 0
    return (out_dir / "student_final.dmtc").read_bytes(), (out_dir / "metrics.ndjson").read_bytes()


@pytest.fixture(scope="session")
def ref_runs(ref_data_dir, teacher_paths, work_dir):
    """Three 50-epoch reference runs (seeds 0,1,2) plus probe accuracies.

    Seed 0 runs through ``fusekd distill`` with the determinism test's config
    file and out_dir, and keeps its checkpoint and metrics bytes for that test.
    """
    train_ds, test_ds = dat.load_splits(ref_data_dir)
    bank_digest_before = tch.bank_digest(tch.load_bank(teacher_paths))
    t0 = time.perf_counter()
    runs = {}
    for seed in (0, 1, 2):
        if seed == 0:
            cfg, cfg_path = determinism_config_file(ref_data_dir, teacher_paths, work_dir)
            out_dir = Path(cfg.out_dir)
            cli_bytes = cli_distill_bytes(cfg_path, out_dir)
            metrics = cli_bytes[1]
            checkpoint_path = out_dir / "student_final.dmtc"
        else:
            cfg = reference_config(ref_data_dir, teacher_paths, work_dir / f"ref_seed{seed}", seed)
            result = trainer.train(cfg)
            metrics = result.metrics_path.read_bytes()
            checkpoint_path = result.checkpoint_path
        # JSON floats round-trip exactly, so these are the run's own losses
        losses = [json.loads(line)["loss_total"] for line in metrics.splitlines()]
        _, student, _, _, _ = trainer.load_train_checkpoint(checkpoint_path)
        distilled_acc = trainer.linear_probe(student, train_ds, test_ds)
        random_student = ViTEncoder(cfg.student, seed=trainer.derive_seed(seed, 1))
        random_acc = trainer.linear_probe(random_student, train_ds, test_ds)
        runs[seed] = {
            "config": cfg,
            "epoch1_loss": losses[0],
            "final_loss": losses[-1],
            "distilled_acc": distilled_acc,
            "random_acc": random_acc,
        }
    elapsed = time.perf_counter() - t0
    bank_digest_after = tch.bank_digest(tch.load_bank(teacher_paths))
    return {
        "runs": runs,
        "elapsed": elapsed,
        "bank_digest_unchanged": bank_digest_before == bank_digest_after,
        "seed0_cli_bytes": cli_bytes,
    }


class TestGradientSuite:
    def test_end_to_end_gradient_check_tiny_config(self):
        """Combined loss through student encoder + adapter, 16x16 input,
        patch 4, student width 8 -> teacher width 16, depth 2; tol 1e-4."""
        t0 = time.perf_counter()
        rng = np.random.default_rng(0)
        cfg = ViTConfig(image_size=16, patch_size=4, depth=2, embed_dim=8, num_heads=2)
        enc = ViTEncoder(cfg, seed=0)
        adapter = Adapter.create(8, 16, seed=1)
        img = rng.random((1, 3, 16, 16))
        target_tokens = rng.normal(size=(1, cfg.num_patches + 1, 16))
        target_map = fusion.tokens_to_feature_map(target_tokens, cfg.grid, cfg.grid)

        def loss():
            proj = adapter.project(enc.encode_batch(img))
            smap = fusion.student_feature_map(proj, cfg.grid, cfg.grid)
            return T.add(
                fusion.token_fusion_loss(proj, target_tokens),
                fusion.spatial_fusion_loss(smap, target_map),
            )

        params = enc.parameters() + adapter.parameters()
        rep = run_grad_check(loss, params, tol=1e-4)
        elapsed = time.perf_counter() - t0
        ok = rep.passed and elapsed < 60.0
        assert report(
            "gradient-suite",
            ok,
            f"max_rel_err {rep.max_rel_error:.2e} over {sum(p.size for p in params)} params, {elapsed:.1f}s",
        )


class TestOracleEquivalence:
    def test_losses_fusion_and_adamw_match_naive_oracles(self):
        """>=100 random small instances per operation, 1e-10 relative."""
        t0 = time.perf_counter()
        rng = np.random.default_rng(1)
        worst = 0.0

        def rel(a, b):
            return abs(a - b) / max(abs(a), abs(b), 1e-30)

        for _ in range(100):
            n1 = int(rng.integers(2, 7))
            d = int(rng.integers(2, 7))
            g = int(rng.integers(1, 4))
            s = rng.normal(scale=2.0, size=(n1, d))
            t = rng.normal(scale=2.0, size=(n1, d))
            worst = max(worst, rel(
                fusion.token_fusion_loss(Tensor(s), t).item(),
                oracles.tfd_naive(s.tolist(), t.tolist()),
            ))
            sm = rng.normal(scale=2.0, size=(d, g, g))
            tm = rng.normal(scale=2.0, size=(d, g, g))
            worst = max(worst, rel(
                fusion.spatial_fusion_loss(Tensor(sm), tm).item(),
                oracles.sfd_naive(sm.tolist(), tm.tolist()),
            ))
            worst = max(worst, rel(
                fusion.mse_loss_variant(Tensor(s), t, Tensor(sm), tm).item(),
                oracles.mse_token_naive(s.tolist(), t.tolist())
                + oracles.mse_spatial_naive(sm.tolist(), tm.tolist()),
            ))
            mats = [rng.normal(size=(3, 3)) for _ in range(int(rng.integers(1, 5)))]
            ordered = sorted(mats, key=lambda m: m.tobytes())
            got = fusion.fuse_tokens(mats)
            expect = np.array(oracles.fuse_naive([m.tolist() for m in ordered]))
            worst = max(worst, float(np.max(np.abs(got - expect))))

        for _ in range(100):
            theta0 = float(rng.normal())
            grads = [float(x) for x in rng.normal(size=10)]
            lr = float(rng.uniform(1e-4, 1e-1))
            wd = float(rng.choice([0.0, 0.05]))
            expect = oracles.adamw_trajectory_naive(theta0, grads, [lr] * 10, wd=wd)
            p = Tensor(np.array([theta0]), parameter=True, name="p")
            state = optim.init_adamw([p], weight_decay=wd)
            for gval, e in zip(grads, expect):
                optim.adamw_step([p], [np.array([gval])], state, lr)
                worst = max(worst, rel(float(p.array[0]), e))

        elapsed = time.perf_counter() - t0
        ok = worst < 1e-10 and elapsed < 30.0
        assert report(
            "oracle-equivalence", ok, f"worst rel err {worst:.2e}, {elapsed:.1f}s"
        )


class TestClosedFormSpotValues:
    def test_softmax_and_kl_spot_values(self):
        sm = F.softmax(np.array([1.0, 0.0]))
        e = np.e
        p = np.array([e / (e + 1.0), 1.0 / (e + 1.0)])
        kl = F.kl_divergence(p, p[::-1].copy())
        ok = (
            abs(sm[0] - 0.73106) < 1e-5
            and abs(sm[1] - 0.26894) < 1e-5
            and abs(kl - 0.46212) < 1e-5
            and abs(kl - (e - 1.0) / (e + 1.0)) < 1e-9
        )
        assert report(
            "closed-form-spot-values", ok, f"softmax {sm.round(6)}, kl {kl:.6f}"
        )


class TestAlgebraicInvariants:
    def test_teacher_permutation_invariance(self, rng):
        teachers = [rng.normal(size=(5, 4)) for _ in range(3)]
        s = Tensor(rng.normal(size=(5, 4)))
        smap = fusion.student_feature_map(s, 2, 2)

        def total(order):
            toks = fusion.fuse_tokens([teachers[i] for i in order])
            fmap = fusion.fuse_tokens(
                [fusion.tokens_to_feature_map(teachers[i], 2, 2) for i in order]
            )
            return fusion.total_loss(s, toks, smap, fmap).item()

        base = total([0, 1, 2])
        ok = all(total(o) == base for o in ([2, 1, 0], [1, 0, 2], [1, 2, 0], [2, 0, 1], [0, 2, 1]))
        assert report("invariant-teacher-permutation", ok, "bit-exact over all 3! orders")

    def test_fuse_reshape_commute(self, rng):
        tokens = [rng.normal(size=(17, 6)) for _ in range(3)]
        a = fusion.tokens_to_feature_map(fusion.fuse_tokens(tokens), 4, 4)
        b = fusion.fuse_tokens([fusion.tokens_to_feature_map(t, 4, 4) for t in tokens])
        ok = np.array_equal(a, b)
        assert report("invariant-fuse-reshape-commute", ok, "zero difference")

    def test_target_shift_invariance(self, rng):
        s = Tensor(rng.normal(size=(6, 5)))
        t = rng.normal(size=(6, 5))
        base = fusion.token_fusion_loss(s, t).item()
        shifted = fusion.token_fusion_loss(s, t + 100.0).item()
        ok = abs(base - shifted) < 1e-9
        assert report(
            "invariant-softmax-shift", ok, f"|delta| {abs(base - shifted):.2e} at c=100"
        )

    def test_self_distillation_fixed_point(self):
        teacher = tch.make_toy_teacher(0, "random-frozen")
        bank = tch.TeacherBank([teacher], ["t"])
        d = teacher.config.embed_dim
        student = ViTEncoder.from_arrays(
            teacher.config, {n: t.array for n, t in teacher.named_tensors()}
        )
        adapter = Adapter.from_arrays(np.eye(d), np.zeros(d))
        params = student.parameters() + adapter.parameters()
        state = optim.init_adamw(params, weight_decay=0.0)
        images = dat.generate(8, seed=1).float_images()
        quiet = AugmentConfig(brightness=0.0, contrast=0.0, saturation=0.0)
        before = {n: t.array.copy() for n, t in student.named_tensors()}
        worst_loss = 0.0
        for step in range(10):
            seeds = [trainer.sample_seed(777 + step, i) for i in range(8)]
            losses = trainer.distill_step(
                images, seeds, quiet, bank, student, adapter, state, 1.5e-4
            )
            worst_loss = max(worst_loss, abs(losses.total))
        drift = max(
            float(np.max(np.abs(t.array - before[n])))
            for n, t in student.named_tensors()
        )
        ok = worst_loss < 1e-10 and drift < 1e-12
        assert report(
            "invariant-self-distillation-fixed-point",
            ok,
            f"max loss {worst_loss:.1e}, max drift {drift:.1e} over 10 steps",
        )

    @pytest.mark.slow
    def test_teachers_hash_identical_across_training(self, ref_runs):
        ok = ref_runs["bank_digest_unchanged"]
        assert report("invariant-teacher-freezing", ok, "sha256 of all weights unchanged")


class TestParamCountLabels:
    # quoted sizes from the standard ViT family table
    CASES = [
        ("ViT-T", ViTConfig(224, 16, 12, 192, 3), 5e6),
        ("ViT-S", ViTConfig(224, 16, 12, 384, 6), 22e6),
        ("ViT-B", ViTConfig(224, 16, 12, 768, 12), 86e6),
    ]

    @pytest.mark.parametrize("name,cfg,label", CASES, ids=[c[0] for c in CASES])
    def test_param_count_within_3pct_of_label(self, name, cfg, label):
        count = param_count(cfg)
        frac = abs(count - label) / label
        ok = frac < 0.03
        report(f"param-count-{name}", ok, f"{count:,} vs {int(label):,} ({100 * frac:.1f}%)")
        # Known discrepancy for ViT-T: the quoted "5M" is a truncation of the
        # real ~5.5M backbone count, so a faithful count cannot sit within 3%
        # of it under any counting convention. The check stays as stated and
        # this case is expected to fail.
        assert ok, f"{name}: count {count:,} is {100 * frac:.1f}% from label {int(label):,}"


class TestDeterminism:
    @pytest.mark.slow
    def test_two_cli_distill_runs_byte_identical(self, ref_runs, ref_data_dir, teacher_paths, work_dir):
        # the first run is ref_runs' seed 0: same command, config file and out_dir
        first_ckpt, first_metrics = ref_runs["seed0_cli_bytes"]
        cfg, cfg_path = determinism_config_file(ref_data_dir, teacher_paths, work_dir)
        t0 = time.perf_counter()
        second_ckpt, second_metrics = cli_distill_bytes(cfg_path, Path(cfg.out_dir))
        ok = first_ckpt == second_ckpt and first_metrics == second_metrics
        assert report(
            "determinism",
            ok,
            f"checkpoint {len(first_ckpt)} bytes + metrics {len(first_metrics)} bytes identical, "
            f"{time.perf_counter() - t0:.0f}s for the second run",
        )


class TestToyDistillationRegression:
    @pytest.mark.slow
    def test_loss_halves_and_probe_beats_random_init(self, ref_runs):
        runs = ref_runs["runs"]
        halved = all(r["final_loss"] < 0.5 * r["epoch1_loss"] for r in runs.values())
        mean_distilled = float(np.mean([r["distilled_acc"] for r in runs.values()]))
        mean_random = float(np.mean([r["random_acc"] for r in runs.values()]))
        in_budget = ref_runs["elapsed"] < 15 * 60
        ok = halved and mean_distilled >= mean_random and in_budget
        ratios = ", ".join(
            f"seed{s}: {r['final_loss'] / r['epoch1_loss']:.3f}" for s, r in runs.items()
        )
        assert report(
            "toy-distillation-regression",
            ok,
            f"loss ratios [{ratios}]; probe distilled {mean_distilled:.4f} vs "
            f"random-init {mean_random:.4f}; {ref_runs['elapsed']:.0f}s",
        )


@pytest.fixture(scope="session")
def sweep_config(ref_data_dir, teacher_paths, work_dir):
    # reduced budget: the criterion checks the harness and table shape,
    # not reference-scale numbers
    return TrainConfig(
        student=REF_STUDENT,
        teacher_paths=tuple(teacher_paths),
        dataset=str(ref_data_dir),
        out_dir=str(work_dir / "sweeps"),
        epochs=8,
        batch_size=64,
        schedule=ScheduleSettings(base_lr=1.5e-3, warmup_epochs=2),
        augment=AugmentConfig(),
        seed=0,
    )


class TestAblationHarnessEcho:
    @pytest.mark.slow
    def test_teacher_combination_sweep_table(self, sweep_config):
        subsets = [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]
        table = trainer.sweep_teacher_combinations(sweep_config, subsets, probe_epochs=100)
        text = table.render()
        print(text)
        full_row = next(r for r in table.rows if "baseline" in r.note)
        multi_rows = [r for r in table.rows if r.delta_pp is not None]
        ok = (
            len(table.rows) == len(subsets)
            and len(multi_rows) == 4  # every multi-teacher row carries a delta
            and "+" in text
        )
        assert report(
            "ablation-teacher-sweep",
            ok,
            f"{len(table.rows)} rows; all-teachers delta {full_row.delta_pp:+.1f}pp vs best single",
        )

    @pytest.mark.slow
    def test_loss_mode_sweep_table(self, sweep_config):
        cfg = replace(sweep_config, out_dir=str(Path(sweep_config.out_dir) / "losses"))
        table = trainer.sweep_loss_modes(cfg, probe_epochs=100)
        text = table.render()
        print(text)
        by_label = {r.label: r for r in table.rows}
        ok = list(by_label) == ["tfd", "sfd", "tfd+sfd", "mse"] and (
            by_label["tfd+sfd"].delta_pp is not None
        )
        combined = by_label["tfd+sfd"].probe_accuracy
        best_single = max(by_label["tfd"].probe_accuracy, by_label["sfd"].probe_accuracy)
        # directional claim is REPORTED, not asserted: margins sit inside
        # toy-scale noise
        direction = "holds" if combined >= best_single else "does not hold"
        report(
            "ablation-loss-sweep",
            ok,
            f"combined {100 * combined:.1f}% vs best single {100 * best_single:.1f}% "
            f"(directional claim {direction}; reported only)",
        )
        assert ok
