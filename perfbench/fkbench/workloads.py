"""Set-up, the timed workloads, their output checks and the end-to-end metrics.

Every workload is a closed loop in one process with one compute thread: the
next unit of work starts only when the previous one has returned. A unit is
one whole training job, so every unit of a seed must write the same bytes:

- ``distill``: ``trainer.train`` at the reference shapes (2048 gratings,
  B=64, depth-2 width-16 student, three frozen depth-1 width-32 teachers,
  ``tfd+sfd``, a checkpoint every epoch);
- ``sweep``: ``fusekd sweep-losses`` through ``cli.main``, four one-epoch
  runs each followed by its linear probe;
- ``teacher_train``: ``teachers.train_masked_reconstruction`` at the
  reference teacher shape (width 32, MLP hidden 128, B=64), plus saving the
  teacher.

fusekd is driven through its public functions only. Wrappers that the
benchmark installs around a few of them (``Hooks``) take the step clock and
capture what the checks need; the layer tracing of ``layers`` is installed
only in traced units.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from fusekd import cli, data, optim, teachers, trainer
from fusekd.config import ScheduleSettings, TrainConfig, serialize_config
from fusekd.vit import ViTConfig

from . import layers, machine
from .spans import Patcher, SpanRecorder

# The teacher bank is part of the reference configuration, so its init and
# training draws do not follow --seed (only the images it trains on do):
# with seed-drawn teachers final_loss spread ~12% across seeds, with a fixed
# bank seed ~2.5%.
BANK_SEED = 0
STUDENT = ViTConfig(image_size=16, patch_size=4, depth=2, embed_dim=16, num_heads=2)
TEACHER = teachers.DEFAULT_TEACHER_CONFIG
BASE_LR = 0.0015
SWEEP_MODES = ("tfd", "sfd", "tfd+sfd", "mse")

END_TO_END_UNITS = {
    "setup_s": "s",
    "samples_per_s": "1/s",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "final_loss": "loss",
    "probe_acc": "frac",
}


@dataclass(frozen=True)
class Sizes:
    """Input sizes and repetitions. ``REFERENCE`` is what the benchmark measures."""

    n_train: int = 2048
    n_test: int = 512
    batch_size: int = 64
    distill_epochs: int = 2
    sweep_epochs: int = 1
    teacher_epochs: int = 3  # one teacher_train unit
    bank_images: int = 256  # the set-up teachers train on this many images
    bank_epochs: int = 1
    probe_epochs: int = 200
    setup_reps: int = 3
    import_reps: int = 3


REFERENCE = Sizes()
SMOKE = Sizes(
    n_train=128, n_test=64, batch_size=32, teacher_epochs=2, bank_images=64,
    probe_epochs=20, setup_reps=1, import_reps=1,
)


# ------------------------------------------------------------------ set-up


@dataclass
class Inputs:
    train_ds: data.Dataset
    test_ds: data.Dataset
    teacher_paths: tuple[str, ...]  # relative to the work directory
    bank_digest: str | None


def build_inputs(seed: int, sizes: Sizes, with_bank: bool) -> Inputs:
    """Dataset generation, DMTD write and read, teacher bank build, save and load.

    The bank's teachers train on the first ``bank_images`` images of the
    run's dataset with ``BANK_SEED``.

    Runs in the work directory with relative paths, so the config text echoed
    into checkpoints, and with it their bytes, does not depend on where the
    checkout lives.
    """
    data.gen_data("data", sizes.n_train, sizes.n_test, seed)
    train_ds, test_ds = data.load_splits("data")
    if not with_bank:
        return Inputs(train_ds, test_ds, (), None)
    images = train_ds.float_images()[: sizes.bank_images]
    Path("teachers").mkdir(exist_ok=True)
    paths = []
    for flavor in teachers.FLAVORS:
        label = teachers.FLAVOR_LABELS[flavor]
        encoder = teachers.make_toy_teacher(
            BANK_SEED, flavor, images=images, config=TEACHER,
            epochs=sizes.bank_epochs, batch_size=sizes.batch_size,
        )
        path = f"teachers/{label}.dmtc"
        teachers.save_teacher(encoder, path, label=label)
        paths.append(path)
    bank = teachers.load_bank(paths)
    return Inputs(train_ds, test_ds, tuple(paths), teachers.bank_digest(bank))


def time_imports(root: Path, reps: int) -> float:
    """Median seconds for a fresh interpreter to import what the workloads use."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    code = "import numpy, scipy.special, fusekd.cli, fusekd.trainer, fusekd.teachers"
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=root, check=True, timeout=120)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


# ------------------------------------------------------------------- hooks


class Hooks:
    """Always-installed wrappers: the step clock and what the checks need.

    A step lasts from the previous optimizer update of the same training run
    (or the run's start) to the end of its own update, so view building,
    teacher forwards, epoch-end metric lines and checkpoint writes all land
    in some step.
    """

    def __init__(self, recorder: SpanRecorder | None = None):
        self.recorder = recorder
        self.timing = False
        self.updates = 0
        self.step_seconds: list[float] = []
        self.losses: list[float] = []
        self.saved: dict[str, dict[str, np.ndarray]] = {}
        self.results: list[trainer.TrainResult] = []
        self.table: trainer.SweepTable | None = None
        self._mark = 0.0

    def begin_run(self) -> None:
        self._mark = time.perf_counter()

    def install(self, patch: Patcher) -> None:
        adamw_step = optim.adamw_step
        train = trainer.train
        distill_step = trainer.distill_step
        save_train_checkpoint = trainer.save_train_checkpoint
        sweep_loss_modes = trainer.sweep_loss_modes

        def timed_adamw_step(*args, **kwargs):
            out = adamw_step(*args, **kwargs)
            if self.timing:
                now = time.perf_counter()
                self.step_seconds.append(now - self._mark)
                self._mark = now
                self.updates += 1
                if self.recorder is not None:
                    self.recorder.step += 1
            return out

        def run_train(*args, **kwargs):
            self.begin_run()
            result = train(*args, **kwargs)
            self.results.append(result)
            return result

        def checked_distill_step(*args, **kwargs):
            losses = distill_step(*args, **kwargs)
            self.losses.append(losses.total)
            return losses

        def capturing_save(path, cfg, student, adapter, opt_state, step):
            # tensor arrays are read-only and parameters rebind on update,
            # so holding references keeps the saved values
            self.saved[str(path)] = student_arrays(student, adapter)
            return save_train_checkpoint(path, cfg, student, adapter, opt_state, step)

        def capturing_sweep(*args, **kwargs):
            self.table = sweep_loss_modes(*args, **kwargs)
            return self.table

        patch.replace(optim, "adamw_step", timed_adamw_step)
        patch.replace(trainer, "train", run_train)
        patch.replace(trainer, "distill_step", checked_distill_step)
        patch.replace(trainer, "save_train_checkpoint", capturing_save)
        patch.replace(trainer, "sweep_loss_modes", capturing_sweep)


def student_arrays(student, adapter) -> dict[str, np.ndarray]:
    out = {f"student.{name}": t.array for name, t in student.named_tensors()}
    out["adapter.weight"] = adapter.weight.array
    out["adapter.bias"] = adapter.bias.array
    return out


# --------------------------------------------------------------- workloads


@dataclass
class UnitResult:
    final_loss: float
    digests: dict[str, str]  # artefact path -> sha256 of its bytes


Check = tuple[str, bool, str]


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def digest_files(paths) -> dict[str, str]:
    return {str(p): sha256(p) for p in paths}


def train_config(inputs: Inputs, seed: int, sizes: Sizes, epochs: int, out_dir: str) -> TrainConfig:
    return TrainConfig(
        student=STUDENT,
        teacher_paths=inputs.teacher_paths,
        dataset="data",
        out_dir=out_dir,
        epochs=epochs,
        batch_size=sizes.batch_size,
        schedule=ScheduleSettings(base_lr=BASE_LR, warmup_epochs=epochs // 2),
        seed=seed,
        save_interval=1,
    )


def bank_unchanged(inputs: Inputs) -> Check:
    digest = teachers.bank_digest(teachers.load_bank(list(inputs.teacher_paths)))
    return ("bank_digest_unchanged", digest == inputs.bank_digest, digest)


def checkpoints_reload(hooks: Hooks, results) -> Check:
    bad = []
    for result in results:
        _, student, adapter, _, _ = trainer.load_train_checkpoint(result.checkpoint_path)
        loaded = student_arrays(student, adapter)
        held = hooks.saved[str(result.checkpoint_path)]
        if loaded.keys() != held.keys() or not all(np.array_equal(loaded[k], held[k]) for k in held):
            bad.append(str(result.checkpoint_path))
    return ("final_checkpoint_reloads_equal", not bad, ", ".join(bad) or f"{len(results)} checked")


def finite_losses(losses: list[float], expected: int) -> Check:
    ok = len(losses) == expected and all(math.isfinite(x) for x in losses)
    return ("step_losses_finite", ok, f"{len(losses)} losses for {expected} steps")


def probe_in_range(acc: float) -> Check:
    return ("probe_acc_in_0_1", 0.0 <= acc <= 1.0, repr(acc))


class Distill:
    needs_bank = True

    def __init__(self, inputs: Inputs, seed: int, sizes: Sizes):
        self.inputs, self.sizes = inputs, sizes
        self.cfg = train_config(inputs, seed, sizes, sizes.distill_epochs, "distill")
        self.samples_per_unit = sizes.distill_epochs * sizes.n_train

    def unit(self, hooks: Hooks) -> UnitResult:
        result = trainer.train(self.cfg)
        return UnitResult(result.final_loss, digest_files([result.checkpoint_path, result.metrics_path]))

    def finish(self, hooks: Hooks) -> tuple[list[Check], float]:
        final = hooks.results[-1].checkpoint_path
        _, student, _, _, _ = trainer.load_train_checkpoint(final)
        acc = trainer.linear_probe(
            student, self.inputs.train_ds, self.inputs.test_ds, probe_epochs=self.sizes.probe_epochs
        )
        checks = [
            finite_losses(hooks.losses, hooks.updates),
            bank_unchanged(self.inputs),
            checkpoints_reload(hooks, hooks.results),
            probe_in_range(acc),
        ]
        return checks, acc


class Sweep:
    needs_bank = True

    def __init__(self, inputs: Inputs, seed: int, sizes: Sizes):
        self.inputs = inputs
        cfg = train_config(inputs, seed, sizes, sizes.sweep_epochs, "sweep")
        Path("sweep.cfg").write_text(serialize_config(cfg))
        self.argv = [
            "sweep-losses", "--config", "sweep.cfg",
            "--probe-epochs", str(sizes.probe_epochs), "--seed", str(seed),
        ]
        self.table_path = Path(cfg.out_dir) / "sweep_losses.txt"
        self.samples_per_unit = len(SWEEP_MODES) * sizes.sweep_epochs * sizes.n_train

    def unit(self, hooks: Hooks) -> UnitResult:
        with contextlib.redirect_stdout(io.StringIO()):  # the table also goes to sweep_losses.txt
            code = cli.main(self.argv)
        if code != 0:
            raise RuntimeError(f"fusekd sweep-losses exited with code {code}")
        row = {r.label: r for r in hooks.table.rows}["tfd+sfd"]
        files = [p for r in hooks.results for p in (r.checkpoint_path, r.metrics_path)]
        return UnitResult(row.final_loss, digest_files(files + [self.table_path]))

    def finish(self, hooks: Hooks) -> tuple[list[Check], float]:
        rows = hooks.table.rows
        labels = tuple(r.label for r in rows)
        rows_ok = labels == SWEEP_MODES and all(
            0.0 <= r.probe_accuracy <= 1.0 and math.isfinite(r.final_loss) for r in rows
        )
        checks = [
            finite_losses(hooks.losses, hooks.updates),
            ("sweep_has_4_rows_with_probe_acc_in_0_1", rows_ok,
             "; ".join(f"{r.label} loss={float(r.final_loss)!r} acc={r.probe_accuracy!r}" for r in rows)),
            bank_unchanged(self.inputs),
            checkpoints_reload(hooks, hooks.results),
        ]
        return checks, {r.label: r for r in rows}["tfd+sfd"].probe_accuracy


class TeacherTrain:
    needs_bank = False

    def __init__(self, inputs: Inputs, seed: int, sizes: Sizes):
        self.inputs, self.seed, self.sizes = inputs, seed, sizes
        self.images = inputs.train_ds.float_images()
        self.samples_per_unit = sizes.teacher_epochs * sizes.n_train
        Path("teacher_train").mkdir(exist_ok=True)
        self.encoder = None
        self.history: list[float] = []

    def unit(self, hooks: Hooks) -> UnitResult:
        hooks.begin_run()
        self.encoder, self.history = teachers.train_masked_reconstruction(
            self.images, TEACHER, self.seed,
            epochs=self.sizes.teacher_epochs, batch_size=self.sizes.batch_size,
        )
        ckpt_path = Path("teacher_train/teacher.dmtc")
        teachers.save_teacher(self.encoder, ckpt_path, label="toy-mim")
        metrics_path = Path("teacher_train/metrics.ndjson")
        metrics_path.write_text("".join(
            json.dumps({"epoch": i, "loss": loss}, sort_keys=True) + "\n"
            for i, loss in enumerate(self.history)
        ))
        return UnitResult(self.history[-1], digest_files([ckpt_path, metrics_path]))

    def finish(self, hooks: Hooks) -> tuple[list[Check], float]:
        acc = trainer.linear_probe(
            self.encoder, self.inputs.train_ds, self.inputs.test_ds, probe_epochs=self.sizes.probe_epochs
        )
        history = self.history
        checks = [
            # a non-finite step loss makes its epoch mean non-finite
            ("epoch_losses_finite", all(math.isfinite(x) for x in history), repr(history)),
            ("loss_falls_first_to_last_epoch", history[-1] < history[0], f"{history[0]!r} -> {history[-1]!r}"),
            probe_in_range(acc),
        ]
        return checks, acc


WORKLOADS = {"distill": Distill, "sweep": Sweep, "teacher_train": TeacherTrain}


# ------------------------------------------------------------------ runner


@dataclass
class Unit:
    wall: float
    step_seconds: list[float]
    traced: bool
    result: UnitResult


@dataclass
class Report:
    workload: str
    seed: int
    seconds: float
    trace: bool
    sizes: dict
    machine: dict = field(default_factory=dict)
    import_s: float = 0.0
    setup_rep_s: list[float] = field(default_factory=list)
    units: list[dict] = field(default_factory=list)
    checks: list[Check] = field(default_factory=list)
    metrics: dict[str, dict] = field(default_factory=dict)
    samples: int = 0
    attempted: int = 0
    failed: int = 0
    error: str | None = None

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.error is None and bool(self.checks) and all(ok for _, ok, _ in self.checks)

    def result_line(self) -> str:
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
        })


@contextlib.contextmanager
def working_directory(path: Path):
    previous = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(previous)


@contextlib.contextmanager
def tracing(rec: SpanRecorder | None, phase: str):
    if rec is None:
        yield
        return
    patch = Patcher()
    layers.install(rec, patch)
    rec.phase = phase
    try:
        yield
    finally:
        patch.restore()


def timed_units(workload, hooks: Hooks, seconds: float, rec: SpanRecorder | None, units: list[Unit]) -> None:
    """Runs whole units until the next one would end past ``seconds``.

    With a recorder, units alternate untraced and traced, and at least one
    of each runs.
    """
    start = time.perf_counter()
    while True:
        traced = rec is not None and len(units) % 2 == 1
        first = len(hooks.step_seconds)
        hooks.results.clear()
        with tracing(rec if traced else None, "timed"):
            hooks.timing = True
            began = time.perf_counter()
            try:
                result = workload.unit(hooks)
            finally:
                wall = time.perf_counter() - began
                hooks.timing = False
        units.append(Unit(wall, hooks.step_seconds[first:], traced, result))
        need_traced = rec is not None and not any(u.traced for u in units)
        elapsed = time.perf_counter() - start
        if not need_traced and elapsed + statistics.median(u.wall for u in units) > seconds:
            return


def end_to_end(report: Report, units: list[Unit], samples_per_unit: int, probe_acc: float) -> dict[str, float]:
    plain = [u for u in units if not u.traced]
    steps_ms = 1000.0 * np.asarray([s for u in plain for s in u.step_seconds])
    p50, p90 = np.percentile(steps_ms, [50, 90])
    return {
        "setup_s": report.import_s + statistics.median(report.setup_rep_s),
        "samples_per_s": samples_per_unit * len(plain) / sum(u.wall for u in plain),
        "step_ms_p50": float(p50),
        "step_ms_p90": float(p90),
        "wall_s": statistics.median(u.wall for u in plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "final_loss": float(units[-1].result.final_loss),
        "probe_acc": float(probe_acc),
    }


def run_bench(name: str, seed: int, seconds: float, trace: bool, sizes: Sizes, root: Path, work: Path) -> Report:
    """Set up, run the timed units, check the outputs; never raises for a failed unit."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    report = Report(name, seed, seconds, trace, asdict(sizes), machine=machine.describe(root))
    report.import_s = time_imports(root, sizes.import_reps)
    rec = SpanRecorder() if trace else None
    hooks = Hooks(rec)
    base = Patcher()
    units: list[Unit] = []
    cls = WORKLOADS[name]
    with working_directory(work):
        hooks.install(base)
        try:
            with tracing(rec, "setup"):
                for _ in range(sizes.setup_reps):
                    began = time.perf_counter()
                    inputs = build_inputs(seed, sizes, cls.needs_bank)
                    report.setup_rep_s.append(time.perf_counter() - began)
            workload = cls(inputs, seed, sizes)
            try:
                timed_units(workload, hooks, seconds, rec, units)
            except Exception:  # a failed step fails the run; report it, do not crash
                report.failed = 1
                raise
            report.checks, probe_acc = workload.finish(hooks)
            first = units[0].result.digests
            report.checks.append((
                "same_bytes_every_unit", all(u.result.digests == first for u in units),
                f"{len(units)} units",
            ))
            report.samples = workload.samples_per_unit * len(units)
            if trace:
                traced_steps = sum(len(u.step_seconds) for u in units if u.traced)
                values = layers.metrics(
                    rec, traced_steps,
                    [u.wall for u in units if u.traced], [u.wall for u in units if not u.traced],
                )
                units_of = layers.metric_units()
                rec.write_ndjson(work / "trace.ndjson")
            else:
                values = end_to_end(report, units, workload.samples_per_unit, probe_acc)
                units_of = END_TO_END_UNITS
            report.metrics = {k: {"value": values[k], "unit": units_of[k]} for k in units_of}
        except Exception:
            report.error = traceback.format_exc()
        finally:
            base.restore()
    report.attempted = max(1, hooks.updates + report.failed)
    report.units = [
        {"wall_s": u.wall, "steps": len(u.step_seconds), "traced": u.traced,
         "final_loss": u.result.final_loss, "digests": u.result.digests}
        for u in units
    ]
    (work / "result.json").write_text(json.dumps(asdict(report), indent=1, default=str) + "\n")
    return report


def render(report: Report, results: Path) -> list[str]:
    """Human-readable lines: environment, metrics with units, digests, checks."""
    m = report.machine
    blas = ((m["blas"] or {}).get("blas") or {}).get("name")
    lines = [
        f"workload {report.workload} seed {report.seed} seconds {report.seconds} trace {int(report.trace)}",
        f"machine nproc={m['nproc']} cpu={m['cpu_model']!r} python={m['python']} "
        f"numpy={m['numpy']} scipy={m['scipy']} blas={blas} commit={m['git_commit']}",
        "threads " + " ".join(f"{k}={v}" for k, v in m["thread_env"].items()),
    ]
    steps = sum(u["steps"] for u in report.units)
    traced = [u for u in report.units if u["traced"]]
    lines.append(
        f"units {len(report.units)} ({len(traced)} traced) steps {steps} samples {report.samples} "
        f"failed {report.failed}/{report.attempted} setup reps {len(report.setup_rep_s)}"
    )
    for name, entry in report.metrics.items():
        lines.append(f"metric {name} {entry['value']!r} {entry['unit']}")
    if report.units:
        for path, digest in report.units[-1]["digests"].items():
            lines.append(f"sha256 {digest} {path}")
    for name, ok, detail in report.checks:
        lines.append(f"check {'PASS' if ok else 'FAIL'} {name}: {detail}")
    if report.error:
        lines.append("error " + report.error.strip().splitlines()[-1])
    lines.append(f"results {results}")
    return lines
