"""Tests of the benchmark itself, on the tiny ``SMOKE`` sizes.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from fkbench import layers, workloads
from fkbench.spans import Patcher, SpanRecorder, self_times, summarize
from fusekd import fusion, teachers, trainer

PERFBENCH = Path(__file__).resolve().parents[1]
ROOT = PERFBENCH.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke(tmp_path, name, trace, seed=0):
    work = tmp_path / f"{name}-{int(trace)}"
    return workloads.run_bench(name, seed, 0.01, trace, workloads.SMOKE, ROOT, work)


def test_benchmark_json_lists_the_metrics_the_code_reports():
    assert run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == workloads.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == layers.metric_units()


def test_self_time_subtracts_direct_children_and_same_name_nesting_counts_once():
    spans = [
        ["outer", 0.0, 10.0, -1, 0, "timed"],
        ["loss", 1.0, 5.0, 0, 0, "timed"],
        ["loss", 2.0, 3.0, 1, 0, "timed"],
        ["kernel", 6.0, 8.0, 0, 0, "timed"],
        ["kernel", 20.0, 21.0, -1, 0, "setup"],
    ]
    assert self_times(spans) == [4.0, 3.0, 1.0, 2.0, 1.0]
    timed = summarize(spans, "timed")
    assert timed["outer"] == [1, 10.0, 4.0]
    assert timed["loss"] == [2, 4.0, 4.0]
    assert timed["kernel"] == [1, 2.0, 2.0]
    assert summarize(spans)["kernel"] == [2, 3.0, 3.0]


def test_recorder_and_patcher_restore_every_attribute():
    originals = {name: getattr(trainer, name) for name in ("train", "distill_step", "load_bank")}
    rec = SpanRecorder()
    patch = Patcher()
    layers.install(rec, patch)
    assert trainer.train is not originals["train"]
    patch.restore()
    assert {name: getattr(trainer, name) for name in originals} == originals


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run_passes_checks_and_reports_every_metric(tmp_path, name):
    plain = smoke(tmp_path, name, trace=False)
    assert plain.error is None and plain.correct, plain.checks
    assert plain.failed == 0 and plain.attempted >= 1
    assert list(plain.metrics) == list(workloads.END_TO_END_UNITS)
    for metric, entry in plain.metrics.items():
        assert math.isfinite(entry["value"]) and entry["value"] > 0, metric
    line = json.loads(plain.result_line())
    assert set(line) == {"correct", "attempted", "failed", "metrics"}

    traced = smoke(tmp_path, name, trace=True)
    assert traced.error is None and traced.correct, traced.checks
    assert list(traced.metrics) == list(layers.metric_units())
    assert any(u["traced"] for u in traced.units) and any(not u["traced"] for u in traced.units)
    # tracing does not change what the program computes
    assert traced.units[-1]["digests"] == plain.units[-1]["digests"]
    assert (tmp_path / f"{name}-1" / "trace.ndjson").stat().st_size > 0
    assert trainer.train.__module__ == "fusekd.trainer"  # wrappers removed


def test_traced_counts_are_exact_per_step(tmp_path):
    report = smoke(tmp_path, "distill", trace=True)
    m = {k: v["value"] for k, v in report.metrics.items()}
    batch = workloads.SMOKE.batch_size
    assert m["augment.make_views_calls"] == batch
    assert m["teachers.encoder_forwards"] == len(teachers.FLAVORS)
    assert m["vit.encode_calls"] == len(teachers.FLAVORS) + 1
    assert m["tensor.kl_vs_constant.calls"] == 2  # token and spatial terms
    for metric in ("tensor.tape_records_per_step", "tensor.matmul.flops", "optim.params_per_step"):
        assert m[metric] > 0 and m[metric] == int(m[metric]), metric


def test_a_failing_check_makes_the_run_incorrect(tmp_path, monkeypatch):
    digest = teachers.bank_digest
    calls = []

    def drifting_digest(bank):
        calls.append(1)
        return digest(bank) if len(calls) == 1 else "0" * 64

    monkeypatch.setattr(teachers, "bank_digest", drifting_digest)
    report = smoke(tmp_path, "distill", trace=False)
    assert not report.correct
    assert ("bank_digest_unchanged", False) in [(n, ok) for n, ok, _ in report.checks]


def test_a_failing_step_is_counted_and_makes_the_run_incorrect(tmp_path, monkeypatch):
    def broken_loss(*args, **kwargs):
        raise ValueError("non-finite values produced by primitive")

    monkeypatch.setattr(fusion, "token_fusion_loss", broken_loss)
    report = smoke(tmp_path, "distill", trace=False)
    assert not report.correct
    assert report.failed == 1 and report.attempted == 1
    assert "NonFiniteLossError" in report.error
    assert json.loads(report.result_line())["correct"] is False


def copy_checkout(dest: Path, with_sources: bool) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    shutil.copytree(PERFBENCH, dest / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    if with_sources:
        shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def run_cli(checkout: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=checkout,
        capture_output=True, text=True, timeout=170,
    )


def test_command_line_prints_the_result_line_last(tmp_path):
    checkout = copy_checkout(tmp_path, with_sources=True)
    proc = run_cli(checkout, "--workload", "teacher_train", "--seed", "3", "--seconds", "0.01", "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == workloads.END_TO_END_UNITS
    assert "metric setup_s" in proc.stdout and "sha256" in proc.stdout


def test_without_sources_the_command_fails_and_prints_nothing(tmp_path):
    checkout = copy_checkout(tmp_path, with_sources=False)
    proc = run_cli(checkout, "--workload", "distill", "--seed", "0", "--seconds", "10", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
