"""Run one fusekd benchmark workload and print its metrics.

    python3 perfbench/run.py --workload distill --seed 0 --seconds 50 --trace 0

Workloads: distill, sweep, teacher_train (see perfbench/README.md). The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. Full results,
digests and the span trace go under ``perfbench/.work/``.

Exit codes: 0 when every output check passes, 1 when a check or a step
fails (the JSON line is still printed), 2 when fusekd's sources are missing
or the arguments are wrong (nothing is printed on standard output).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("distill", "sweep", "teacher_train")
DEFAULT_SEED = 0
HELD_OUT_SEED = 1009  # not used while the benchmark was tuned; re-check claims on it


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help=f"input seed (default {DEFAULT_SEED}; held-out seed {HELD_OUT_SEED})",
    )
    parser.add_argument("--seconds", type=float, default=50.0, help="length of the timed part")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer traced run")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "fusekd" / "__init__.py").is_file():
        print(f"error: fusekd sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from fkbench import machine

    machine.pin_threads()  # before numpy loads
    sys.path.insert(0, str(src))
    import fusekd

    if Path(fusekd.__file__).resolve().parent != (src / "fusekd").resolve():
        print(f"error: imported fusekd from {fusekd.__file__}, not {src}", file=sys.stderr)
        return 2
    from fkbench import workloads

    sizes = workloads.SMOKE if args.smoke else workloads.REFERENCE
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    work = HERE / ".work" / tag
    report = workloads.run_bench(args.workload, args.seed, args.seconds, bool(args.trace), sizes, ROOT, work)
    if report.error:
        print(report.error, file=sys.stderr)
    for line in workloads.render(report, (work / "result.json").relative_to(ROOT)):
        print(line)
    print(report.result_line(), flush=True)
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
