"""Command-line front end.

Exit codes: 0 success, 1 usage error (usage text on stderr), 2 runtime
failure. The commands that draw random numbers take --seed (gen-data,
make-teachers, gradcheck), and distill and the sweeps take it as an
override of the config's seed; all numeric output is deterministic given
it. eval and inspect-ckpt draw nothing and take no --seed.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from itertools import combinations
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt
from . import data as dat
from . import fusion
from . import teachers as tch
from . import tensor as T
from . import trainer
from .config import load_config
from .fusion import Adapter
from .tensor import Tensor, run_grad_check
from .vit import ViTConfig, ViTEncoder, param_count


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors must exit 1, not argparse's 2
        raise _UsageError(message)


def _build_parser() -> _Parser:
    # parent parsers: each option shared by several commands is declared once
    seeded = argparse.ArgumentParser(add_help=False)  # commands that draw random numbers
    seeded.add_argument("--seed", type=int, default=0)
    configured = argparse.ArgumentParser(add_help=False)
    configured.add_argument("--config", required=True)
    configured.add_argument("--seed", type=int, default=None, help="override config seed")
    probed = argparse.ArgumentParser(add_help=False)
    probed.add_argument("--probe-epochs", type=int, default=trainer.PROBE_ITERS)

    p = _Parser(prog="fusekd", description="multi-teacher distillation engine")
    sub = p.add_subparsers(dest="command")

    def command(name, run, summary, *parents):
        c = sub.add_parser(name, help=summary, parents=list(parents))
        c.set_defaults(run=run)
        return c

    g = command("gen-data", _cmd_gen_data, "write synthetic train/test dataset files", seeded)
    g.add_argument("--out", required=True, help="output directory")
    g.add_argument("--n-train", type=int, default=2048)
    g.add_argument("--n-test", type=int, default=512)
    g.add_argument("--image-size", type=int, default=16)

    m = command("make-teachers", _cmd_make_teachers, "train and save the toy teacher bank", seeded)
    m.add_argument("--data", required=True, help="dataset directory")
    m.add_argument("--out", required=True, help="output directory")
    m.add_argument("--epochs", type=int, default=40)
    m.add_argument("--embed-dim", type=int, default=32)
    m.add_argument(
        "--flavors",
        default=",".join(tch.FLAVORS),
        help="comma-separated subset of: " + ",".join(tch.FLAVORS),
    )

    command("distill", _cmd_distill, "run a distillation training job", configured)

    e = command("eval", _cmd_eval, "linear-probe a student checkpoint", probed)
    e.add_argument("--ckpt", required=True)
    e.add_argument("--data", required=True)

    st = command(
        "sweep-teachers", _cmd_sweep_teachers, "teacher-combination ablation sweep", configured, probed
    )
    st.add_argument(
        "--subsets",
        default=None,
        help="semicolon-separated index tuples, e.g. '0;1;2;0,1;0,1,2' (default: all non-empty)",
    )

    command("sweep-losses", _cmd_sweep_losses, "loss-mode ablation sweep", configured, probed)
    command("gradcheck", _cmd_gradcheck, "finite-difference gradient suites", seeded)
    command("inspect-ckpt", _cmd_inspect, "summarize a checkpoint file").add_argument("path")
    return p


def _cmd_gen_data(args) -> int:
    train_path, test_path = dat.gen_data(
        args.out, args.n_train, args.n_test, args.seed, args.image_size
    )
    print(f"wrote {train_path} ({args.n_train} records)")
    print(f"wrote {test_path} ({args.n_test} records)")
    return 0


def _cmd_make_teachers(args) -> int:
    flavors = [f.strip() for f in args.flavors.split(",") if f.strip()]
    unknown = [f for f in flavors if f not in tch.FLAVORS]
    if unknown or not flavors:
        raise ValueError(f"--flavors {args.flavors!r}: expected some of {list(tch.FLAVORS)}")
    cfg = replace(tch.DEFAULT_TEACHER_CONFIG, embed_dim=args.embed_dim)
    if args.epochs < 0 or args.seed < 0:
        raise ValueError("--epochs and --seed must be >= 0")
    train_ds, _ = dat.load_splits(args.data)
    if len(train_ds) == 0:
        raise ValueError(f"{args.data}: the training split has no samples")
    h, w = train_ds.images.shape[-2:]
    if h != w:
        raise ValueError(f"{args.data}: images are {h}x{w}, teachers need square images")
    images = train_ds.float_images()
    cfg = replace(cfg, image_size=w)
    out = Path(args.out)
    for flavor in flavors:
        enc = tch.make_toy_teacher(
            args.seed, flavor, images=images, config=cfg, epochs=args.epochs
        )
        label = tch.FLAVOR_LABELS[flavor]
        path = out / f"{label}.dmtc"
        tch.save_teacher(enc, path, label=label)
        print(f"wrote {path} ({flavor})")
    return 0


def _apply_seed(cfg, seed):
    return cfg if seed is None else replace(cfg, seed=seed)


def _cmd_distill(args) -> int:
    cfg = _apply_seed(load_config(args.config), args.seed)
    result = trainer.train(cfg, log=lambda msg: print(msg, file=sys.stderr))
    print(f"checkpoint: {result.checkpoint_path}")
    print(f"metrics: {result.metrics_path}")
    if result.final_loss is not None:
        print(f"final_loss: {result.final_loss:.8f}")
    return 0


def _cmd_eval(args) -> int:
    _, student, _, _, _ = trainer.load_train_checkpoint(args.ckpt)
    train_ds, test_ds = dat.load_splits(args.data)
    acc = trainer.linear_probe(student, train_ds, test_ds, probe_epochs=args.probe_epochs)
    print(f"probe_accuracy: {acc:.4f}")
    return 0


def _cmd_sweep_teachers(args) -> int:
    cfg = _apply_seed(load_config(args.config), args.seed)
    m = len(cfg.teacher_paths)
    if args.subsets:
        subsets = [
            tuple(int(i) for i in part.split(",") if i != "")
            for part in args.subsets.split(";")
            if part.strip()
        ]
    else:  # all non-empty subsets, singletons first
        subsets = []
        for size in range(1, m + 1):
            subsets.extend(combinations(range(m), size))
    table = trainer.sweep_teacher_combinations(cfg, subsets, probe_epochs=args.probe_epochs)
    return _report_sweep(table, Path(cfg.out_dir) / "sweep_teachers.txt")


def _cmd_sweep_losses(args) -> int:
    cfg = _apply_seed(load_config(args.config), args.seed)
    table = trainer.sweep_loss_modes(cfg, probe_epochs=args.probe_epochs)
    return _report_sweep(table, Path(cfg.out_dir) / "sweep_losses.txt")


def _report_sweep(table: trainer.SweepTable, out: Path) -> int:
    """Print the rendered table and write it, newline-terminated, to ``out``."""
    text = table.render()
    print(text)
    ckpt.write_atomic(out, [(text + "\n").encode()])
    return 0


def _cmd_gradcheck(args) -> int:
    rng = np.random.default_rng(args.seed)
    reports = []

    def check(name, fn, params):
        rep = run_grad_check(fn, params)
        reports.append((name, rep))
        print(f"{name}:")
        print(rep.summary())

    x = Tensor(rng.normal(size=(3, 5)), parameter=True, name="x")
    w = Tensor(rng.normal(size=(5, 4)), parameter=True, name="w")
    check("matmul+gelu", lambda: T.sum_all(T.gelu(T.matmul(x, w))), [x, w])

    v = Tensor(rng.normal(size=(4, 6)), parameter=True, name="v")
    target = rng.normal(size=(4, 6))
    check("softmax-kl", lambda: fusion.token_fusion_loss(v, target), [v])

    cfg = ViTConfig(image_size=16, patch_size=4, depth=2, embed_dim=8, num_heads=2)
    enc = ViTEncoder(cfg, seed=args.seed)
    adapter = Adapter.create(8, 16, seed=args.seed + 1)
    img = rng.random((1, 3, 16, 16))
    t_tokens = rng.normal(size=(1, cfg.num_patches + 1, 16))

    def end_to_end():
        proj = adapter.project(enc.encode_batch(img))
        return fusion.mode_loss("tfd+sfd", proj, t_tokens)[0]

    check("end-to-end-combined-loss", end_to_end, enc.parameters() + adapter.parameters())

    failed = [name for name, rep in reports if not rep.passed]
    if failed:
        print(f"FAILED: {', '.join(failed)}")
        return 2
    print("all gradient checks passed")
    return 0


def _cmd_inspect(args) -> int:
    tensors, meta = ckpt.load_checkpoint(args.path)
    print(f"version: {ckpt.VERSION}")
    if meta.get("kind"):
        print(f"kind: {meta['kind']}")
    if meta.get("label"):
        print(f"label: {meta['label']}")
    print(f"{'tensor':<28s} {'shape':<18s} {'dtype':<6s} {'size':>10s}")
    for name, arr in tensors.items():
        shape = "x".join(map(str, arr.shape)) or "scalar"
        print(f"{name:<28s} {shape:<18s} {'f64':<6s} {arr.size:>10d}")
    print(f"total_parameters: {sum(a.size for a in tensors.values())}")
    if meta.get("kind") == "teacher" and "config" in meta:
        with ckpt.content_errors(args.path):
            expected = param_count(ViTConfig(**meta["config"]))
        print(f"config_param_count: {expected}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        parser.print_usage(sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help exits 0
        return int(exc.code or 0)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.run(args)
    except (
        ckpt.CheckpointError, dat.DatasetError, RuntimeError, ValueError, OSError, MemoryError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
