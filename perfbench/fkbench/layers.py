"""Layer tracing from outside fusekd, and the per-layer metrics.

``install`` replaces public functions and methods of fusekd's modules with
wrappers that record spans (see ``spans``); ``Patcher.restore`` removes them.
Nothing under ``src/`` changes. Adjoints are timed by wrapping the callables
that primitives hand to ``GradTape.record``.

Per-layer metrics come from the spans of traced timed units (phase
"timed") and are normalised per optimizer step, except the ``ms/call`` and
``B/call`` ones, which average over every traced call, set-up included.
Times are inclusive unless the name says ``self``. Counts per step divide
exact totals by an exact step count, so they repeat exactly for a seed.
"""

from __future__ import annotations

import os
import statistics

from fusekd import augment, checkpoint, cli, data, functional, fusion, optim, teachers, tensor, trainer, vit

from .spans import Patcher, SpanRecorder, summarize

PRIMITIVES = (
    "matmul", "add", "sub", "mul", "scale", "gelu", "softmax", "log_softmax",
    "kl_vs_constant", "layer_norm", "sum_all", "reshape", "transpose", "slice_axis", "concat",
)
FUSION_LOSSES = (
    "token_fusion_loss", "spatial_fusion_loss", "student_feature_map", "total_loss",
    "mse_token_term", "mse_spatial_term", "mse_loss_variant",
)
KERNELS = ("gelu", "gelu_grad", "softmax", "log_softmax")

# metric -> span, in ms per optimizer step, inclusive
STEP_TIMES = {
    "teachers.forward_ms": "teachers.forward",
    "vit.encode_frozen_ms": "vit.encode_frozen",
    "vit.encode_taped_ms": "vit.encode_taped",
    "vit.embed_ms": "vit.embed",
    "fusion.fuse_ms": "fusion.fuse",
    "fusion.adapter_ms": "fusion.adapter",
    "fusion.loss_ms": "fusion.loss",
    **{f"functional.{k}_ms": f"functional.{k}" for k in KERNELS},
    "tensor.backward_ms": "tensor.backward",
    "optim.adamw_ms": "optim.adamw",
}
# metric -> span, self time in ms per optimizer step
STEP_SELF_TIMES = {
    "trainer.step_self_ms": "trainer.step",
}
# metric -> counter, per optimizer step
STEP_COUNTS = {
    "teachers.encoder_forwards": ("teachers.encoder_forwards", "count/step"),
    "vit.encode_calls": ("vit.encode_calls", "count/step"),
    "tensor.tape_records_per_step": ("tensor.tape_records", "count/step"),
    "tensor.matmul.flops": ("tensor.matmul.flops", "flop/step"),
    "tensor.matmul.bytes": ("tensor.matmul.bytes", "B/step"),
    "optim.params_per_step": ("optim.params", "count/step"),
}
# metric -> span, ms per call (self time for cli)
CALL_TIMES = {
    "teachers.load_ms": "teachers.load",
    "data.gen_ms": "data.gen",
    "data.read_ms": "data.read",
    "checkpoint.save_ms": "checkpoint.save",
    "checkpoint.load_ms": "checkpoint.load",
    "trainer.probe_features_ms": "trainer.probe_features",
    "trainer.head_fit_ms": "trainer.head_fit",
}
# metric -> (counter, span it is counted per)
CALL_BYTES = {
    "data.bytes_read": ("data.bytes_read", "data.read"),
    "checkpoint.bytes_written": ("checkpoint.bytes_written", "checkpoint.save"),
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric with its unit, in report order."""
    units = {
        "augment.views_ms": "ms/step",
        "augment.make_views_calls": "count/step",
        "augment.us_per_sample": "us/call",
    }
    units.update({m: "ms/step" for m in STEP_TIMES})
    units.update({m: "ms/step" for m in STEP_SELF_TIMES})
    units.update({m: unit for m, (_, unit) in STEP_COUNTS.items()})
    for op in PRIMITIVES:
        units[f"tensor.{op}.fwd_ms"] = "ms/step"
        units[f"tensor.{op}.adj_ms"] = "ms/step"
        units[f"tensor.{op}.calls"] = "count/step"
    units.update({m: "ms/call" for m in CALL_TIMES})
    units["cli.self_ms"] = "ms/call"
    units.update({m: "B/call" for m in CALL_BYTES})
    units.update({"trace.wall_s": "s", "trace.untraced_wall_s": "s", "trace.overhead": "x"})
    return units


def install(rec: SpanRecorder, patch: Patcher) -> None:
    """Wrap fusekd's public entry points so that calls record spans into ``rec``."""

    def span(owner, attr: str, name: str) -> None:
        patch.replace(owner, attr, rec.wrap(name, getattr(owner, attr)))

    span(augment, "make_views", "augment.make_views")
    span(teachers.TeacherBank, "forward_all", "teachers.forward")
    # trainer imported load_bank by name, so both bindings are wrapped
    span(teachers, "load_bank", "teachers.load")
    span(trainer, "load_bank", "teachers.load")
    span(teachers, "train_masked_reconstruction", "teachers.train_mim")
    span(vit.ViTEncoder, "embed", "vit.embed")
    for attr in ("fuse_tokens", "tokens_to_feature_map"):
        span(fusion, attr, "fusion.fuse")
    span(fusion.Adapter, "project", "fusion.adapter")
    for attr in FUSION_LOSSES:
        span(fusion, attr, "fusion.loss")
    for attr in KERNELS:
        span(functional, attr, f"functional.{attr}")
    for op in PRIMITIVES:
        if op != "matmul":
            span(tensor, op, f"tensor.{op}.fwd")
    span(tensor.GradTape, "gradients", "tensor.backward")
    span(data, "generate", "data.gen")
    span(checkpoint, "load_checkpoint", "checkpoint.load")
    span(trainer, "distill_step", "trainer.step")
    span(trainer, "train", "trainer.train")
    span(trainer, "sweep_loss_modes", "trainer.sweep")
    span(trainer, "class_token_features", "trainer.probe_features")
    span(trainer, "fit_linear_head", "trainer.head_fit")
    span(cli, "main", "cli")

    traced_matmul = rec.wrap("tensor.matmul.fwd", tensor.matmul)

    def matmul(a, b):
        out = traced_matmul(a, b)
        # computed from shapes: 2*m*n*k flops; operands read once, result written once
        rec.count("tensor.matmul.flops", 2 * out.size * a.shape[-1])
        rec.count("tensor.matmul.bytes", 8 * (a.size + b.size + out.size))
        return out

    patch.replace(tensor, "matmul", matmul)

    record = tensor.GradTape.record
    adjoint_of = {f"tensor.{op}.fwd": f"tensor.{op}.adj" for op in PRIMITIVES}

    def traced_record(tape, out, inputs, backward):
        # the primitive that emits a record is the innermost open span
        rec.count("tensor.tape_records")
        name = adjoint_of.get(rec.innermost, "tensor.other.adj")
        return record(tape, out, inputs, rec.wrap(name, backward))

    patch.replace(tensor.GradTape, "record", traced_record)

    traced_encode = rec.wrap("vit.encode", vit.ViTEncoder.encode_batch)

    def encode_batch(encoder, images):
        rec.count("vit.encode_calls")
        if encoder.frozen:
            rec.count("teachers.encoder_forwards")
        records = rec.counted("tensor.tape_records")
        index = len(rec.spans)
        out = traced_encode(encoder, images)
        taped = rec.counted("tensor.tape_records") > records
        rec.spans[index][0] = "vit.encode_taped" if taped else "vit.encode_frozen"
        return out

    patch.replace(vit.ViTEncoder, "encode_batch", encode_batch)

    traced_adamw = rec.wrap("optim.adamw", optim.adamw_step)

    def adamw_step(params, grads, state, lr):
        rec.count("optim.params", sum(p.size for p in params))
        return traced_adamw(params, grads, state, lr)

    patch.replace(optim, "adamw_step", adamw_step)

    traced_read = rec.wrap("data.read", data.read_dmtd)

    def read_dmtd(path):
        out = traced_read(path)
        rec.count("data.bytes_read", os.path.getsize(path))
        return out

    patch.replace(data, "read_dmtd", read_dmtd)

    traced_save = rec.wrap("checkpoint.save", checkpoint.save_checkpoint)

    def save_checkpoint(path, *args, **kwargs):
        traced_save(path, *args, **kwargs)
        rec.count("checkpoint.bytes_written", os.path.getsize(path))

    patch.replace(checkpoint, "save_checkpoint", save_checkpoint)


def metrics(rec: SpanRecorder, steps: int, traced_walls: list[float], untraced_walls: list[float]) -> dict[str, float]:
    """Per-layer metrics from the spans of ``steps`` traced optimizer steps."""
    timed = summarize(rec.spans, "timed")
    every = summarize(rec.spans)
    counts = {name: n for (phase, name), n in rec.counts.items() if phase == "timed"}
    totals: dict[str, int] = {}
    for (_, name), n in rec.counts.items():
        totals[name] = totals.get(name, 0) + n
    none = (0, 0.0, 0.0)

    def step_ms(seconds):
        return 1000.0 * seconds / steps

    def call_ms(seconds, n):
        return 1000.0 * seconds / n if n else 0.0

    out: dict[str, float] = {}
    view_calls, views, _ = timed.get("augment.make_views", none)
    out["augment.views_ms"] = step_ms(views)
    out["augment.make_views_calls"] = view_calls / steps
    out["augment.us_per_sample"] = 1e6 * views / view_calls if view_calls else 0.0
    for metric, name in STEP_TIMES.items():
        out[metric] = step_ms(timed.get(name, none)[1])
    for metric, name in STEP_SELF_TIMES.items():
        out[metric] = step_ms(timed.get(name, none)[2])
    for metric, (counter, _) in STEP_COUNTS.items():
        out[metric] = counts.get(counter, 0) / steps
    for op in PRIMITIVES:
        calls, forward, _ = timed.get(f"tensor.{op}.fwd", none)
        out[f"tensor.{op}.fwd_ms"] = step_ms(forward)
        out[f"tensor.{op}.adj_ms"] = step_ms(timed.get(f"tensor.{op}.adj", none)[1])
        out[f"tensor.{op}.calls"] = calls / steps
    for metric, name in CALL_TIMES.items():
        calls, inclusive, _ = every.get(name, none)
        out[metric] = call_ms(inclusive, calls)
    calls, _, self_s = every.get("cli", none)
    out["cli.self_ms"] = call_ms(self_s, calls)
    for metric, (counter, name) in CALL_BYTES.items():
        calls = every.get(name, none)[0]
        out[metric] = totals.get(counter, 0) / calls if calls else 0.0
    out["trace.wall_s"] = statistics.median(traced_walls)
    out["trace.untraced_wall_s"] = statistics.median(untraced_walls)
    out["trace.overhead"] = out["trace.wall_s"] / out["trace.untraced_wall_s"]
    return out
