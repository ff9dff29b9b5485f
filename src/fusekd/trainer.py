"""Distillation training loop, linear probing, and the ablation sweeps.

Pipeline per step: ``step_targets`` (paired views -> frozen teacher forwards
-> one fused target, off the tape), then student forward + adapter -> loss
per mode -> backward -> AdamW update. All randomness derives from the run
seed; single-threaded runs are byte-reproducible (metrics records
deliberately exclude wall time).
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import augment as aug
from . import checkpoint as ckpt
from . import data as dat
from . import functional as F
from . import fusion
from . import optim
from .config import TrainConfig, parse_config, serialize_config
from .fusion import Adapter
from .teachers import TeacherBank, load_bank
from .tensor import GradTape
from .vit import ViTConfig, ViTEncoder

_MASK63 = (1 << 63) - 1


class NonFiniteLossError(RuntimeError):
    """A training step failed before it updated anything.

    ``batch_index`` is the first sample with a pixel outside [0, 1] (NaN and
    +-inf included), or ``None`` when every pixel was in range.
    """

    def __init__(self, message: str, batch_index: int | None = None):
        super().__init__(message)
        self.batch_index = batch_index


def derive_seed(*parts: int) -> int:
    """Deterministic child seed from integer parts (SeedSequence mixing)."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1, np.uint64)[0])


def sample_seed(epoch_base: int, sample_index: int) -> int:
    # per-sample stream: global (per-epoch) seed XOR sample index
    return (epoch_base ^ sample_index) & _MASK63


@dataclass
class StepLosses:
    total: float
    token: float
    spatial: float


@dataclass
class EpochMetrics:
    epoch: int
    loss_total: float
    loss_token: float
    loss_spatial: float
    lr: float


@dataclass
class TrainResult:
    checkpoint_path: Path
    metrics_path: Path
    final_loss: float | None


def step_targets(
    images: np.ndarray, seeds: list[int], augment_cfg: aug.AugmentConfig, bank: TeacherBank
) -> tuple[np.ndarray, np.ndarray]:
    """The frozen side of a step, ``(student_views, fused_tokens)``: one view pair
    per image from its seed, every teacher's forward on the teacher views, and
    their fusion. Never reads the student; records nothing on a tape."""
    teacher_views = np.empty_like(images)
    student_views = np.empty_like(images)
    for i in range(images.shape[0]):
        pair = aug.make_views(images[i], np.random.default_rng(seeds[i]), augment_cfg)
        teacher_views[i] = pair.teacher_view
        student_views[i] = pair.student_view
    outs = bank.forward_all(teacher_views)
    return student_views, fusion.fuse_tokens([o.array for o in outs])


def _check_student_fits_bank(student_cfg: ViTConfig, bank: TeacherBank) -> None:
    tcfg = bank.config
    if (student_cfg.image_size, student_cfg.patch_size) != (tcfg.image_size, tcfg.patch_size):
        raise ValueError("student and teachers must share resolution and patch size")


def distill_step(
    images: np.ndarray,
    seeds: list[int],
    augment_cfg: aug.AugmentConfig,
    bank: TeacherBank,
    student: ViTEncoder,
    adapter: Adapter,
    opt_state: optim.AdamWState,
    lr: float,
    loss_mode: str = "tfd+sfd",
) -> StepLosses:
    """One optimizer step over a batch of raw images, every pixel in [0, 1],
    with one view seed per image.

    Checked in this order, before any view is built, each raising a plain
    ``ValueError``: the loss mode; a non-empty ``(B, 3, S, S)`` batch for the
    bank's image size S; one seed per image, each an integer >= 0; the
    student's resolution and patch size against the bank's; an adapter
    weight of ``(student width, bank width)``. Then a sample outside [0, 1]
    raises ``NonFiniteLossError`` with its ``batch_index``. Any later
    ``ValueError`` (a non-finite primitive output or update) raises it with
    ``batch_index=None``. Nothing is updated on any failure.
    """
    if loss_mode not in fusion.LOSS_MODES:
        raise ValueError(f"loss_mode must be one of {fusion.LOSS_MODES}")
    s = bank.config.image_size
    if images.ndim != 4 or images.shape[1:] != (3, s, s) or images.shape[0] == 0:
        raise ValueError(f"expected a non-empty (B, 3, {s}, {s}) image batch, got {images.shape}")
    if len(seeds) != images.shape[0]:
        raise ValueError(f"{len(seeds)} view seeds for {images.shape[0]} images")
    for i, seed in enumerate(seeds):
        if not isinstance(seed, (int, np.integer)) or seed < 0:
            raise ValueError(f"view seed {i} is {seed!r}, not an integer >= 0")
    _check_student_fits_bank(student.config, bank)
    width = (student.config.embed_dim, bank.config.embed_dim)
    if adapter.weight.shape != width:
        raise ValueError(
            f"adapter weight is {adapter.weight.shape}, not (student width, bank width) {width}"
        )
    inside = (images >= 0.0) & (images <= 1.0)  # NaN compares False
    bad = np.flatnonzero(~inside.reshape(images.shape[0], -1).all(axis=1))
    if bad.size:
        i = int(bad[0])
        raise NonFiniteLossError(f"batch index {i}: pixels outside [0, 1]", batch_index=i)
    params = student.parameters() + adapter.parameters()
    try:
        student_views, fused_tokens = step_targets(images, seeds, augment_cfg, bank)
        with GradTape() as tape:
            proj = adapter.project(student.encode_batch(student_views))
            loss, lt, ls = fusion.mode_loss(loss_mode, proj, fused_tokens)
        grads = tape.gradients(loss, params)
        optim.adamw_step(params, grads, opt_state, lr)
    except ValueError as exc:
        raise NonFiniteLossError(f"non-finite value during step: {exc}") from exc
    return StepLosses(
        total=loss.item(),
        token=lt.item() if lt is not None else 0.0,
        spatial=ls.item() if ls is not None else 0.0,
    )


def _train_tensors(
    student: ViTEncoder, adapter: Adapter, opt_state: optim.AdamWState
) -> dict[str, np.ndarray]:
    """Every tensor of a training checkpoint, in file order."""
    tensors = {f"student.{n}": t.array for n, t in student.named_tensors()}
    tensors.update((t.name, t.array) for t in adapter.parameters())
    for t, m, v in zip(student.parameters() + adapter.parameters(), opt_state.m, opt_state.v):
        tensors[f"opt.m.{t.name}"] = m
        tensors[f"opt.v.{t.name}"] = v
    return tensors


def save_train_checkpoint(
    path: str | Path,
    cfg: TrainConfig,
    student: ViTEncoder,
    adapter: Adapter,
    opt_state: optim.AdamWState,
    step: int,
) -> None:
    meta = {
        "kind": "train_state",
        "config": serialize_config(cfg),
        "step": step,
        "opt_t": opt_state.t,
        "seed": cfg.seed,
    }
    ckpt.save_checkpoint(path, _train_tensors(student, adapter, opt_state), meta=meta)


def load_train_checkpoint(path: str | Path):
    """Returns (config, student, adapter, opt_state, step).

    Besides the format checks of ``load_checkpoint``, the state a resume
    reads must be sound: the student's tensors are exactly its config's
    ``param_table``, checked before anything is allocated; the adapter maps
    the student width to some width D (``(D', D)`` weight, ``(D,)`` bias);
    every tensor in the file has a name and shape from the table that
    ``save_train_checkpoint`` writes (``_train_tensors``), every AdamW moment
    is there, finite and with ``v >= 0``; and ``step`` and ``opt_t`` are
    non-negative integers. Anything else raises ``MetadataError``.
    """
    tensors, meta = ckpt.load_checkpoint(path)
    if meta.get("kind") != "train_state":
        raise ckpt.MetadataError(f"{path}: not a training checkpoint")
    with ckpt.content_errors(path):
        for key in ("step", "opt_t"):
            if type(meta[key]) is not int or meta[key] < 0:
                raise ckpt.MetadataError(f"{path}: {key} {meta[key]!r} is not an integer >= 0")
        cfg = parse_config(meta["config"])
        student = ViTEncoder.from_arrays(
            cfg.student,
            {n[len("student.") :]: a for n, a in tensors.items() if n.startswith("student.")},
        )
        w, b = tensors["adapter.weight"], tensors["adapter.bias"]
        width = cfg.student.embed_dim
        if w.ndim != 2 or w.shape[0] != width or b.shape != w.shape[1:]:
            raise ckpt.MetadataError(
                f"{path}: adapter.weight {w.shape} and adapter.bias {b.shape} "
                f"are not ({width}, D) and (D,)"
            )
        adapter = Adapter.from_arrays(w, b)
        params = student.parameters() + adapter.parameters()
        opt_state = optim.init_adamw(params)
        table = _train_tensors(student, adapter, opt_state)
        for name, a in tensors.items():
            if name not in table or a.shape != table[name].shape:
                raise ckpt.MetadataError(f"{path}: unexpected tensor {name!r} of shape {a.shape}")
        opt_state.m = [tensors[f"opt.m.{t.name}"] for t in params]
        opt_state.v = [tensors[f"opt.v.{t.name}"] for t in params]
        for t, m, v in zip(params, opt_state.m, opt_state.v):
            if not (np.isfinite(m).all() and np.isfinite(v).all() and (v >= 0).all()):
                raise ckpt.MetadataError(f"{path}: moments of {t.name} must be finite, with opt.v >= 0")
        opt_state.t = meta["opt_t"]
        return cfg, student, adapter, opt_state, meta["step"]


def train(cfg: TrainConfig, log=None) -> TrainResult:
    """Full distillation run; deterministic given cfg.seed (single-threaded)."""
    train_ds, _ = dat.load_splits(cfg.dataset)
    bank = load_bank(list(cfg.teacher_paths))
    _check_student_fits_bank(cfg.student, bank)
    if len(train_ds) == 0:
        raise ValueError(f"{cfg.dataset}: the training split has no samples")
    h, w = train_ds.images.shape[-2:]
    size = cfg.student.image_size
    if (h, w) != (size, size):
        raise ValueError(f"{cfg.dataset}: images are {h}x{w}, the student expects {size}x{size}")
    student = ViTEncoder(cfg.student, seed=derive_seed(cfg.seed, 1))
    adapter = Adapter.create(
        cfg.student.embed_dim, bank.config.embed_dim, seed=derive_seed(cfg.seed, 2)
    )
    params = student.parameters() + adapter.parameters()
    opt_state = optim.init_adamw(params)
    images = train_ds.float_images()
    # only once every input has loaded and the run state exists: a failed run leaves nothing
    out_dir = Path(cfg.out_dir)
    metrics_path = out_dir / "metrics.ndjson"
    ckpt.write_atomic(metrics_path, [])

    n = len(train_ds)
    steps_per_epoch = -(-n // cfg.batch_size)
    final_loss = None
    metrics = ""  # one JSON line per finished epoch
    final_path = out_dir / "student_final.dmtc"

    global_step = 0
    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        order = np.random.default_rng(derive_seed(cfg.seed, 3, epoch)).permutation(n)
        epoch_base = derive_seed(cfg.seed, 4, epoch)
        sums = np.zeros(3)
        lr_epoch = optim.lr_at(global_step, cfg.schedule, cfg.epochs, steps_per_epoch)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            seeds = [sample_seed(epoch_base, int(i)) for i in idx]
            lr = optim.lr_at(global_step, cfg.schedule, cfg.epochs, steps_per_epoch)
            losses = distill_step(
                images[idx], seeds, cfg.augment, bank, student, adapter,
                opt_state, lr, cfg.loss_mode,
            )
            sums += (losses.total, losses.token, losses.spatial)
            global_step += 1
        em = EpochMetrics(
            epoch=epoch,
            loss_total=sums[0] / steps_per_epoch,
            loss_token=sums[1] / steps_per_epoch,
            loss_spatial=sums[2] / steps_per_epoch,
            lr=lr_epoch,
        )
        final_loss = em.loss_total
        metrics += json.dumps(asdict(em), sort_keys=True) + "\n"
        ckpt.write_atomic(metrics_path, [metrics.encode()])
        if log:
            log(
                f"epoch {epoch + 1}/{cfg.epochs} loss={em.loss_total:.6f} "
                f"(token={em.loss_token:.6f} spatial={em.loss_spatial:.6f}) "
                f"lr={em.lr:.2e} {time.perf_counter() - t0:.1f}s"
            )
        if cfg.save_interval and (epoch + 1) % cfg.save_interval == 0 and epoch + 1 < cfg.epochs:
            save_train_checkpoint(
                out_dir / f"ckpt_ep{epoch + 1:04d}.dmtc",
                cfg, student, adapter, opt_state, step=global_step,
            )
    save_train_checkpoint(final_path, cfg, student, adapter, opt_state, step=global_step)
    return TrainResult(final_path, metrics_path, final_loss)


# ------------------------------------------------------------- linear probe


PROBE_CHUNK = 256  # images per frozen forward when extracting probe features
PROBE_LR = 0.05
PROBE_ITERS = 200  # default full-batch Adam steps of the probe head
PROBE_WEIGHT_DECAY = 1e-4  # L2, added to the head's weight gradient


def class_token_features(encoder: ViTEncoder, images: np.ndarray) -> np.ndarray:
    """Class-token embeddings, (n, D), of ``encoder``'s forward in chunks of
    ``PROBE_CHUNK``. Recorded only inside an open tape on a trainable encoder;
    the probes call it with no tape open."""
    feats = []
    for start in range(0, images.shape[0], PROBE_CHUNK):
        out = encoder.encode_batch(images[start : start + PROBE_CHUNK])
        feats.append(out.array[:, 0, :])
    return np.concatenate(feats, axis=0)


def fit_linear_head(
    train_x: np.ndarray,
    train_y: np.ndarray,
    test_x: np.ndarray,
    test_y: np.ndarray,
    num_classes: int,
    iters: int = PROBE_ITERS,
) -> float:
    """Full-batch softmax regression, Adam with L2 decay on ``w``; returns held-out accuracy."""
    _check_probe_epochs(iters)
    _check_probe_labels(train_y, test_y, num_classes)
    mu = train_x.mean(axis=0)
    sd = train_x.std(axis=0) + 1e-8
    xs = (train_x - mu) / sd
    xt = (test_x - mu) / sd
    n, d = xs.shape
    onehot = np.zeros((n, num_classes))
    onehot[np.arange(n), train_y.astype(int)] = 1.0
    w = np.zeros((d, num_classes))
    b = np.zeros(num_classes)
    mw = vw = mb = vb = 0.0  # zero first and second moments, broadcast at step 1
    for t in range(1, iters + 1):
        g = (F.softmax(xs @ w + b) - onehot) / n
        mw, vw, m_hat, denom = optim.adam_moments(mw, vw, xs.T @ g + PROBE_WEIGHT_DECAY * w, t)
        w -= PROBE_LR * m_hat / denom
        mb, vb, m_hat, denom = optim.adam_moments(mb, vb, g.sum(axis=0), t)
        b -= PROBE_LR * m_hat / denom
    pred = (xt @ w + b).argmax(axis=1)
    return float((pred == test_y.astype(int)).mean())


def _check_probe_epochs(probe_epochs: int) -> None:
    if probe_epochs < 1:
        raise ValueError(f"probe iterations (probe_epochs) must be >= 1, got {probe_epochs}")


def _check_probe_labels(train_y: np.ndarray, test_y: np.ndarray, num_classes: int) -> None:
    if len(np.unique(train_y)) < 2:
        raise ValueError("probe needs at least two classes in the training labels")
    for split, y in (("train", train_y), ("test", test_y)):
        if not ((y >= 0) & (y < num_classes)).all():
            raise ValueError(f"probe {split} labels must lie in [0, {num_classes})")


def _check_probe_splits(train_ds: dat.Dataset, test_ds: dat.Dataset, probe_epochs: int) -> int:
    """Everything a probe needs, checked before any feature is extracted;
    returns the class count, one past the largest label of either split."""
    _check_probe_epochs(probe_epochs)
    for split, ds in (("train", train_ds), ("test", test_ds)):
        if len(ds) == 0:
            raise ValueError(f"linear probe: the {split} split has no samples")
    k = int(max(train_ds.labels.max(), test_ds.labels.max())) + 1
    _check_probe_labels(train_ds.labels, test_ds.labels, k)
    return k


def linear_probe(
    encoder: ViTEncoder,
    train_ds: dat.Dataset,
    test_ds: dat.Dataset,
    probe_epochs: int = PROBE_ITERS,
) -> float:
    """Accuracy of a linear head on frozen class-token features."""
    k = _check_probe_splits(train_ds, test_ds, probe_epochs)
    train_x = class_token_features(encoder, train_ds.float_images())
    test_x = class_token_features(encoder, test_ds.float_images())
    return fit_linear_head(
        train_x, train_ds.labels, test_x, test_ds.labels, k, iters=probe_epochs
    )


# ------------------------------------------------------------------- sweeps


@dataclass
class SweepRow:
    label: str
    final_loss: float
    probe_accuracy: float
    delta_pp: float | None = None  # percentage points vs the best single setting
    note: str = ""


@dataclass
class SweepTable:
    title: str
    rows: list[SweepRow]

    def render(self) -> str:
        width = max(28, max(len(r.label) for r in self.rows) + 2)
        lines = [
            self.title,
            "(desk-scale toy benchmark; numbers are not comparable to full-scale training)",
            f"{'setting':<{width}s} {'final_loss':>12s} {'probe_acc':>10s} {'delta':>8s}  note",
            "-" * (width + 44),
        ]
        for r in self.rows:
            delta = f"({r.delta_pp:+.1f})" if r.delta_pp is not None else ""
            lines.append(
                f"{r.label:<{width}s} {r.final_loss:>12.6f} {100 * r.probe_accuracy:>9.1f}% {delta:>8s}  {r.note}"
            )
        return "\n".join(lines)


def _sweep(
    cfg: TrainConfig,
    title: str,
    runs: list[tuple[str, dict, bool, str]],
    probe_epochs: int,
) -> SweepTable:
    """Train, reload and probe once per ``(label, cfg overrides, is_single, note)`` run.

    Rows that are not single settings get ``delta_pp`` against the best
    single row's probe accuracy.
    """
    _check_probe_epochs(probe_epochs)  # before the dataset is read
    train_ds, test_ds = dat.load_splits(cfg.dataset)
    _check_probe_splits(train_ds, test_ds, probe_epochs)
    rows = []
    for label, overrides, _, note in runs:
        result = train(replace(cfg, **overrides))
        _, student, _, _, _ = load_train_checkpoint(result.checkpoint_path)
        acc = linear_probe(student, train_ds, test_ds, probe_epochs=probe_epochs)
        loss = result.final_loss if result.final_loss is not None else float("nan")
        rows.append(SweepRow(label, loss, acc, note=note))
    singles = [row.probe_accuracy for row, (_, _, single, _) in zip(rows, runs) if single]
    for row, (_, _, single, _) in zip(rows, runs):
        if singles and not single:
            row.delta_pp = 100.0 * (row.probe_accuracy - max(singles))
    return SweepTable(title, rows)


def sweep_teacher_combinations(
    cfg: TrainConfig, subsets: list[tuple[int, ...]], probe_epochs: int = PROBE_ITERS
) -> SweepTable:
    """Train once per teacher subset at a fixed seed/budget and tabulate."""
    if not subsets:
        raise ValueError("need at least one subset")
    m = len(cfg.teacher_paths)
    for subset in subsets:
        if not subset:
            raise ValueError("subsets must be non-empty")
        if any(not 0 <= i < m for i in subset):
            raise ValueError(f"subset {tuple(subset)} has a teacher index outside 0..{m - 1}")
    bank = load_bank(list(cfg.teacher_paths))
    full = tuple(range(m))
    runs = []
    for subset in subsets:
        overrides = {
            "teacher_paths": tuple(cfg.teacher_paths[i] for i in subset),
            "out_dir": str(Path(cfg.out_dir) / ("teachers_" + "_".join(map(str, subset)))),
        }
        note = "all teachers (comparison baseline)" if tuple(subset) == full else ""
        label = "+".join(bank.labels[i] for i in subset)
        runs.append((label, overrides, len(subset) == 1, note))
    return _sweep(cfg, "teacher-combination sweep", runs, probe_epochs)


def sweep_loss_modes(cfg: TrainConfig, probe_epochs: int = PROBE_ITERS) -> SweepTable:
    """Train once per mode of ``fusion.LOSS_MODES``, in its order, and tabulate."""
    runs = [
        (
            mode,
            {"loss_mode": mode, "out_dir": str(Path(cfg.out_dir) / f"loss_{mode.replace('+', '_')}")},
            mode in ("tfd", "sfd"),
            "combined (comparison baseline)" if mode == "tfd+sfd" else "",
        )
        for mode in fusion.LOSS_MODES
    ]
    return _sweep(cfg, "loss-mode sweep", runs, probe_epochs)
