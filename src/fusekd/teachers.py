"""Frozen teacher banks and desk-scale toy teachers.

Toy teachers are deliberately simplified caricatures of the two big
self-supervised families: a masked-patch regressor (reconstruction from
context) and an instance-contrastive encoder (agreement across augmented
views), plus a random frozen baseline. Each is trained for a short fixed
budget on the synthetic set, stripped of its head, and frozen.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import augment as aug
from . import checkpoint as ckpt
from . import optim
from . import tensor as T
from .tensor import GradTape, Tensor
from .vit import ViTConfig, ViTEncoder, patchify, unpatchify

FLAVORS = ("masked-reconstruction", "instance-contrastive", "random-frozen")
FLAVOR_LABELS = {
    "masked-reconstruction": "toy-mim",
    "instance-contrastive": "toy-contrastive",
    "random-frozen": "toy-random",
}

# depth-1 teachers: at desk scale the shallow contrastive/reconstruction heads
# settle on class-relevant (orientation-dominated) features within the short
# training budget, which is what makes them worth distilling from
DEFAULT_TEACHER_CONFIG = ViTConfig(
    image_size=16, patch_size=4, depth=1, embed_dim=32, num_heads=2
)


TEACHER_LR = 1e-3  # AdamW learning rate of both toy-teacher objectives
MASK_RATIO = 0.5  # fraction of patches the masked regressor hides
TEMPERATURE = 0.2  # InfoNCE temperature of the contrastive teacher


class BankMismatchError(ValueError):
    """Teachers in one bank must share image size, patch size and width."""


@dataclass
class TeacherBank:
    teachers: list[ViTEncoder]
    labels: list[str] = field(default_factory=list)

    def __post_init__(self):
        if not self.teachers:
            raise BankMismatchError("a bank needs at least one teacher")
        if not self.labels:
            self.labels = [f"teacher{i}" for i in range(len(self.teachers))]
        ref = self.teachers[0].config
        for t in self.teachers:
            c = t.config
            if c.embed_dim != ref.embed_dim:
                raise BankMismatchError(
                    f"embed_dim mismatch across teachers: {c.embed_dim} vs {ref.embed_dim}"
                )
            if (c.image_size, c.patch_size) != (ref.image_size, ref.patch_size):
                raise BankMismatchError(
                    "teachers must share input resolution and patch size"
                )
            if not t.frozen:
                raise BankMismatchError("bank teachers must be frozen")

    def __len__(self) -> int:
        return len(self.teachers)

    @property
    def embed_dim(self) -> int:
        return self.teachers[0].config.embed_dim

    @property
    def config(self) -> ViTConfig:
        return self.teachers[0].config

    def forward_all(self, views: np.ndarray) -> list[Tensor]:
        """Encode one view batch with every teacher; nothing hits the tape."""
        return [t.encode_batch(views) for t in self.teachers]


def bank_digest(bank: TeacherBank) -> str:
    """Content hash of all teacher weights (freeze verification)."""
    h = hashlib.sha256()
    for t in bank.teachers:
        for name, tensor in t.named_tensors():
            h.update(name.encode())
            h.update(tensor.array.tobytes())
    return h.hexdigest()


def _batches(n: int, batch_size: int, rng: np.random.Generator):
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start : start + batch_size]


def train_masked_reconstruction(
    images: np.ndarray,
    config: ViTConfig,
    seed: int,
    epochs: int = 20,
    batch_size: int = 64,
) -> tuple[ViTEncoder, list[float]]:
    """Mask patches at pixel level, regress their original pixels with a
    linear head from the corresponding tokens. Returns per-epoch mean loss."""
    enc = ViTEncoder(config, seed=seed)
    rng = np.random.default_rng([seed, 11])
    d, pd = config.embed_dim, config.patch_dim
    head_w = Tensor(rng.normal(0.0, 0.02, (d, pd)), parameter=True, name="head_w")
    head_b = Tensor(np.zeros(pd), parameter=True, name="head_b")
    params = enc.parameters() + [head_w, head_b]
    state = optim.init_adamw(params, weight_decay=0.0)
    n = images.shape[0]
    n_patches = config.num_patches
    n_masked = max(1, int(round(MASK_RATIO * n_patches)))
    history = []
    for epoch in range(epochs):
        order_rng = np.random.default_rng([seed, 13, epoch])
        epoch_losses = []
        for idx in _batches(n, batch_size, order_rng):
            batch = images[idx]
            patches = patchify(batch, config.patch_size)  # (B, N, pd)
            mask = np.zeros((len(idx), n_patches), dtype=bool)
            for row in range(len(idx)):
                mask[row, order_rng.choice(n_patches, n_masked, replace=False)] = True
            corrupted = patches.copy()
            corrupted[mask] = 0.0
            masked_imgs = unpatchify(corrupted, config.patch_size, config.image_size)
            weight = Tensor(mask[..., None].astype(np.float64))
            target = Tensor(patches)
            with GradTape() as tape:
                tokens = enc.encode_batch(masked_imgs)
                patch_tokens = T.slice_axis(tokens, 1, 1, n_patches + 1)
                pred = T.linear(patch_tokens, head_w, head_b)
                diff = T.sub(pred, target)
                sq = T.mul(T.mul(diff, diff), weight)
                loss = T.scale(T.sum_all(sq), 1.0 / (mask.sum() * pd))
            grads = tape.gradients(loss, params)
            optim.adamw_step(params, grads, state, TEACHER_LR)
            epoch_losses.append(loss.item())
        history.append(float(np.mean(epoch_losses)))
    return enc, history


def train_instance_contrastive(
    images: np.ndarray,
    config: ViTConfig,
    seed: int,
    epochs: int = 20,
    batch_size: int = 64,
) -> tuple[ViTEncoder, list[float]]:
    """Cross-view InfoNCE on normalized class-token projections."""
    enc = ViTEncoder(config, seed=seed)
    rng = np.random.default_rng([seed, 17])
    d = config.embed_dim
    head_w = Tensor(rng.normal(0.0, 0.02, (d, d)), parameter=True, name="head_w")
    head_b = Tensor(np.zeros(d), parameter=True, name="head_b")
    norm_g = Tensor(np.ones(d))  # plain constants: LN used as the normalizer
    norm_b = Tensor(np.zeros(d))
    params = enc.parameters() + [head_w, head_b]
    state = optim.init_adamw(params, weight_decay=0.0)
    view_cfg = aug.AugmentConfig(scale_min=0.5, scale_max=1.0)
    n = images.shape[0]
    history = []

    def embed_views(view_batch: np.ndarray, b: int) -> Tensor:
        tokens = enc.encode_batch(view_batch)
        cls = T.reshape(T.slice_axis(tokens, 1, 0, 1), (b, d))
        return T.layer_norm(T.linear(cls, head_w, head_b), norm_g, norm_b)

    for epoch in range(epochs):
        order_rng = np.random.default_rng([seed, 19, epoch])
        epoch_losses = []
        for idx in _batches(n, batch_size, order_rng):
            b = len(idx)
            views1 = np.empty((b, 3, config.image_size, config.image_size))
            views2 = np.empty_like(views1)
            for row, i in enumerate(idx):
                view_rng = np.random.default_rng([seed, 23, epoch, int(i)])
                views1[row] = aug.make_views(images[i], view_rng, view_cfg).student_view
                views2[row] = aug.make_views(images[i], view_rng, view_cfg).student_view
            eye = Tensor(np.eye(b))
            with GradTape() as tape:
                z1 = embed_views(views1, b)
                z2 = embed_views(views2, b)
                sim = T.scale(T.matmul(z1, T.transpose(z2, (1, 0))), 1.0 / (d * TEMPERATURE))
                log_sm = T.log_softmax(sim)
                loss = T.scale(T.sum_all(T.mul(log_sm, eye)), -1.0 / b)
            grads = tape.gradients(loss, params)
            optim.adamw_step(params, grads, state, TEACHER_LR)
            epoch_losses.append(loss.item())
        history.append(float(np.mean(epoch_losses)))
    return enc, history


def make_toy_teacher(
    seed: int,
    flavor: str,
    images: np.ndarray | None = None,
    config: ViTConfig = DEFAULT_TEACHER_CONFIG,
    epochs: int = 20,
    batch_size: int = 64,
) -> ViTEncoder:
    """Build one frozen toy teacher; heads are dropped after training."""
    if flavor not in FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}; expected one of {FLAVORS}")
    if flavor == "random-frozen":
        return ViTEncoder(config, seed=seed).freeze()
    if images is None:
        raise ValueError(f"flavor {flavor!r} needs training images")
    if flavor == "masked-reconstruction":
        enc, _ = train_masked_reconstruction(images, config, seed, epochs, batch_size)
    else:
        enc, _ = train_instance_contrastive(images, config, seed, epochs, batch_size)
    return enc.freeze()


def save_teacher(enc: ViTEncoder, path: str | Path, label: str = "") -> None:
    meta = {"kind": "teacher", "label": label, "config": asdict(enc.config)}
    ckpt.save_checkpoint(path, {n: t.array for n, t in enc.named_tensors()}, meta=meta)


def load_teacher(path: str | Path) -> tuple[ViTEncoder, str]:
    tensors, meta = ckpt.load_checkpoint(path)
    if meta.get("kind") != "teacher":
        raise ckpt.MetadataError(f"{path}: not a teacher checkpoint")
    with ckpt.content_errors(path):
        enc = ViTEncoder(ViTConfig(**meta["config"]), seed=0)
        enc.load_arrays(tensors)
    return enc.freeze(), str(meta.get("label", ""))


def load_bank(paths: list[str | Path]) -> TeacherBank:
    """Load teachers from checkpoints; mixed widths or resolutions are rejected."""
    teachers, labels = [], []
    for p in paths:
        enc, label = load_teacher(p)
        teachers.append(enc)
        labels.append(label or Path(p).stem)
    return TeacherBank(teachers=teachers, labels=labels)
