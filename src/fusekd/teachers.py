"""Frozen teacher banks and desk-scale toy teachers.

Toy teachers are deliberately simplified caricatures of the two big
self-supervised families: a masked-patch regressor (reconstruction from
context) and an instance-contrastive encoder (agreement across augmented
views), plus a random frozen baseline. Each is trained for a short fixed
budget on the synthetic set, stripped of its head, and frozen.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import augment as aug
from . import checkpoint as ckpt
from . import optim
from . import tensor as T
from .fusion import Adapter
from .tensor import GradTape, Tensor
from .vit import ViTConfig, ViTEncoder, check_images, patchify, unpatchify

FLAVOR_LABELS = {
    "masked-reconstruction": "toy-mim",
    "instance-contrastive": "toy-contrastive",
    "random-frozen": "toy-random",
}
FLAVORS = tuple(FLAVOR_LABELS)

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
    labels: list[str]

    def __post_init__(self):
        if not self.teachers:
            raise BankMismatchError("a bank needs at least one teacher")
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


def _fit(params, images, seed, stream, epochs, batch_size, batch_loss) -> list[float]:
    """AdamW at ``TEACHER_LR`` over shuffled batches; returns the per-epoch mean loss.

    Epoch ``e`` draws its batch order, then whatever ``batch_loss(idx, rng, e)``
    draws, from ``default_rng([seed, stream, e])``.
    """
    if epochs < 0:
        raise ValueError("epochs must be >= 0")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    n = images.shape[0]
    state = optim.init_adamw(params, weight_decay=0.0)
    history = []
    for epoch in range(epochs):
        rng = np.random.default_rng([seed, stream, epoch])
        order = rng.permutation(n)
        losses = []
        for start in range(0, n, batch_size):
            with GradTape() as tape:
                loss = batch_loss(order[start : start + batch_size], rng, epoch)
            optim.adamw_step(params, tape.gradients(loss, params), state, TEACHER_LR)
            losses.append(loss.item())
        history.append(float(np.mean(losses)))
    return history


def train_masked_reconstruction(
    images: np.ndarray,
    config: ViTConfig,
    seed: int,
    epochs: int = 20,
    batch_size: int = 64,
) -> tuple[ViTEncoder, list[float]]:
    """Mask patches at pixel level, regress their original pixels with a
    linear head from the corresponding tokens. Returns per-epoch mean loss."""
    check_images(images, config.image_size)
    enc = ViTEncoder(config, seed=seed)
    pd, n_patches = config.patch_dim, config.num_patches
    head = Adapter.create(config.embed_dim, pd, seed=[seed, 11])
    n_masked = max(1, int(round(MASK_RATIO * n_patches)))

    def batch_loss(idx, rng, epoch):
        patches = patchify(images[idx], config.patch_size)  # (B, N, pd)
        mask = np.zeros((len(idx), n_patches), dtype=bool)
        for row in range(len(idx)):
            mask[row, rng.choice(n_patches, n_masked, replace=False)] = True
        corrupted = patches.copy()
        corrupted[mask] = 0.0
        tokens = enc.encode_batch(unpatchify(corrupted, config.patch_size))
        diff = T.sub(head.project(T.slice_axis(tokens, 1, 1, n_patches + 1)), Tensor(patches))
        sq = T.mul(T.mul(diff, diff), Tensor(mask[..., None].astype(np.float64)))
        return T.scale(T.sum_all(sq), 1.0 / (mask.sum() * pd))

    params = enc.parameters() + head.parameters()
    return enc, _fit(params, images, seed, 13, epochs, batch_size, batch_loss)


def train_instance_contrastive(
    images: np.ndarray,
    config: ViTConfig,
    seed: int,
    epochs: int = 20,
    batch_size: int = 64,
) -> tuple[ViTEncoder, list[float]]:
    """Cross-view InfoNCE on normalized class-token projections."""
    check_images(images, config.image_size)
    enc = ViTEncoder(config, seed=seed)
    d = config.embed_dim
    head = Adapter.create(d, d, seed=[seed, 17])
    norm_g = Tensor(np.ones(d))  # plain constants: LN used as the normalizer
    norm_b = Tensor(np.zeros(d))
    view_cfg = aug.AugmentConfig(scale_min=0.5, scale_max=1.0)

    def embed(views: np.ndarray) -> Tensor:
        cls = T.slice_axis(enc.encode_batch(views), 1, 0, 1)
        return T.layer_norm(head.project(T.reshape(cls, (len(views), d))), norm_g, norm_b)

    def batch_loss(idx, rng, epoch):
        # both views of sample i come from its own stream, not the epoch's
        b = len(idx)
        views = np.empty((2, b, 3, config.image_size, config.image_size))
        for row, i in enumerate(idx):
            view_rng = np.random.default_rng([seed, 23, epoch, int(i)])
            for k in range(2):
                views[k, row] = aug.make_views(images[i], view_rng, view_cfg).student_view
        z1, z2 = embed(views[0]), embed(views[1])
        sim = T.scale(T.matmul(z1, T.transpose(z2, (1, 0))), 1.0 / (d * TEMPERATURE))
        return T.scale(T.sum_all(T.mul(T.log_softmax(sim), Tensor(np.eye(b)))), -1.0 / b)

    params = enc.parameters() + head.parameters()
    return enc, _fit(params, images, seed, 19, epochs, batch_size, batch_loss)


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
    fit = (
        train_masked_reconstruction
        if flavor == "masked-reconstruction"
        else train_instance_contrastive
    )
    return fit(images, config, seed, epochs, batch_size)[0].freeze()


def save_teacher(enc: ViTEncoder, path: str | Path, label: str = "") -> None:
    meta = {"kind": "teacher", "label": label, "config": asdict(enc.config)}
    ckpt.save_checkpoint(path, {n: t.array for n, t in enc.named_tensors()}, meta=meta)


def load_teacher(path: str | Path) -> tuple[ViTEncoder, str]:
    tensors, meta = ckpt.load_checkpoint(path)
    if meta.get("kind") != "teacher":
        raise ckpt.MetadataError(f"{path}: not a teacher checkpoint")
    with ckpt.content_errors(path):
        enc = ViTEncoder.from_arrays(ViTConfig(**meta["config"]), tensors)
    return enc.freeze(), str(meta.get("label", ""))


def load_bank(paths: list[str | Path]) -> TeacherBank:
    """Load teachers from checkpoints; mixed widths or resolutions are rejected."""
    teachers, labels = [], []
    for p in paths:
        enc, label = load_teacher(p)
        teachers.append(enc)
        labels.append(label or Path(p).stem)
    return TeacherBank(teachers=teachers, labels=labels)
