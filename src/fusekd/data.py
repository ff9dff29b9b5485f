"""Synthetic benchmark data and the DMTD dataset file format.

Samples are small RGB images of oriented gratings: 4 classes at 0/45/90/135
degrees, with per-sample phase, per-channel color scaling and pixel noise.

File layout (all integers little-endian):
  magic "DMTD" | u32 version=1 | u32 count | u16 H | u16 W
  then per record: u8 label, H*W*3 bytes of interleaved 8-bit RGB.
Pixels map to [0, 1] via /255. A file is written whole and atomically
(``checkpoint.write_atomic``).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .checkpoint import write_atomic

MAGIC = b"DMTD"
VERSION = 1
_HEADER = struct.Struct("<4sIIHH")  # magic, version, count, H, W
NUM_CLASSES = 4


class DatasetError(Exception):
    pass


@dataclass
class Dataset:
    images: np.ndarray  # (n, 3, H, W) uint8
    labels: np.ndarray  # (n,) uint8

    def __len__(self) -> int:
        return len(self.labels)

    def float_images(self) -> np.ndarray:
        return self.images.astype(np.float64) / 255.0


def generate(n: int, seed: int, image_size: int = 16) -> Dataset:
    """n oriented-grating samples; class drawn uniformly from 4 angles.

    Per-sample phase, channel colouring and pixel noise keep the task away
    from the trivial regime for a linear probe, while reconstruction from
    context stays learnable for the toy teachers.
    """
    rng = np.random.default_rng(seed)
    yy, xx = np.meshgrid(
        np.arange(image_size, dtype=np.float64),
        np.arange(image_size, dtype=np.float64),
        indexing="ij",
    )
    images = np.empty((n, 3, image_size, image_size), dtype=np.uint8)
    labels = np.empty(n, dtype=np.uint8)
    cycles = 2.0
    for i in range(n):
        label = int(rng.integers(0, NUM_CLASSES))
        theta = np.deg2rad(45.0 * label)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        wave = np.cos(theta) * xx + np.sin(theta) * yy
        grating = 0.5 + 0.5 * np.sin(2.0 * np.pi * cycles * wave / image_size + phase)
        color = rng.uniform(0.4, 1.0, 3)
        img = color[:, None, None] * grating[None]
        img = img + rng.normal(0.0, 0.10, img.shape)
        images[i] = np.round(np.clip(img, 0.0, 1.0) * 255.0).astype(np.uint8)
        labels[i] = label
    return Dataset(images=images, labels=labels)


def _record_dtype(h: int, w: int) -> np.dtype:
    """One packed record: u8 label, then H*W*3 bytes of interleaved RGB."""
    return np.dtype([("label", "u1"), ("pixels", "u1", (h, w, 3))])


def write_dmtd(path: str | Path, dataset: Dataset) -> None:
    images, labels = dataset.images, dataset.labels
    n, _, h, w = images.shape
    records = np.empty(n, dtype=_record_dtype(h, w))
    records["label"] = labels
    records["pixels"] = images.transpose(0, 2, 3, 1)
    write_atomic(path, [_HEADER.pack(MAGIC, VERSION, n, h, w), records.tobytes()])


def read_dmtd(path: str | Path) -> Dataset:
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise DatasetError(f"{path}: truncated header")
    magic, version, count, h, w = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise DatasetError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise DatasetError(f"{path}: unsupported version {version}")
    rec = _record_dtype(h, w)
    if len(raw) != _HEADER.size + count * rec.itemsize:
        raise DatasetError(
            f"{path}: payload is {len(raw) - _HEADER.size} bytes, expected {count * rec.itemsize}"
        )
    records = np.frombuffer(raw, dtype=rec, count=count, offset=_HEADER.size)
    return Dataset(
        images=np.ascontiguousarray(records["pixels"].transpose(0, 3, 1, 2)),
        labels=records["label"].copy(),
    )


def gen_data(out_dir: str | Path, n_train: int, n_test: int, seed: int, image_size: int = 16) -> tuple[Path, Path]:
    """Write train.dmtd / test.dmtd under out_dir; byte-reproducible per seed."""
    if n_train < 1 or n_test < 1:
        raise ValueError("n_train and n_test must be >= 1")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    if image_size < 1:
        raise ValueError(f"image_size must be >= 1, got {image_size}")
    out = Path(out_dir)
    full = generate(n_train + n_test, seed, image_size)
    train = Dataset(images=full.images[:n_train], labels=full.labels[:n_train])
    test = Dataset(images=full.images[n_train:], labels=full.labels[n_train:])
    train_path = out / "train.dmtd"
    test_path = out / "test.dmtd"
    write_dmtd(train_path, train)
    write_dmtd(test_path, test)
    return train_path, test_path


def load_train(data_dir: str | Path) -> Dataset:
    return read_dmtd(Path(data_dir) / "train.dmtd")


def load_splits(data_dir: str | Path) -> tuple[Dataset, Dataset]:
    return load_train(data_dir), read_dmtd(Path(data_dir) / "test.dmtd")
