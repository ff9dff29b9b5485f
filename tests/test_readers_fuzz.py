"""Seeded fuzz of the file readers: a malformed file raises only the typed reader errors."""

import struct

import numpy as np

from fusekd import checkpoint as ckpt
from fusekd import data as dat
from fusekd import optim
from fusekd import teachers as tch
from fusekd import trainer
from fusekd.config import TrainConfig
from fusekd.fusion import Adapter
from fusekd.vit import ViTConfig, ViTEncoder

TINY = ViTConfig(image_size=4, patch_size=2, depth=0, embed_dim=4, num_heads=1)
TYPED = (ckpt.CheckpointError, dat.DatasetError)
VALUES = (0xFF, ord("0"), ord("9"), ord("-"))  # written over one byte
NAN = struct.pack("<d", float("nan"))
TRAILING = (b"\0", b"\0" * 8, NAN)  # bytes appended after the last payload
DEPTH = 100_000  # far past the interpreter's recursion limit


def _with_metadata(raw: bytes, md: bytes) -> bytes:
    """``raw`` (a DMTC file) with its metadata swapped for ``md``; payload kept."""
    (md_len,) = struct.unpack("<Q", raw[8:16])
    return raw[:8] + struct.pack("<Q", len(md)) + md + raw[16 + md_len :]


def _header_len(raw: bytes) -> int:
    """Header plus metadata length of a DMTC file."""
    return 16 + struct.unpack("<Q", raw[8:16])[0]


def _nan_slots(raw: bytes, header_len: int):
    """(label, bytes) with a NaN written over each 8-byte payload slot in turn."""
    for off in range(header_len, len(raw) - 7, 8):
        yield f"NaN at payload byte {off - header_len}", raw[:off] + NAN + raw[off + 8 :]


def _mutants(raw: bytes, header_len: int, rng: np.random.Generator, payload_slots: bool):
    """(label, bytes) for every mutation of a file whose header (and metadata) is ``header_len`` bytes."""
    for n in range(len(raw)):
        yield f"truncated to {n} bytes", raw[:n]
    for i in range(header_len):
        for v in VALUES:
            if raw[i] != v:
                yield f"byte {i} set to {v:#04x}", raw[:i] + bytes([v]) + raw[i + 1 :]
    if payload_slots:
        yield from _nan_slots(raw, header_len)
    for extra in TRAILING:
        yield f"{len(extra)} trailing bytes", raw + extra
    for k in range(50):  # a few random bytes anywhere, random values
        buf = bytearray(raw)
        for i in rng.integers(0, len(raw), size=int(rng.integers(1, 5))):
            buf[i] = int(rng.integers(0, 256))
        yield f"random overwrite {k}", bytes(buf)


def _teacher_file(path):
    tch.save_teacher(ViTEncoder(TINY, seed=0).freeze(), path, label="tiny")
    return path.read_bytes()


def _train_file(path):
    cfg = TrainConfig(
        student=TINY, teacher_paths=("t.dmtc",), dataset="data", out_dir="run", epochs=1,
        batch_size=2, schedule=optim.ScheduleSettings(warmup_epochs=0),
    )
    student = ViTEncoder(TINY, seed=1)
    adapter = Adapter.create(TINY.embed_dim, TINY.embed_dim, seed=2)
    state = optim.init_adamw(student.parameters() + adapter.parameters())
    trainer.save_train_checkpoint(path, cfg, student, adapter, state, step=3)
    return path.read_bytes()


def test_malformed_files_raise_only_typed_errors(tmp_path):
    rng = np.random.default_rng(0)
    teacher = _teacher_file(tmp_path / "teacher.dmtc")
    train = _train_file(tmp_path / "train.dmtc")
    ds = dat.generate(2, seed=0, image_size=4)
    dat.write_dmtd(tmp_path / "d.dmtd", ds)
    dmtd = (tmp_path / "d.dmtd").read_bytes()
    deep = b"[" * DEPTH + b"]" * DEPTH
    cases = [
        ("load_checkpoint", ckpt.load_checkpoint, teacher, True),
        ("load_teacher", tch.load_teacher, teacher, True),
        ("load_train_checkpoint", trainer.load_train_checkpoint, train, True),
        ("read_dmtd", dat.read_dmtd, dmtd, False),
    ]
    escaped, tried = [], 0
    for name, reader, raw, is_dmtc in cases:
        header_len = _header_len(raw) if is_dmtc else 16
        mutants = list(_mutants(raw, header_len, rng, payload_slots=is_dmtc))
        if is_dmtc:
            mutants.append(("metadata nested 100,000 deep", _with_metadata(raw, deep)))
        p = tmp_path / f"mutant-{name}"
        for label, data in mutants:
            p.write_bytes(data)
            tried += 1
            try:
                reader(p)
            except TYPED:
                pass
            except Exception as exc:  # anything else is a reader bug
                escaped.append(f"{name}, {label}: {type(exc).__name__}: {exc}"[:300])
    assert tried > 10_000
    assert not escaped, f"{len(escaped)} of {tried} mutants escaped:\n" + "\n".join(escaped[:20])


def test_unowned_bytes_and_nan_weights_or_moments_raise(tmp_path):
    """Bytes after the last tensor fail every DMTC reader; a NaN in any
    payload slot fails the loaders that build an encoder or optimizer state."""
    teacher = _teacher_file(tmp_path / "teacher.dmtc")
    train = _train_file(tmp_path / "train.dmtc")
    cases = [
        ("load_checkpoint", ckpt.load_checkpoint, teacher, False),
        ("load_checkpoint", ckpt.load_checkpoint, train, False),
        ("load_teacher", tch.load_teacher, teacher, True),
        ("load_train_checkpoint", trainer.load_train_checkpoint, train, True),
    ]
    loaded, tried = [], 0
    p = tmp_path / "mutant.dmtc"
    for name, reader, raw, nan_slots in cases:
        mutants = [(f"{len(extra)} trailing bytes", raw + extra) for extra in TRAILING]
        if nan_slots:
            mutants += list(_nan_slots(raw, _header_len(raw)))
        for label, data in mutants:
            p.write_bytes(data)
            tried += 1
            try:
                reader(p)
            except ckpt.CheckpointError:
                continue
            loaded.append(f"{name}, {label}")
    assert tried > 100
    assert not loaded, f"{len(loaded)} of {tried} mutants loaded:\n" + "\n".join(loaded[:20])
