"""Seeded fuzz of the file readers: a malformed file raises only the typed reader errors."""

import json
import struct
from dataclasses import asdict, replace

import numpy as np
import pytest

from fusekd import checkpoint as ckpt
from fusekd import data as dat
from fusekd import optim
from fusekd import teachers as tch
from fusekd import trainer
from fusekd.config import TrainConfig, serialize_config
from fusekd.fusion import Adapter
from fusekd.vit import ViTConfig, ViTEncoder

TINY = ViTConfig(image_size=4, patch_size=2, depth=0, embed_dim=4, num_heads=1)
TYPED = (ckpt.CheckpointError, dat.DatasetError)
VALUES = (0xFF, ord("0"), ord("9"), ord("-"))  # written over one byte
NAN = struct.pack("<d", float("nan"))
TRAILING = (b"\0", b"\0" * 8, NAN)  # bytes appended after the last payload
DEPTH = 100_000  # far past the interpreter's recursion limit
HUGE = 10**12  # so wide that numpy refuses the array at once rather than allocating it
# shapes written over each tensor entry in turn; a zero count passes the size check
SHAPES = ([0, 2**63], [0] * 70, [-1], [2.0], [True], [])


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


def _shape_mutants(raw: bytes):
    """(label, bytes) with each of ``SHAPES`` written over each tensor entry's shape in turn."""
    doc = json.loads(raw[16 : _header_len(raw)])
    for entry in doc["tensors"]:
        kept = entry["shape"]
        for shape in SHAPES:
            entry["shape"] = shape
            yield f"{entry['name']} shape {str(shape)[:20]}", _with_metadata(raw, json.dumps(doc).encode())
        entry["shape"] = kept


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


def _train_config(student):
    return TrainConfig(
        student=student, teacher_paths=("t.dmtc",), dataset="data", out_dir="run", epochs=1,
        batch_size=2, schedule=optim.ScheduleSettings(warmup_epochs=0),
    )


def _train_file(path):
    student = ViTEncoder(TINY, seed=1)
    adapter = Adapter.create(TINY.embed_dim, TINY.embed_dim, seed=2)
    state = optim.init_adamw(student.parameters() + adapter.parameters())
    trainer.save_train_checkpoint(path, _train_config(TINY), student, adapter, state, step=3)
    return path.read_bytes()


def _plus(write_file, name, shape):
    """A clean file from ``write_file`` plus one tensor its writer never writes."""
    def build(path):
        write_file(path)
        tensors, meta = ckpt.load_checkpoint(path)
        ckpt.save_checkpoint(path, {**tensors, name: np.zeros(shape)}, meta=meta)
    return build


def _huge_teacher(path):
    """A teacher whose config is 10**12 wide, with no tensors."""
    config = asdict(replace(TINY, embed_dim=HUGE))
    ckpt.save_checkpoint(path, {}, meta={"kind": "teacher", "label": "", "config": config})


def _huge_train(path):
    """A training checkpoint whose student is 10**12 wide, with no tensors."""
    config = serialize_config(_train_config(replace(TINY, embed_dim=HUGE)))
    meta = {"kind": "train_state", "config": config, "step": 0, "opt_t": 0, "seed": 0}
    ckpt.save_checkpoint(path, {}, meta=meta)


def _float_width_teacher(path):
    """A clean teacher whose config gives its width as a float."""
    _teacher_file(path)
    tensors, meta = ckpt.load_checkpoint(path)
    meta["config"]["embed_dim"] = float(TINY.embed_dim)
    ckpt.save_checkpoint(path, tensors, meta=meta)


def _shaped(shape):
    """A file of one empty tensor whose entry declares ``shape``."""
    def build(path):
        ckpt.save_checkpoint(path, {"x": np.zeros(0)})
        raw = path.read_bytes()
        doc = json.loads(raw[16 : _header_len(raw)])
        doc["tensors"][0]["shape"] = shape
        path.write_bytes(_with_metadata(raw, json.dumps(doc).encode()))
    return build


def _reversed_teacher(path):
    """A clean teacher whose tensor table lists the payloads last to first."""
    raw = _teacher_file(path)
    doc = json.loads(raw[16 : _header_len(raw)])
    doc["tensors"].reverse()
    path.write_bytes(_with_metadata(raw, json.dumps(doc).encode()))


@pytest.mark.parametrize(
    "load, build",
    [
        (tch.load_teacher, _plus(_teacher_file, "junk", (3,))),
        (tch.load_teacher, _plus(_teacher_file, "b7.qkv_w", (4, 12))),
        (trainer.load_train_checkpoint, _plus(_train_file, "junk", (3,))),
        (trainer.load_train_checkpoint, _plus(_train_file, "opt.m.junk", (3,))),
        (trainer.load_train_checkpoint, _plus(_train_file, "student.b7.qkv_w", (4, 12))),
        (tch.load_teacher, _huge_teacher),
        (trainer.load_train_checkpoint, _huge_train),
        (tch.load_teacher, _reversed_teacher),
        (tch.load_teacher, _float_width_teacher),
        (ckpt.load_checkpoint, _shaped([0, 2**63])),
        (ckpt.load_checkpoint, _shaped([0] * 70)),
    ],
    ids=[
        "teacher+junk", "teacher+b7.qkv_w", "train+junk", "train+opt.m.junk",
        "train+student.b7.qkv_w", "teacher-1e12-wide", "train-1e12-wide", "teacher-reversed-table",
        "teacher-float-width", "shape-0x2**63", "shape-70-zero-dims",
    ],
)
def test_loaders_reject_what_their_writer_does_not_write(tmp_path, load, build):
    path = tmp_path / "x.dmtc"
    build(path)
    with pytest.raises(ckpt.CheckpointError):
        load(path)


def test_malformed_files_raise_only_typed_errors(tmp_path):
    rng = np.random.default_rng(0)
    teacher = _teacher_file(tmp_path / "teacher.dmtc")
    train = _train_file(tmp_path / "train.dmtc")
    ckpt.save_checkpoint(tmp_path / "scalar.dmtc", {"s": np.float64(2.5)})
    scalar = (tmp_path / "scalar.dmtc").read_bytes()
    ds = dat.generate(2, seed=0, image_size=4)
    dat.write_dmtd(tmp_path / "d.dmtd", ds)
    dmtd = (tmp_path / "d.dmtd").read_bytes()
    deep = b"[" * DEPTH + b"]" * DEPTH
    cases = [
        ("load_checkpoint", ckpt.load_checkpoint, teacher, True),
        ("load_checkpoint 0-d", ckpt.load_checkpoint, scalar, True),
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
            mutants += list(_shape_mutants(raw))
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
