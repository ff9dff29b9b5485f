"""Binary checkpoint container (DMTC).

Layout: magic "DMTC" | u32 little-endian version (=1) | u64 metadata length |
UTF-8 JSON metadata | raw little-endian tensor payloads. The JSON carries a
free-form "meta" object (config echo, step, seed) and an ordered "tensors"
list of {name, shape, dtype: "f64", offset}; offsets are relative to the
start of the payload section, and "f64" is the only dtype. Round trips are
bit-exact. Names are unique, shapes and offsets are JSON integers and
payload ranges do not overlap. A save replaces the target atomically: a
crash mid-write leaves the previous file.
"""

from __future__ import annotations

import json
import math
import os
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

MAGIC = b"DMTC"
VERSION = 1
_F64 = np.dtype("<f8")


class CheckpointError(Exception):
    pass


class BadMagicError(CheckpointError):
    pass


class BadVersionError(CheckpointError):
    pass


class TruncatedError(CheckpointError):
    pass


class MetadataError(CheckpointError):
    pass


def save_checkpoint(
    path: str | Path,
    tensors: dict[str, np.ndarray],
    meta: dict | None = None,
) -> None:
    """Write every tensor as little-endian f64."""
    entries = []
    blobs = []
    offset = 0
    for name, arr in tensors.items():
        a = np.ascontiguousarray(np.asarray(arr), dtype=_F64)
        blob = a.tobytes()
        entries.append(
            {"name": name, "shape": list(a.shape), "dtype": "f64", "offset": offset}
        )
        blobs.append(blob)
        offset += len(blob)
    doc = {
        "format_version": VERSION,
        "meta": meta or {},
        "tensors": entries,
    }
    md = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", VERSION))
            fh.write(struct.pack("<Q", len(md)))
            fh.write(md)
            for blob in blobs:
                fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    """Returns (tensors in declared order, meta dict)."""
    raw = Path(path).read_bytes()
    if len(raw) < 16:
        raise TruncatedError(f"{path}: file shorter than header")
    if raw[:4] != MAGIC:
        raise BadMagicError(f"{path}: bad magic {raw[:4]!r}")
    (version,) = struct.unpack("<I", raw[4:8])
    if version != VERSION:
        raise BadVersionError(f"{path}: unsupported version {version}")
    (md_len,) = struct.unpack("<Q", raw[8:16])
    if len(raw) < 16 + md_len:
        raise TruncatedError(f"{path}: metadata cut short")
    try:
        doc = json.loads(raw[16 : 16 + md_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:  # too deeply nested to decode
        raise MetadataError(f"{path}: unreadable metadata: {exc}") from exc
    if not isinstance(doc, dict):
        raise MetadataError(f"{path}: metadata is not a JSON object")
    entries, meta = doc.get("tensors", []), doc.get("meta", {})
    if not isinstance(entries, list) or not isinstance(meta, dict):
        raise MetadataError(f"{path}: 'tensors' must be a list and 'meta' an object")
    payload = raw[16 + md_len :]
    tensors: dict[str, np.ndarray] = {}
    ranges = []
    for entry in entries:
        try:
            name, shape, dtype, offset = entry["name"], entry["shape"], entry["dtype"], entry["offset"]
        except (KeyError, TypeError) as exc:
            raise MetadataError(f"{path}: malformed tensor entry {entry!r}") from exc
        # JSON integers only: 2.7, true or "2" must not be truncated or coerced
        if (
            not isinstance(name, str)
            or not isinstance(shape, list)
            or not all(type(s) is int and s >= 0 for s in shape)
            or type(offset) is not int
        ):
            raise MetadataError(f"{path}: malformed tensor entry {entry!r}")
        if name in tensors:
            raise MetadataError(f"{path}: duplicate tensor name {name!r}")
        if dtype != "f64":
            raise MetadataError(f"{path}: tensor {name}: unknown dtype {dtype!r}")
        count = math.prod(shape)  # exact: a huge shape cannot wrap round to a small count
        end = offset + count * _F64.itemsize
        if offset < 0 or end > len(payload):
            raise TruncatedError(
                f"{path}: tensor {name} declares {count} values past end of payload"
            )
        if end > offset:  # zero-length tensors occupy no bytes
            ranges.append((offset, end, name))
        tensors[name] = np.frombuffer(payload, _F64, count, offset).reshape(shape).astype(np.float64)
    ranges.sort()
    for (_, end, first), (start, _, second) in zip(ranges, ranges[1:]):
        if start < end:
            raise MetadataError(f"{path}: tensors {first!r} and {second!r} overlap in the payload")
    return tensors, meta


@contextmanager
def content_errors(path: str | Path):
    """Report a missing or ill-typed field of a loaded checkpoint as MetadataError."""
    try:
        yield
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise MetadataError(f"{path}: malformed checkpoint content: {exc!r}") from exc

