"""Binary checkpoint container (DMTC).

Layout: magic "DMTC" | u32 little-endian version (=1) | u64 metadata length |
UTF-8 JSON metadata | raw little-endian tensor payloads. The JSON carries a
free-form "meta" object (config echo, step, seed) and an ordered "tensors"
list of {name, shape, dtype: "f64", offset}; offsets are relative to the
start of the payload section, and "f64" is the only dtype. Round trips are
bit-exact. Names are unique, shapes and offsets are JSON integers, and the
payloads lie back to back in table order: each tensor starts where the one
before it ends, and the last one ends the file.

``write_atomic`` is fusekd's one file writer: checkpoints, datasets,
``metrics.ndjson`` and sweep tables all go through it. It creates the
parent directory, writes a temporary file beside the target, fsyncs it and
renames it over the target, so a crash or an error mid-write leaves the
previous file whole; an error also removes the temporary file.
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
_HEADER = struct.Struct("<4sIQ")  # magic, version, metadata length
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


def write_atomic(path: str | Path, chunks: list[bytes]) -> None:
    """Replace ``path`` with the concatenated byte ``chunks``, whole or not at all."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_checkpoint(
    path: str | Path,
    tensors: dict[str, np.ndarray],
    meta: dict | None = None,
) -> None:
    """Write every tensor as little-endian f64, 0-d tensors included."""
    entries = []
    blobs = []
    offset = 0
    for name, arr in tensors.items():
        a = np.asarray(arr, dtype=_F64, order="C")
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
    write_atomic(path, [_HEADER.pack(MAGIC, VERSION, len(md)), md, *blobs])


def load_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    """Returns (tensors in declared order, meta dict)."""
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise TruncatedError(f"{path}: file shorter than header")
    magic, version, md_len = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise BadMagicError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise BadVersionError(f"{path}: unsupported version {version}")
    md_end = _HEADER.size + md_len
    if len(raw) < md_end:
        raise TruncatedError(f"{path}: metadata cut short")
    try:
        doc = json.loads(raw[_HEADER.size : md_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:  # too deeply nested to decode
        raise MetadataError(f"{path}: unreadable metadata: {exc}") from exc
    if not isinstance(doc, dict):
        raise MetadataError(f"{path}: metadata is not a JSON object")
    entries, meta = doc.get("tensors", []), doc.get("meta", {})
    if not isinstance(entries, list) or not isinstance(meta, dict):
        raise MetadataError(f"{path}: 'tensors' must be a list and 'meta' an object")
    payload = raw[md_end:]
    tensors: dict[str, np.ndarray] = {}
    end = 0  # payloads lie back to back in table order, as save_checkpoint writes them
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
        if offset != end:
            raise MetadataError(f"{path}: tensor {name} starts at payload byte {offset}, not {end}")
        count = math.prod(shape)  # exact: a huge shape cannot wrap round to a small count
        end = offset + count * _F64.itemsize
        if end > len(payload):
            raise TruncatedError(
                f"{path}: tensor {name} declares {count} values past end of payload"
            )
        try:  # a zero count lets shapes numpy cannot hold, such as [0, 2**63], past the check above
            tensors[name] = np.frombuffer(payload, _F64, count, offset).reshape(shape).astype(np.float64)
        except ValueError as exc:
            raise MetadataError(f"{path}: tensor {name}: shape {shape} is not an array numpy can hold") from exc
    if end != len(payload):
        raise MetadataError(f"{path}: payload bytes {end}..{len(payload)} belong to no tensor")
    return tensors, meta


@contextmanager
def content_errors(path: str | Path):
    """Report a missing or ill-typed field of a loaded checkpoint as MetadataError."""
    try:
        yield
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise MetadataError(f"{path}: malformed checkpoint content: {exc!r}") from exc

