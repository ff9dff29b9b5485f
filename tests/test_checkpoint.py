"""DMTC checkpoint container: layout, round trips, and failure modes."""

import json
import os
import struct

import numpy as np
import pytest

from fusekd import checkpoint as ckpt
from fusekd.cli import main


def sample_tensors(rng):
    return {
        "w": rng.normal(size=(3, 4)),
        "b": rng.normal(size=(4,)),
        "scalarish": rng.normal(size=(1,)),
    }


def _entry(name, shape, offset):
    return {"name": name, "shape": shape, "dtype": "f64", "offset": offset}


class TestRoundTrip:
    def test_f64_bit_exact(self, tmp_path, rng):
        tensors = sample_tensors(rng)
        p = tmp_path / "x.dmtc"
        ckpt.save_checkpoint(p, tensors, meta={"step": 7, "seed": 0})
        back, meta = ckpt.load_checkpoint(p)
        assert list(back) == list(tensors)
        for name in tensors:
            np.testing.assert_array_equal(back[name], tensors[name])
            assert back[name].dtype == np.float64
        assert meta == {"step": 7, "seed": 0}

    def test_save_load_save_identical_bytes(self, tmp_path, rng):
        tensors = sample_tensors(rng)
        p1 = tmp_path / "a.dmtc"
        p2 = tmp_path / "b.dmtc"
        ckpt.save_checkpoint(p1, tensors, meta={"k": 1})
        back, meta = ckpt.load_checkpoint(p1)
        ckpt.save_checkpoint(p2, back, meta=meta)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_layout(self, tmp_path, rng):
        p = tmp_path / "x.dmtc"
        ckpt.save_checkpoint(p, {"w": np.zeros(2)}, meta={})
        raw = p.read_bytes()
        assert raw[:4] == b"DMTC"
        (version,) = struct.unpack("<I", raw[4:8])
        (md_len,) = struct.unpack("<Q", raw[8:16])
        assert version == 1
        doc = json.loads(raw[16 : 16 + md_len])
        assert doc["tensors"][0]["name"] == "w"
        assert doc["tensors"][0]["dtype"] == "f64"
        assert len(raw) == 16 + md_len + 2 * 8


class TestFailureModes:
    def _write(self, tmp_path, rng):
        p = tmp_path / "x.dmtc"
        ckpt.save_checkpoint(p, sample_tensors(rng))
        return p

    def test_flipped_magic_byte(self, tmp_path, rng):
        p = self._write(tmp_path, rng)
        raw = bytearray(p.read_bytes())
        raw[0] ^= 0x01
        p.write_bytes(bytes(raw))
        with pytest.raises(ckpt.BadMagicError):
            ckpt.load_checkpoint(p)

    def test_bad_version(self, tmp_path, rng):
        p = self._write(tmp_path, rng)
        raw = bytearray(p.read_bytes())
        raw[4:8] = struct.pack("<I", 99)
        p.write_bytes(bytes(raw))
        with pytest.raises(ckpt.BadVersionError):
            ckpt.load_checkpoint(p)

    def test_truncated_payload(self, tmp_path, rng):
        # metadata declares 10 floats; give the payload only 9
        p = tmp_path / "x.dmtc"
        ckpt.save_checkpoint(p, {"w": np.arange(10, dtype=np.float64)})
        raw = p.read_bytes()
        p.write_bytes(raw[:-8])
        with pytest.raises(ckpt.TruncatedError):
            ckpt.load_checkpoint(p)

    def test_truncated_metadata(self, tmp_path, rng):
        p = self._write(tmp_path, rng)
        raw = p.read_bytes()
        p.write_bytes(raw[:20])
        with pytest.raises(ckpt.TruncatedError):
            ckpt.load_checkpoint(p)

    def test_malformed_metadata_json(self, tmp_path):
        md = b"not json at all"
        body = b"DMTC" + struct.pack("<I", 1) + struct.pack("<Q", len(md)) + md
        p = tmp_path / "x.dmtc"
        p.write_bytes(body)
        with pytest.raises(ckpt.MetadataError):
            ckpt.load_checkpoint(p)

    @pytest.mark.parametrize("dtype", ["f16", "f32"])  # f64 is the only on-disk dtype
    def test_bad_dtype_in_metadata(self, tmp_path, dtype):
        doc = {
            "format_version": 1,
            "meta": {},
            "tensors": [{"name": "w", "shape": [1], "dtype": dtype, "offset": 0}],
        }
        md = json.dumps(doc).encode()
        p = tmp_path / "x.dmtc"
        p.write_bytes(b"DMTC" + struct.pack("<I", 1) + struct.pack("<Q", len(md)) + md + b"\0" * 8)
        with pytest.raises(ckpt.MetadataError):
            ckpt.load_checkpoint(p)

    @pytest.mark.parametrize(
        "doc, payload",
        [
            ([1, 2], b""),  # top level is not an object
            ({"meta": {}, "tensors": 3}, b""),
            ({"meta": [1], "tensors": []}, b""),
            ({"meta": {}, "tensors": [{"name": "w", "shape": [1], "dtype": ["f64"], "offset": 0}]}, b"\0" * 8),
            # a -1 dimension must not read "the rest of the payload"
            ({"meta": {}, "tensors": [{"name": "w", "shape": [-1, 2], "dtype": "f64", "offset": 0}]}, b"\0" * 32),
            # a repeated name must not let the later entry silently win
            ({"meta": {}, "tensors": [_entry("w", [1], 0), _entry("w", [1], 8)]}, b"\0" * 16),
            ({"meta": {}, "tensors": [_entry("a", [2], 0), _entry("b", [2], 8)]}, b"\0" * 24),
            # dims and offsets are JSON integers: nothing truncated or coerced
            ({"meta": {}, "tensors": [_entry("w", [2.7], 0)]}, b"\0" * 24),
            ({"meta": {}, "tensors": [_entry("w", [1], 8.9)]}, b"\0" * 24),
            ({"meta": {}, "tensors": [_entry("w", [True], 0)]}, b"\0" * 8),
            ({"meta": {}, "tensors": [_entry("w", ["2"], 0)]}, b"\0" * 16),
            ({"meta": {}, "tensors": [_entry("w", [1], True)]}, b"\0" * 16),
            ({"meta": {}, "tensors": [_entry("w", [1], "0")]}, b"\0" * 8),
        ],
        ids=[
            "list-document", "tensors-int", "meta-list", "dtype-list", "negative-dim",
            "duplicate-name", "overlapping-ranges", "float-dim", "float-offset",
            "bool-dim", "string-dim", "bool-offset", "string-offset",
        ],
    )
    def test_ill_typed_metadata_is_metadata_error(self, tmp_path, doc, payload):
        md = json.dumps(doc).encode()
        p = tmp_path / "x.dmtc"
        p.write_bytes(b"DMTC" + struct.pack("<I", 1) + struct.pack("<Q", len(md)) + md + payload)
        with pytest.raises(ckpt.MetadataError):
            ckpt.load_checkpoint(p)

    def test_zero_length_tensors_never_overlap(self, tmp_path):
        doc = {"meta": {}, "tensors": [_entry("a", [0], 0), _entry("b", [1], 0), _entry("c", [0, 3], 4)]}
        md = json.dumps(doc).encode()
        p = tmp_path / "x.dmtc"
        p.write_bytes(b"DMTC" + struct.pack("<I", 1) + struct.pack("<Q", len(md)) + md + b"\0" * 8)
        tensors, _ = ckpt.load_checkpoint(p)
        assert [t.shape for t in tensors.values()] == [(0,), (1,), (0, 3)]

    def test_failed_overwrite_keeps_old_bytes_and_no_temp_file(self, tmp_path, rng, monkeypatch):
        p = tmp_path / "x.dmtc"
        ckpt.save_checkpoint(p, sample_tensors(rng), meta={"v": 1})
        old = p.read_bytes()

        def failing_fsync(fd):
            raise OSError("disk full")

        monkeypatch.setattr(os, "fsync", failing_fsync)
        with pytest.raises(OSError, match="disk full"):
            ckpt.save_checkpoint(p, sample_tensors(rng), meta={"v": 2})
        assert p.read_bytes() == old
        assert [q.name for q in tmp_path.iterdir()] == ["x.dmtc"]

    def test_errors_are_distinct_types(self):
        assert issubclass(ckpt.BadMagicError, ckpt.CheckpointError)
        kinds = {ckpt.BadMagicError, ckpt.BadVersionError, ckpt.TruncatedError, ckpt.MetadataError}
        assert len(kinds) == 4


class TestDescribe:
    def test_summary_fields(self, tmp_path, rng, capsys):
        p = tmp_path / "x.dmtc"
        ckpt.save_checkpoint(p, sample_tensors(rng), meta={"kind": "test"})
        assert main(["inspect-ckpt", str(p)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "version: 1"
        assert f"total_parameters: {3 * 4 + 4 + 1}" in lines
        rows = [line.split() for line in lines[3:-1]]
        assert [r[0] for r in rows] == ["w", "b", "scalarish"]
        assert all(r[2] == "f64" for r in rows)
