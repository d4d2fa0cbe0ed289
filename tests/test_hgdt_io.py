"""Byte-level oracles for the HGDT tensor format, PGM export, checkpoints."""

import json
import struct

import numpy as np
import pytest

from hgd import hgdt


def test_hgdt_header_bytes_frozen(tmp_path):
    # independent byte-for-byte construction of the format:
    # magic, dtype byte (1 = f64), rank byte, u32 little-endian extents, payload
    path = tmp_path / "z.hgdt"
    hgdt.save_tensor(path, np.zeros((1, 2, 3), dtype=np.float64))
    expect = b"HGDT" + bytes([1, 3]) + struct.pack("<3I", 1, 2, 3) + b"\x00" * (6 * 8)
    assert path.read_bytes() == expect


def test_hgdt_f32_dtype_byte_and_payload(tmp_path):
    path = tmp_path / "x.hgdt"
    arr = np.array([1.5, -2.0], dtype=np.float32)
    hgdt.save_tensor(path, arr)
    raw = path.read_bytes()
    assert raw[:4] == b"HGDT"
    assert raw[4] == 0
    assert raw[5] == 1
    assert raw[6:10] == struct.pack("<I", 2)
    assert raw[10:] == struct.pack("<2f", 1.5, -2.0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_hgdt_round_trip_bit_identical(tmp_path, dtype):
    rng = np.random.default_rng(0)
    arr = rng.normal(size=(3, 4, 5)).astype(dtype)
    path = tmp_path / "t.hgdt"
    hgdt.save_tensor(path, arr)
    back = hgdt.load_tensor(path)
    assert back.dtype == np.dtype(dtype)
    assert back.shape == arr.shape
    assert np.array_equal(back.view(np.uint8), arr.view(np.uint8))


def test_hgdt_round_trip_rank1_and_rank0(tmp_path):
    v = np.array([7.0, 8.0, 9.0])
    p1 = tmp_path / "v.hgdt"
    hgdt.save_tensor(p1, v)
    assert np.array_equal(hgdt.load_tensor(p1), v)

    s = np.array(4.25)
    p0 = tmp_path / "s.hgdt"
    hgdt.save_tensor(p0, s)
    back = hgdt.load_tensor(p0)
    assert back.shape == ()
    assert back == 4.25


def test_hgdt_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.hgdt"
    path.write_bytes(b"NOPE" + bytes([1, 1]) + struct.pack("<I", 1) + b"\x00" * 8)
    with pytest.raises(ValueError, match="magic"):
        hgdt.load_tensor(path)


def test_hgdt_rejects_unknown_dtype(tmp_path):
    path = tmp_path / "bad.hgdt"
    path.write_bytes(b"HGDT" + bytes([9, 1]) + struct.pack("<I", 1) + b"\x00" * 8)
    with pytest.raises(ValueError, match="dtype"):
        hgdt.load_tensor(path)


def test_hgdt_rejects_truncated_payload(tmp_path):
    path = tmp_path / "bad.hgdt"
    path.write_bytes(b"HGDT" + bytes([1, 1]) + struct.pack("<I", 4) + b"\x00" * 8)
    with pytest.raises(ValueError, match="payload"):
        hgdt.load_tensor(path)


def test_hgdt_rejects_integer_input(tmp_path):
    with pytest.raises(ValueError, match="float"):
        hgdt.save_tensor(tmp_path / "i.hgdt", np.arange(3))


# ------------------------------------------------------------------- PGM

def test_pgm_bytes_frozen(tmp_path):
    # min-max normalization maps min->0 and max->255; 0.5 of range -> 128
    path = tmp_path / "m.pgm"
    arr = np.array([[0.0, 1.0, 2.0], [4.0, 3.0, 2.0]])
    hgdt.save_pgm(path, arr)
    raw = path.read_bytes()
    header = b"P5\n3 2\n255\n"
    assert raw[:len(header)] == header
    pix = np.frombuffer(raw[len(header):], dtype=np.uint8).reshape(2, 3)
    expect = np.rint((arr - arr.min()) / (arr.max() - arr.min()) * 255).astype(np.uint8)
    assert np.array_equal(pix, expect)
    assert pix[0, 0] == 0 and pix[1, 0] == 255 and pix[0, 2] == 128


def test_pgm_constant_map_all_zero(tmp_path):
    path = tmp_path / "c.pgm"
    hgdt.save_pgm(path, np.full((2, 2), 3.25))
    raw = path.read_bytes()
    assert raw.endswith(b"\x00" * 4)


def test_pgm_requires_2d(tmp_path):
    with pytest.raises(ValueError):
        hgdt.save_pgm(tmp_path / "x.pgm", np.zeros((2, 2, 2)))


# ------------------------------------------------------------- checkpoints

def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    named = {
        "backbone.w": rng.normal(size=(4, 3)).astype(np.float32),
        "decoder.bias": rng.normal(size=(7,)),
    }
    ckpt = tmp_path / "ckpt"
    hgdt.save_checkpoint(ckpt, named)
    manifest = json.loads((ckpt / "manifest.json").read_text())
    assert set(manifest["tensors"]) == set(named)
    assert manifest["tensors"]["decoder.bias"]["dims"] == [7]
    assert manifest["tensors"]["backbone.w"]["dtype"] == "f32"
    back = hgdt.load_checkpoint(ckpt)
    assert set(back) == set(named)
    for name in named:
        assert back[name].dtype == named[name].dtype
        assert np.array_equal(back[name], named[name])


def test_checkpoint_extra_metadata(tmp_path):
    ckpt = tmp_path / "ckpt"
    hgdt.save_checkpoint(ckpt, {"p": np.zeros(2)}, meta={"strides": [8, 16]})
    manifest = json.loads((ckpt / "manifest.json").read_text())
    assert manifest["meta"] == {"strides": [8, 16]}


def test_checkpoint_name_to_file_mapping_is_safe(tmp_path):
    # names with separators must not escape the checkpoint directory
    ckpt = tmp_path / "ckpt"
    hgdt.save_checkpoint(ckpt, {"a/b.w": np.ones(1)})
    files = {p.name for p in ckpt.iterdir()}
    assert "manifest.json" in files
    assert all("/" not in f for f in files)
    back = hgdt.load_checkpoint(ckpt)
    assert np.array_equal(back["a/b.w"], np.ones(1))


def rewrite_manifest(ckpt, edit):
    path = ckpt / "manifest.json"
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(json.dumps(manifest))


def test_checkpoint_rejects_file_outside_directory(tmp_path):
    hgdt.save_tensor(tmp_path / "x.hgdt", np.ones(2))
    ckpt = tmp_path / "ckpt"
    hgdt.save_checkpoint(ckpt, {"p": np.ones(2)})
    rewrite_manifest(ckpt, lambda m: m["tensors"]["p"].update(file="../x.hgdt"))
    with pytest.raises(ValueError, match="outside"):
        hgdt.load_checkpoint(ckpt)


@pytest.mark.parametrize("edit", [
    lambda m: m.update(tensors=[]),
    lambda m: m["tensors"]["p"].pop("dims"),
    lambda m: m["tensors"].update(p="p.hgdt"),
], ids=["tensors-list", "missing-dims", "entry-string"])
def test_checkpoint_malformed_manifest_is_value_error(tmp_path, edit):
    ckpt = tmp_path / "ckpt"
    hgdt.save_checkpoint(ckpt, {"p": np.ones(2)})
    rewrite_manifest(ckpt, edit)
    with pytest.raises(ValueError, match="manifest"):
        hgdt.load_checkpoint(ckpt)


@pytest.mark.parametrize("load", [hgdt.load_checkpoint, hgdt.load_checkpoint_meta],
                         ids=["tensors", "meta"])
def test_checkpoint_manifest_must_be_an_object(tmp_path, load):
    ckpt = tmp_path / "ckpt"
    hgdt.save_checkpoint(ckpt, {"p": np.ones(2)})
    (ckpt / "manifest.json").write_text("[]")
    with pytest.raises(ValueError, match="manifest"):
        load(ckpt)


def test_checkpoint_rejects_dtype_mismatch(tmp_path):
    ckpt = tmp_path / "ckpt"
    hgdt.save_checkpoint(ckpt, {"p": np.ones(2, dtype=np.float32)})
    rewrite_manifest(ckpt, lambda m: m["tensors"]["p"].update(dtype="f64"))
    with pytest.raises(ValueError, match="dtype"):
        hgdt.load_checkpoint(ckpt)


def _failing_write_bytes(self, data):
    """Path.write_bytes that stops halfway, as on a full disk."""
    with open(self, "wb") as fh:
        fh.write(data[:len(data) // 2])
    raise OSError(28, "No space left on device")


@pytest.mark.parametrize("save", [
    lambda d: hgdt.save_tensor(d / "t.hgdt", np.ones(64)),
    lambda d: hgdt.save_pgm(d / "m.pgm", np.eye(8)),
    lambda d: hgdt.save_checkpoint(d / "ckpt", {"p": np.ones(8)}),
], ids=["tensor", "pgm", "checkpoint"])
def test_failing_write_leaves_no_partial_file(tmp_path, monkeypatch, save):
    (tmp_path / "ckpt").mkdir()
    (tmp_path / "t.hgdt").write_bytes(b"old")
    monkeypatch.setattr(hgdt.Path, "write_bytes", _failing_write_bytes)
    with pytest.raises(OSError):
        save(tmp_path)
    # the old file is untouched, no new one appears, no temp file is left
    left = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*"))
    assert left == ["ckpt", "t.hgdt"]
    assert (tmp_path / "t.hgdt").read_bytes() == b"old"
