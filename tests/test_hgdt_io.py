"""Byte-level oracles for the HGDT tensor format, PGM export, checkpoints."""

import json
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hgd import hgdt
from hgd.efficientfcn import (TrainConfig, init_seg_params, tiny_backbone_config,
                              tiny_hgd_config, train_segmenter)
from hgd.synthdata import synth_dataset


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


def test_hgdt_rejects_extent_beyond_uint32(tmp_path):
    # a zero-size array holds no data, so any extent is cheap to make
    path = tmp_path / "wide.hgdt"
    with pytest.raises(ValueError, match="axis 1 extent 8589934592"):
        hgdt.save_tensor(path, np.zeros((0, 2**33)))
    assert not path.exists()


def test_hgdt_rejects_integer_input(tmp_path):
    with pytest.raises(ValueError, match="float"):
        hgdt.save_tensor(tmp_path / "i.hgdt", np.arange(3))


def load_round_trips_or_value_error(path, raw):
    """Load `raw` from `path`: either it loads and saving the result writes
    the same bytes back, or load_tensor raises ValueError whose message
    names the file and reports only non-negative sizes."""
    path.write_bytes(raw)
    try:
        arr = hgdt.load_tensor(path)
    except ValueError as exc:
        assert str(exc).startswith(f"{path}: "), str(exc)
        message = str(exc).removeprefix(f"{path}: ")
        assert all(int(n) >= 0 for n in re.findall(r"-?\d+", message)), message
        return
    hgdt.save_tensor(path, arr)
    assert path.read_bytes() == raw


_FUZZ = settings(max_examples=200, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


@st.composite
def valid_hgdt_files(draw):
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    shape = tuple(draw(st.lists(st.integers(0, 3), max_size=3)))
    values = draw(st.lists(st.floats(width=32), min_size=math.prod(shape),
                           max_size=math.prod(shape)))
    arr = np.array(values, dtype=dtype).reshape(shape)
    header = b"HGDT" + bytes([0 if dtype == np.float32 else 1, arr.ndim])
    header += struct.pack(f"<{arr.ndim}I", *shape)
    return header + arr.astype(arr.dtype.newbyteorder("<")).tobytes()


@_FUZZ
@given(raw=valid_hgdt_files(), cut=st.integers(0, 10**6))
def test_load_tensor_fuzz_truncation(tmp_path, raw, cut):
    load_round_trips_or_value_error(tmp_path / "t.hgdt", raw[:cut % (len(raw) + 1)])


@_FUZZ
@given(raw=valid_hgdt_files(), at=st.integers(0, 10**6), mask=st.integers(1, 255))
def test_load_tensor_fuzz_byte_flip(tmp_path, raw, at, mask):
    flipped = bytearray(raw)
    flipped[at % len(raw)] ^= mask
    load_round_trips_or_value_error(tmp_path / "t.hgdt", bytes(flipped))


@st.composite
def random_headers(draw):
    code = draw(st.sampled_from([0, 1]) | st.integers(0, 255))
    extents = draw(st.lists(st.integers(0, 3) | st.sampled_from([2**31, 2**32 - 1])
                            | st.integers(0, 2**32 - 1), max_size=8))
    header = b"HGDT" + bytes([code, len(extents)]) + struct.pack(f"<{len(extents)}I", *extents)
    exact = math.prod(extents) * (4 if code == 0 else 8)
    if exact <= 256 and draw(st.booleans()):
        return header + draw(st.binary(min_size=exact, max_size=exact))
    return header + draw(st.binary(max_size=64))


@_FUZZ
@given(raw=random_headers())
@example(raw=b"HGDT" + bytes([1, 4]) + struct.pack("<4I", *[2**32 - 1] * 4))
@example(raw=b"HGDT" + bytes([1, 70]) + struct.pack("<70I", 0, *[1] * 69))  # numpy's rank cap
def test_load_tensor_fuzz_random_header(tmp_path, raw):
    load_round_trips_or_value_error(tmp_path / "t.hgdt", raw)


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


@pytest.mark.parametrize("bad", [[np.nan], [np.inf], [np.nan, -np.inf]],
                         ids=["nan", "inf", "nan-and-minus-inf"])
def test_pgm_refuses_non_finite_map(tmp_path, bad):
    # a NaN would make min() NaN and render the whole map black; an inf
    # would cast NaN pixels to uint8
    arr = np.arange(12.0).reshape(3, 4)
    arr.flat[:len(bad)] = bad
    path = tmp_path / "m.pgm"
    with pytest.raises(ValueError, match=rf"m\.pgm: .*got {len(bad)} non-finite"):
        hgdt.save_pgm(path, arr)
    assert not path.exists()


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


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text("xyz", max_size=3), inner, max_size=3),
    max_leaves=6)


@_FUZZ
@given(data=st.data())
def test_load_checkpoint_fuzz_manifest(tmp_path, data):
    """A manifest edited into any JSON shape, with file names that leave the
    directory by `..` or an absolute path, either loads the tensors of the
    files it names inside the directory or raises ValueError."""
    ckpt = tmp_path / "ckpt"
    saved = {"a": np.arange(6, dtype=np.float32).reshape(2, 3), "b": np.ones(4)}
    hgdt.save_checkpoint(ckpt, saved)
    for name, arr in saved.items():
        # same dims and dtype as the entry, so only the confinement rejects it
        hgdt.save_tensor(tmp_path / f"{name}.hgdt", arr)
    inside = {(ckpt / f"{name}.hgdt").resolve(): arr for name, arr in saved.items()}
    names = st.sampled_from([
        "a.hgdt", "b.hgdt", "manifest.json", "", ".", "..", "../a.hgdt", "../b.hgdt",
        "../ckpt/b.hgdt", "/", str(tmp_path / "a.hgdt"), str(tmp_path / "b.hgdt"),
        str(ckpt / "a.hgdt")])

    manifest = json.loads((ckpt / "manifest.json").read_text())
    for entry in manifest["tensors"].values():
        if data.draw(st.booleans()):
            entry["file"] = data.draw(names | json_values.filter(lambda v: not isinstance(v, str)))
    for _ in range(data.draw(st.integers(0, 2))):
        target = data.draw(st.sampled_from(["tensors", "a", "b", "new", "field"]))
        if target == "tensors":
            manifest["tensors"] = data.draw(json_values)
            continue
        entries = manifest.get("tensors")
        if not isinstance(entries, dict):
            continue
        if target != "field":
            entries[target] = data.draw(json_values)
            continue
        entry = entries.get(data.draw(st.sampled_from(["a", "b"])))
        if not isinstance(entry, dict):
            continue
        key = data.draw(st.sampled_from(["file", "dims", "dtype"]))
        if data.draw(st.booleans()):
            entry.pop(key, None)
        elif key != "file":
            entry[key] = data.draw(json_values | st.sampled_from([[2, 3], [4], "f32", "f64"]))
    (ckpt / "manifest.json").write_text(json.dumps(manifest))

    try:
        out = hgdt.load_checkpoint(ckpt)
    except ValueError:
        return
    assert set(out) == set(manifest["tensors"])
    for name, arr in out.items():
        entry = manifest["tensors"][name]
        want = inside[(ckpt / entry["file"]).resolve()]
        assert arr.dtype == want.dtype and np.array_equal(arr, want)
        assert list(arr.shape) == entry["dims"]


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


def test_checkpoint_manifest_must_be_an_object(tmp_path):
    ckpt = tmp_path / "ckpt"
    hgdt.save_checkpoint(ckpt, {"p": np.ones(2)})
    (ckpt / "manifest.json").write_text("[]")
    with pytest.raises(ValueError, match="manifest"):
        hgdt.load_checkpoint(ckpt)


@pytest.mark.parametrize("raw", [b"{bad", b"\xff\xfe", b""], ids=["json", "utf8", "empty"])
def test_checkpoint_unparsable_manifest_names_it(tmp_path, raw):
    ckpt = tmp_path / "ckpt"
    hgdt.save_checkpoint(ckpt, {"p": np.ones(2)})
    (ckpt / "manifest.json").write_bytes(raw)
    with pytest.raises(ValueError, match=f"^{re.escape(str(ckpt))}: malformed manifest"):
        hgdt.load_checkpoint(ckpt)


def test_checkpoint_rejects_dtype_mismatch(tmp_path):
    ckpt = tmp_path / "ckpt"
    hgdt.save_checkpoint(ckpt, {"p": np.ones(2, dtype=np.float32)})
    rewrite_manifest(ckpt, lambda m: m["tensors"]["p"].update(dtype="f64"))
    with pytest.raises(ValueError, match="dtype"):
        hgdt.load_checkpoint(ckpt)


def train_one_step(log_path):
    samples = synth_dataset(seed=0, count=1, size=32, num_classes=3)
    params = init_seg_params(tiny_backbone_config(), tiny_hgd_config(), 3,
                             np.random.default_rng(0))
    train_segmenter(samples, params, TrainConfig(max_iter=1, batch=1), 3,
                    np.random.default_rng(1), log_path=log_path)


def _failing_write_bytes(self, data):
    """Path.write_bytes that stops halfway, as on a full disk."""
    with open(self, "wb") as fh:
        fh.write(data[:len(data) // 2])
    raise OSError(28, "No space left on device")


@pytest.mark.parametrize("save", [
    lambda d: hgdt.save_tensor(d / "t.hgdt", np.ones(64)),
    lambda d: hgdt.save_pgm(d / "m.pgm", np.eye(8)),
    lambda d: hgdt.save_checkpoint(d / "ckpt", {"p": np.ones(8)}),
    lambda d: train_one_step(d / "train_log.csv"),
], ids=["tensor", "pgm", "checkpoint", "train_log"])
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
