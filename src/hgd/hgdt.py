"""Tensor serialization: the HGDT binary format, PGM export, checkpoints.

HGDT layout: magic "HGDT", one dtype byte (0 = float32, 1 = float64), one
rank byte, rank little-endian uint32 extents, then the row-major payload in
little-endian order. Round trips are bit-identical.

PGM export writes binary (P5) 8-bit graymaps with per-map min-max
normalization; a constant map renders as all black, and a map holding NaN
or inf is refused with ValueError. These are qualitative visual dumps, so
the normalization is documented rather than invertible.

A checkpoint is a directory of HGDT files plus manifest.json mapping each
tensor name to its file, dims, and dtype (its hgd.tensor.PRECISIONS name).
The optional "meta" entry is written for readers of manifest.json; the
library does not read it back.

Every file is written atomically (write_atomic): a write that fails leaves
the target as it was, never a partial file.
"""

from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .tensor import Tensor, precision_of

_MAGIC = b"HGDT"
_DTYPE_TO_CODE = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_TO_DTYPE = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


def _as_array(tensor_or_array) -> np.ndarray:
    if isinstance(tensor_or_array, Tensor):
        return tensor_or_array.data
    return np.asarray(tensor_or_array)


def write_atomic(path, data: bytes) -> None:
    """Write `data` to a temporary file beside `path`, then os.replace it
    into place; on any failure the temporary file is removed."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def save_tensor(path, tensor_or_array) -> None:
    arr = _as_array(tensor_or_array)
    code = _DTYPE_TO_CODE.get(arr.dtype)
    if code is None:
        raise ValueError(f"only float32/float64 tensors are serializable, got {arr.dtype}")
    if arr.ndim > 255:
        raise ValueError("rank exceeds the format's single byte")
    for axis, extent in enumerate(arr.shape):
        if extent > 0xFFFFFFFF:
            raise ValueError(f"axis {axis} extent {extent} exceeds the format's uint32")
    header = _MAGIC + bytes([code, arr.ndim])
    header += struct.pack(f"<{arr.ndim}I", *arr.shape)
    payload = np.ascontiguousarray(arr).astype(arr.dtype.newbyteorder("<"), copy=False)
    write_atomic(path, header + payload.tobytes())


def load_tensor(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if raw[:4] != _MAGIC:
        raise ValueError(f"{path}: bad magic, not an HGDT file")
    if len(raw) < 6:
        raise ValueError(f"{path}: truncated header")
    code, rank = raw[4], raw[5]
    dtype = _CODE_TO_DTYPE.get(code)
    if dtype is None:
        raise ValueError(f"{path}: unknown dtype code {code}")
    body = 6 + 4 * rank
    if len(raw) < body:
        raise ValueError(f"{path}: truncated extents")
    shape = struct.unpack(f"<{rank}I", raw[6:body])
    count = math.prod(shape)
    expected = body + count * dtype.itemsize
    if len(raw) != expected:
        raise ValueError(f"{path}: payload is {len(raw) - body} bytes, expected {expected - body}")
    arr = np.frombuffer(raw, dtype=dtype, count=count, offset=body)
    try:
        arr = arr.reshape(shape)
    except ValueError as exc:   # e.g. a rank numpy cannot hold
        raise ValueError(f"{path}: {exc}") from None
    # native-order writable copy
    return arr.astype(dtype.newbyteorder("="))


def save_pgm(path, array2d) -> None:
    arr = _as_array(array2d)
    if arr.ndim != 2:
        raise ValueError(f"PGM export needs a 2-D map, got dims {arr.shape}")
    bad = int(np.count_nonzero(~np.isfinite(arr)))
    if bad:
        raise ValueError(f"{path}: PGM export needs a finite map, got {bad} non-finite values")
    lo = float(arr.min())
    hi = float(arr.max())
    if hi > lo:
        scaled = (arr - lo) / (hi - lo) * 255.0
    else:
        scaled = np.zeros_like(arr, dtype=np.float64)
    pix = np.clip(np.rint(scaled), 0, 255).astype(np.uint8)
    h, w = arr.shape
    write_atomic(path, f"P5\n{w} {h}\n255\n".encode("ascii") + pix.tobytes())


# ---------------------------------------------------------------- checkpoints

def _file_stem(name: str, taken: set) -> str:
    stem = "".join(ch if (ch.isalnum() or ch in "._-") else "_" for ch in name)
    candidate = stem
    i = 1
    while candidate in taken:
        candidate = f"{stem}.{i}"
        i += 1
    taken.add(candidate)
    return candidate


def save_checkpoint(directory, named_tensors, meta: dict | None = None) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    entries = {}
    taken = {"manifest"}
    for name, value in named_tensors.items():
        arr = _as_array(value)
        stem = _file_stem(name, taken)
        save_tensor(directory / f"{stem}.hgdt", arr)
        entries[name] = {
            "file": f"{stem}.hgdt",
            "dims": list(arr.shape),
            "dtype": precision_of(arr.dtype),
        }
    manifest = {"tensors": entries}
    if meta is not None:
        manifest["meta"] = meta
    write_atomic(directory / "manifest.json",
                 json.dumps(manifest, indent=2, sort_keys=True).encode())


def load_checkpoint(directory) -> dict:
    """Tensors by name; ValueError for a malformed manifest, a file outside
    `directory`, or a file whose dims or dtype differ from its entry."""
    directory = Path(directory)
    try:
        manifest = json.loads((directory / "manifest.json").read_text())
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ValueError(f"{directory}: malformed manifest ({exc})") from None
    if not isinstance(manifest, dict):
        raise ValueError(f"{directory}: malformed manifest (top level is "
                         f"{type(manifest).__name__}, not an object)")
    try:
        entries = [(name, (directory / e["file"]).resolve(), e["dims"], e["dtype"])
                   for name, e in manifest["tensors"].items()]
    except (AttributeError, KeyError, TypeError) as exc:
        raise ValueError(f"{directory}: malformed manifest ({exc!r})") from None
    root = directory.resolve()
    out = {}
    for name, path, dims, dtype in entries:
        if root not in path.parents:
            raise ValueError(f"{name}: file {path} is outside {directory}")
        arr = load_tensor(path)
        if list(arr.shape) != dims:
            raise ValueError(f"{name}: manifest dims {dims} != file dims {list(arr.shape)}")
        kind = precision_of(arr.dtype)
        if kind != dtype:
            raise ValueError(f"{name}: manifest dtype {dtype!r} != file dtype {kind}")
        out[name] = arr
    return out
