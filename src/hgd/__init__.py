"""Codeword-based feature decoding toolkit.

Dense tensors with reverse-mode differentiation, the holistically-guided
decoder (softmax-pooled codewords reassembled at high resolution), a toy
segmentation stack around it, a pyramid-decoder variant, and an analytic
MAC/parameter cost model.

Importing the package sets two process-wide things: the BLAS thread cap
(HGD_THREADS, default 1) and, under glibc, malloc's mmap threshold (32 MiB)
and trim threshold (1 GiB), so arrays below 32 MiB come from the heap and
their freed pages stay in the process for the next call instead of being
faulted in again. A MALLOC_* variable or glibc.malloc tunable set by the
user wins; no computed value depends on either setting.
"""

import os
import sys


def parse_thread_cap(raw: str) -> int:
    """HGD_THREADS as a thread count; ValueError if it is not an integer >= 1."""
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"HGD_THREADS must be an integer, got {raw!r}") from None
    if cap < 1:
        raise ValueError(f"HGD_THREADS must be at least 1, got {cap}")
    return cap


def _set_openblas_threads(raw: str):
    """Resize the thread pool of numpy's bundled OpenBLAS, which read
    OPENBLAS_NUM_THREADS once, when numpy loaded; a no-op when raw is not a
    positive integer, the library is not found or the pool already has that
    size: calling the setter anyway, with one thread before and after, made
    the f32 paper-width decoder forward measure ~3% slower (OpenBLAS
    0.3.31, 2-vCPU Xeon)."""
    import ctypes
    from pathlib import Path

    import numpy
    try:
        threads = parse_thread_cap(raw)
    except ValueError:
        return
    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libdir.glob("libscipy_openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for suffix in ("64_", ""):
            getter = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            setter = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
            if getter is not None and setter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                if getter() != threads:
                    setter(threads)
                return


_M_TRIM_THRESHOLD = -1              # glibc <malloc.h>
_M_MMAP_THRESHOLD = -3
_HEAP_MMAP_THRESHOLD = 32 << 20     # glibc's 64-bit ceiling for M_MMAP_THRESHOLD
_HEAP_TRIM_THRESHOLD = 1 << 30


def _keep_freed_heap_pages(environ):
    """Have glibc's malloc serve arrays below 32 MiB from the heap and keep
    freed heap pages in the process, so the next call reuses them instead of
    faulting fresh zero pages in: by default glibc maps a large array on its
    own and trims the heap top back to the OS, and a paper-width decoder
    forward, which frees ~170 MB of intermediates, then took ~4,100 minor
    faults per call. Both values are needed: the trim threshold alone turns
    glibc's dynamic mmap threshold off, so large arrays stay mapped, and the
    mmap threshold alone still trims. A no-op when libc is not glibc, when
    the user set a MALLOC_* variable or a glibc.malloc tunable (theirs win),
    or when glibc rejects the mmap threshold; never raises."""
    if (any(k.startswith("MALLOC_") for k in environ)
            or "glibc.malloc." in environ.get("GLIBC_TUNABLES", "")):
        return
    try:
        import ctypes
        libc = ctypes.CDLL(None)
    except (ImportError, OSError, TypeError):   # TypeError: no process handle on Windows
        return
    if not hasattr(libc, "gnu_get_libc_version"):
        return
    mallopt = libc.mallopt
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    # the trim threshold alone would leave every large array mapped
    if mallopt(_M_MMAP_THRESHOLD, _HEAP_MMAP_THRESHOLD):
        mallopt(_M_TRIM_THRESHOLD, _HEAP_TRIM_THRESHOLD)


# Cap BLAS/OpenMP thread pools. HGD_THREADS is the single knob; 1 keeps runs
# deterministic. The variables take effect when numpy loads; if it already
# has, OpenBLAS's pool is resized directly.
try:
    _threads = str(parse_thread_cap(os.environ.get("HGD_THREADS", "1")))
except ValueError:      # an invalid cap sets nothing; the CLI exits 2 on it
    _threads = None
if _threads is not None:
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(_var, _threads)
    if "numpy" in sys.modules:
        _set_openblas_threads(os.environ["OPENBLAS_NUM_THREADS"])
    del _var
_keep_freed_heap_pages(os.environ)
del os, sys, _threads

from .tensor import Tensor, ComputeGraph, backward, DimensionError, ConfigError

__all__ = ["Tensor", "ComputeGraph", "backward", "DimensionError", "ConfigError"]
