"""Codeword-based feature decoding toolkit.

Dense tensors with reverse-mode differentiation, the holistically-guided
decoder (softmax-pooled codewords reassembled at high resolution), a toy
segmentation stack around it, a pyramid-decoder variant, and an analytic
MAC/parameter cost model.
"""

import os


def parse_thread_cap(raw: str) -> int:
    """HGD_THREADS as a thread count; ValueError if it is not an integer >= 1."""
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"HGD_THREADS must be an integer, got {raw!r}") from None
    if cap < 1:
        raise ValueError(f"HGD_THREADS must be at least 1, got {cap}")
    return cap


# Cap BLAS/OpenMP thread pools before numpy gets imported anywhere in the
# package. HGD_THREADS is the single knob; 1 keeps runs deterministic.
try:
    _threads = str(parse_thread_cap(os.environ.get("HGD_THREADS", "1")))
except ValueError:      # an invalid cap sets nothing; the CLI exits 2 on it
    _threads = None
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    if _threads is not None:
        os.environ.setdefault(_var, _threads)
del os, _var, _threads

from .tensor import Tensor, ComputeGraph, backward, DimensionError, ConfigError

__all__ = ["Tensor", "ComputeGraph", "backward", "DimensionError", "ConfigError"]
