"""Finite-difference verification of the reverse pass.

Central differences at float64; each parameter is perturbed one element at a
time while the build function re-runs the forward pass against the mutated
array. Large parameters are subsampled deterministically so checking a whole
network stays cheap. broken_relu_gradient mis-scales one backward rule on
purpose, so that the checker's failure path (`hgd gradcheck
--break-backward`) can be exercised.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

from . import ops
from .tensor import GradcheckError, Tensor


@dataclass
class GradReport:
    name: str
    max_rel_err: float
    passed: bool


def _checked_loss(build_fn) -> Tensor:
    """build_fn's loss, which must be a finite scalar tensor."""
    loss = build_fn()
    if not isinstance(loss, Tensor) or loss.dims != ():
        raise GradcheckError("build function must return a scalar loss tensor")
    if not np.isfinite(float(loss.data)):
        raise GradcheckError("loss is not finite; cannot difference it")
    return loss


def finite_difference(build_fn, param: Tensor, step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of build_fn's loss w.r.t. every element."""
    out = np.zeros(param.data.shape, dtype=np.float64)
    flat_out = out.reshape(-1)
    for i in range(param.data.size):
        flat_out[i] = _probe_element(build_fn, param, i, step)
    return out


def _probe_element(build_fn, param: Tensor, i: int, step: float) -> float:
    original = param.data.flat[i]
    try:
        param.data.flat[i] = original + step
        hi = float(_checked_loss(build_fn).data)
        param.data.flat[i] = original - step
        lo = float(_checked_loss(build_fn).data)
    finally:
        param.data.flat[i] = original
    return (hi - lo) / (2.0 * step)


def gradcheck(build_fn, params, step: float = 1e-6, tol: float = 1e-5,
              max_per_param: int = 16, rng=None) -> list[GradReport]:
    """Compare reverse-pass gradients with central differences.

    params is a list of (name, tensor) pairs; every tensor must be float64
    with requires_grad set. Returns one report per pair. Raises
    GradcheckError when the comparison itself cannot be trusted.
    """
    params = list(params)
    if rng is None:
        rng = np.random.default_rng(0)
    for name, p in params:
        if p.dtype != np.float64:
            raise GradcheckError(
                f"parameter {name!r} is {p.dtype}; finite differences need float64")
        p.zero_grad()

    _checked_loss(build_fn).backward()

    analytic = [p.grad if p.grad is not None else np.zeros(p.dims) for _, p in params]

    reports = []
    for (name, p), a_full in zip(params, analytic):
        size = p.data.size
        if size <= max_per_param:
            idxs = np.arange(size)
        else:
            idxs = np.sort(rng.choice(size, size=max_per_param, replace=False))
        a_flat = a_full.reshape(-1)
        worst = 0.0
        for i in idxs:
            fd = _probe_element(build_fn, p, int(i), step)
            a = float(a_flat[i])
            rel = abs(a - fd) / max(abs(a), abs(fd), 1e-3)
            if rel > worst:
                worst = rel
        reports.append(GradReport(name=name, max_rel_err=worst, passed=worst <= tol))
    return reports


@contextlib.contextmanager
def broken_relu_gradient():
    """Run the block with ops.relu swapped for a wrapper that scales its
    output's incoming adjoint by 1.5, and restore ops.relu after it."""
    original = ops.relu

    def broken(x):
        out = original(x)
        bwd = out._backward_fn
        if bwd is not None:
            out._backward_fn = lambda g: bwd(1.5 * g)
        return out

    ops.relu = broken
    try:
        yield
    finally:
        ops.relu = original
