"""A plain-numpy float64 reference for the pyramid decoder.

`reference_decode_once` recomputes one `fpn_decode_once` stage from the
parameter arrays alone: loops over the levels, the test suite's own
nearest/max-pool oracles for resampling, and an explicit [assembled; G]
stack per scale that the projection reads, as the paper draws the branch.
Rewrites of the decoder that reorder sums are held to it at the
tolerances fixed below, per dtype:

- FORWARD_TOL: per output level, |library - reference| <= tol * max|reference|;
- GRAD_TOL: every sampled parameter-gradient entry of the mean over all
  output levels is within GRAD_TOL * (the largest gradient entry of all
  parameters) of the reference's central difference. Scaling by the largest
  gradient matters because `weighting.bias` has a true gradient of 0 (the
  spatial softmax ignores a per-channel shift), so its own entries are
  roundoff and a per-parameter relative error would read them as failures.

Against the decoder that builds every branch stack, the forward errors read
~1e-14 (f64) and ~4e-6 (f32) of max|reference|, and the gradient errors
~3e-10 of the largest gradient.
"""

import numpy as np
import pytest

from hgd import fpn, ops
from hgd.tensor import ComputeGraph, Tensor

from test_fpn import maxpool_oracle, nearest_up_oracle

FORWARD_TOL = {np.float64: 1e-10, np.float32: 1e-4}
GRAD_TOL = 1e-7
FD_STEP = 1e-6


def _resample(x, like):
    """x on like's grid: one nearest 2x step up, or max-pool steps down."""
    oh, ow = like.shape[1:]
    if x.shape[1] < oh:
        return nearest_up_oracle(x, oh, ow)
    while x.shape[1] > oh:
        x = maxpool_oracle(x, (x.shape[1] + 1) // 2, (x.shape[2] + 1) // 2)
    return x


def _conv(x, p, name):
    return np.einsum("oi,ihw->ohw", p[f"{name}.weight"], x) + p[f"{name}.bias"][:, None, None]


def _softmax_spatial(z):
    e = np.exp(z - z.max(axis=(1, 2), keepdims=True))
    return e / e.sum(axis=(1, 2), keepdims=True)


def reference_decode_once(levels, p):
    """One stage on five f64 level arrays, finest first; `p` maps each
    parameter name of FpnParams.named_parameters() to an f64 array."""
    p3, p4, p5, p6, p7 = levels
    relu = {k: np.maximum(p[f"coeffs.{k}"], 0.0) for k in "arst"}

    def fuse(coef, maps, like):
        return sum(c * _resample(x, like) for c, x in zip(coef, maps))

    m_code = fuse(relu["a"], (p7, p6, p5, p4, p3), p6)
    bases = _conv(m_code, p, "bases")
    weights = _softmax_spatial(_conv(m_code, p, "weighting"))
    codewords = bases.reshape(len(bases), -1) @ weights.reshape(len(weights), -1).T

    refined = {}
    for level, k, (coarse, mid, fine) in ((4, "r", (p5, p4, p3)), (5, "s", (p6, p5, p4)),
                                          (6, "t", (p7, p6, p5))):
        m = fuse(relu[k], (coarse, mid, fine), mid)
        g = _conv(m, p, f"scale{level}.guidance")
        coeffs = _conv(g, p, f"scale{level}.assembly")
        assembled = np.einsum("dn,nhw->dhw", codewords, coeffs)
        stack = np.concatenate([assembled, g])
        refined[level] = _conv(stack, p, f"scale{level}.project")
    refined[3] = _resample(refined[4], p3)
    refined[7] = _resample(refined[6], p7)
    return [x + refined[i] for i, x in zip(range(3, 8), levels)]


def reference_decode(levels, records):
    """fpn_decode over one parameter dict per stage."""
    for p in records:
        levels = reference_decode_once(levels, p)
    return levels


def as_arrays(record):
    return {name: t.data.astype(np.float64) for name, t in record.named_parameters()}


def stage_records(params):
    return [as_arrays(r) for r in fpn.fpn_stages(params)]


def make_case(config, finest, dtype, seed):
    """A well-conditioned pyramid (0.5 N(0,1), as demo-fpn's gradcheck
    draws) and the parameters of `config`."""
    rng = np.random.default_rng(seed)
    pyramid = fpn.Pyramid(*[
        Tensor((0.5 * rng.standard_normal((config.output_channels, h, w))).astype(dtype))
        for h, w in fpn.level_grids(finest)])
    return pyramid, fpn.init_fpn_stack(config, rng, dtype)


def assert_levels_match(got, want, dtype):
    """Library levels `got` against reference arrays `want`, at FORWARD_TOL."""
    tol = FORWARD_TOL[dtype]
    for name, g, w in zip(fpn.LEVEL_NAMES, got, want):
        assert g.data.dtype == dtype, name
        err = np.abs(g.data - w).max()
        assert err <= tol * np.abs(w).max(), (name, err, np.abs(w).max())


def assert_matches_reference(pyramid, params):
    """fpn_decode of the library against the reference, at FORWARD_TOL;
    returns the library's output levels."""
    got = fpn.fpn_decode(pyramid, params).levels()
    want = reference_decode([t.data.astype(np.float64) for t in pyramid.levels()],
                            stage_records(params))
    assert_levels_match(got, want, pyramid.p3.data.dtype.type)
    return got


def _mean_loss(levels, count):
    total = None
    for level in levels:
        s = ops.sum_all(level)
        total = s if total is None else ops.add(total, s)
    return ops.scalar_scale(total, 1.0 / count)


# the fpn-decode benchmark's widths, and the toy preset's
BENCH_CONFIG = fpn.FpnConfig(n_codewords=32, codeword_dim=64, k_recurrence=4,
                             share_params=True, output_channels=64)


@pytest.mark.parametrize("config,finest", [
    (BENCH_CONFIG, (28, 44)),
    (fpn.FpnConfig(n_codewords=4, codeword_dim=8, k_recurrence=3, share_params=False,
                   output_channels=8), (25, 38)),
], ids=["bench-widths", "tiny-unshared-odd"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
def test_decode_matches_reference(config, finest, dtype):
    got = assert_matches_reference(*make_case(config, finest, dtype, seed=40))
    # each branch runs as one affine map of its fused level: no stage
    # concatenates, though the reference builds every [assembled; G] stack
    ops_run = {n._op for level in got for n in ComputeGraph.trace(level).nodes}
    assert "concat_channels" not in ops_run


@pytest.mark.parametrize("share_params", [True, False], ids=["shared", "unshared"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
def test_k2_decode_matches_the_reference_stage_applied_twice(dtype, share_params):
    # fpn_decode forms p3 once from the summed refined p4; the reference adds
    # each stage's refined p4 to p3 in turn
    config = fpn.FpnConfig(n_codewords=4, codeword_dim=8, k_recurrence=2,
                           share_params=share_params, output_channels=8)
    pyramid, params = make_case(config, (25, 38), dtype, seed=43)
    first, second = stage_records(params)
    levels = [t.data.astype(np.float64) for t in pyramid.levels()]
    want = reference_decode_once(reference_decode_once(levels, first), second)
    assert_levels_match(fpn.fpn_decode(pyramid, params).levels(), want, dtype)


@pytest.mark.parametrize("share_params", [True, False], ids=["shared", "unshared"])
def test_parameter_gradients_match_reference_differences(share_params):
    config = fpn.FpnConfig(n_codewords=4, codeword_dim=8, k_recurrence=2,
                           share_params=share_params, output_channels=8)
    pyramid, params = make_case(config, (13, 18), np.float64, seed=41)
    records = fpn.fpn_stages(params)
    levels = [t.data for t in pyramid.levels()]
    count = sum(x.size for x in levels)
    unique = list({id(r): r for r in records}.values())
    named = [(f"stage{i}.{name}", t) for i, r in enumerate(unique)
             for name, t in r.named_parameters()]

    _mean_loss(fpn.fpn_decode(pyramid, params).levels(), count).backward()
    grads = {name: t.grad.copy() for name, t in named}
    scale = max(np.abs(g).max() for g in grads.values())
    assert scale > 0

    def reference_loss():
        return sum(x.sum() for x in reference_decode(levels, stage_records(params))) / count

    rng = np.random.default_rng(42)
    for name, t in named:
        for i in rng.choice(t.data.size, size=min(t.data.size, 3), replace=False):
            original = t.data.flat[i]
            t.data.flat[i] = original + FD_STEP
            hi = reference_loss()
            t.data.flat[i] = original - FD_STEP
            lo = reference_loss()
            t.data.flat[i] = original
            err = abs((hi - lo) / (2 * FD_STEP) - grads[name].flat[i])
            assert err <= GRAD_TOL * scale, (name, int(i), err, scale)
