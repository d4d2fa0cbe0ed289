"""Forward-pass oracles for the primitive operations.

Every derived expectation here is computed by an independent loop oracle or
a closed-form evaluation written directly in the test, never by calling the
library twice.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hgd import Tensor, DimensionError
from hgd import ops


def t(arr, grad=False):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=grad)


# ---------------------------------------------------------------- conv1x1

def conv1x1_loop(x, w, b):
    c_out, c_in = w.shape
    _, h, wd = x.shape
    out = np.zeros((c_out, h, wd))
    for o in range(c_out):
        for i in range(h):
            for j in range(wd):
                acc = b[o]
                for c in range(c_in):
                    acc += w[o, c] * x[c, i, j]
                out[o, i, j] = acc
    return out


def test_conv1x1_identity():
    x = t(np.arange(2 * 3 * 4, dtype=np.float64).reshape(2, 3, 4))
    w = t(np.eye(2))
    b = t(np.zeros(2))
    out = ops.conv1x1(x, w, b)
    assert np.array_equal(out.data, x.data)


def test_conv1x1_zero_weight_bias_only():
    x = t(np.random.default_rng(0).normal(size=(2, 2, 2)))
    w = t(np.zeros((2, 2)))
    b = t([3.0, -1.0])
    out = ops.conv1x1(x, w, b)
    assert np.all(out.data[0] == 3.0)
    assert np.all(out.data[1] == -1.0)


def test_conv1x1_matches_loop_oracle():
    rng = np.random.default_rng(1)
    x = t(rng.normal(size=(3, 4, 5)))
    w = t(rng.normal(size=(2, 3)))
    b = t(rng.normal(size=2))
    out = ops.conv1x1(x, w, b)
    expect = conv1x1_loop(x.data, w.data, b.data)
    assert np.max(np.abs(out.data - expect)) <= 1e-12


def test_conv1x1_shape_mismatch_names_axis():
    x = t(np.zeros((3, 2, 2)))
    w = t(np.zeros((4, 5)))
    b = t(np.zeros(4))
    with pytest.raises(DimensionError, match="channel"):
        ops.conv1x1(x, w, b)


@settings(max_examples=60, deadline=None)
@given(c_out=st.integers(1, 5), c_in=st.integers(1, 6), h=st.integers(1, 7),
       w=st.integers(1, 7), seed=st.integers(0, 2**32 - 1),
       dtype=st.sampled_from([np.float32, np.float64]))
@example(c_out=3, c_in=4, h=1, w=1, seed=0, dtype=np.float64)
@example(c_out=3, c_in=1, h=5, w=6, seed=1, dtype=np.float32)
@example(c_out=1, c_in=1, h=1, w=1, seed=2, dtype=np.float32)
def test_conv1x1_equals_tensordot_form(c_out, c_in, h, w, seed, dtype):
    """The 2-D GEMM lowering is bit-identical to the np.tensordot form in the
    forward value and in the input, weight and bias gradients."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((c_in, h, w)).astype(dtype)
    wt = rng.standard_normal((c_out, c_in)).astype(dtype)
    b = rng.standard_normal(c_out).astype(dtype)
    g = rng.standard_normal((c_out, h, w)).astype(dtype)
    xt, wtt, bt = (Tensor(a, requires_grad=True) for a in (x, wt, b))
    out = ops.conv1x1(xt, wtt, bt)
    ops.sum_all(ops.mul(out, Tensor(g))).backward()

    want = np.tensordot(wt, x, axes=([1], [0])) + b[:, None, None]
    assert out.data.dtype == dtype
    assert np.array_equal(bits(out.data), bits(want))
    assert np.array_equal(bits(xt.grad), bits(np.tensordot(wt, g, axes=([0], [0]))))
    assert np.array_equal(bits(wtt.grad), bits(np.tensordot(g, x, axes=([1, 2], [1, 2]))))
    assert np.array_equal(bits(bt.grad), bits(g.sum(axis=(1, 2))))


# ---------------------------------------------------------------- bilinear

def test_bilinear_constant_preserved():
    x = t(np.full((2, 3, 3), 7.25))
    out = ops.bilinear_resize(x, 5, 8)
    assert out.dims == (2, 5, 8)
    assert np.max(np.abs(out.data - 7.25)) <= 1e-12


def test_bilinear_one_pixel_upsample():
    x = t(np.full((1, 1, 1), 4.5))
    out = ops.bilinear_resize(x, 2, 2)
    assert np.array_equal(out.data, np.full((1, 2, 2), 4.5))


def test_bilinear_ramp_closed_form():
    # ramp (0,1,2,3) to length 7 under src = (dst+0.5)*in/out - 0.5, clamped:
    # src_j = (8j-3)/14, values clamp-interpolate to the frozen fractions below
    x = t(np.arange(4, dtype=np.float64).reshape(1, 1, 4))
    out = ops.bilinear_resize(x, 1, 7)
    expect = np.array([0.0, 5 / 14, 13 / 14, 21 / 14, 29 / 14, 37 / 14, 3.0])
    assert np.max(np.abs(out.data[0, 0] - expect)) <= 1e-12


def test_bilinear_identity_when_same_size():
    rng = np.random.default_rng(2)
    x = t(rng.normal(size=(2, 5, 6)))
    out = ops.bilinear_resize(x, 5, 6)
    assert np.array_equal(out.data, x.data)


def test_bilinear_rejects_zero_target():
    x = t(np.zeros((1, 2, 2)))
    with pytest.raises(DimensionError):
        ops.bilinear_resize(x, 0, 2)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 9), st.integers(1, 9))
def test_bilinear_linearity(h, w, oh, ow):
    rng = np.random.default_rng(h * 100 + w * 10 + oh + ow)
    x = rng.normal(size=(2, h, w))
    y = rng.normal(size=(2, h, w))
    a, b = 1.7, -0.3
    lhs = ops.bilinear_resize(t(a * x + b * y), oh, ow).data
    rhs = a * ops.bilinear_resize(t(x), oh, ow).data + b * ops.bilinear_resize(t(y), oh, ow).data
    assert np.max(np.abs(lhs - rhs)) <= 1e-10


# ---------------------------------------------------------------- softmax

def test_softmax_spatial_uniform():
    x = t(np.zeros((3, 2, 2)))
    out = ops.softmax_spatial(x)
    assert np.max(np.abs(out.data - 0.25)) <= 1e-15


def test_softmax_spatial_closed_form():
    x = t(np.array([[[0.0, np.log(3.0)]]]))
    out = ops.softmax_spatial(x)
    assert np.max(np.abs(out.data[0, 0] - np.array([0.25, 0.75]))) <= 1e-12


def test_softmax_spatial_shift_invariance():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 3, 5))
    a = ops.softmax_spatial(t(x)).data
    b = ops.softmax_spatial(t(x + 5.0)).data
    assert np.max(np.abs(a - b)) <= 1e-12


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.integers(1, 8), st.integers(0, 10_000))
def test_softmax_spatial_channels_sum_to_one(n, h, w, seed):
    logits = np.random.default_rng(seed).normal(scale=10.0, size=(n, h, w))
    out = ops.softmax_spatial(t(logits))
    sums = out.data.sum(axis=(1, 2))
    assert np.max(np.abs(sums - 1.0)) <= 1e-12


# ---------------------------------------------------------------- matmul

def matmul_loop(a, b):
    p, q = a.shape
    q2, r = b.shape
    out = np.zeros((p, r))
    for i in range(p):
        for k in range(r):
            for j in range(q):
                out[i, k] += a[i, j] * b[j, k]
    return out


def test_matmul_identity():
    m = np.random.default_rng(4).normal(size=(3, 3))
    out = ops.matmul(t(np.eye(3)), t(m))
    assert np.max(np.abs(out.data - m)) <= 1e-15


def test_matmul_ones_inner_product():
    q = 6
    out = ops.matmul(t(np.ones((1, q))), t(np.ones((q, 1))))
    assert out.data.shape == (1, 1)
    assert out.data[0, 0] == q


def test_matmul_matches_loop_oracle():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(5, 4))
    b = rng.normal(size=(4, 3))
    out = ops.matmul(t(a), t(b))
    assert np.max(np.abs(out.data - matmul_loop(a, b))) <= 1e-12


def test_matmul_inner_mismatch():
    with pytest.raises(DimensionError):
        ops.matmul(t(np.zeros((2, 3))), t(np.zeros((4, 2))))


# ---------------------------------------------------------------- suite

def test_relu_values():
    out = ops.relu(t([-1.0, 0.0, 2.0]))
    assert np.array_equal(out.data, [0.0, 0.0, 2.0])


def test_concat_channels_order():
    a = t(np.ones((2, 3, 4)))
    b = t(np.full((3, 3, 4), 2.0))
    out = ops.concat_channels([a, b])
    assert out.dims == (5, 3, 4)
    assert np.all(out.data[:2] == 1.0) and np.all(out.data[2:] == 2.0)


def test_concat_channels_spatial_mismatch():
    with pytest.raises(DimensionError):
        ops.concat_channels([t(np.zeros((1, 2, 2))), t(np.zeros((1, 3, 2)))])


def test_add_and_scalar_scale():
    a = t([[1.0, 2.0]])
    b = t([[10.0, 20.0]])
    assert np.array_equal(ops.add(a, b).data, [[11.0, 22.0]])
    assert np.array_equal(ops.scalar_scale(a, -2.0).data, [[-2.0, -4.0]])


def test_weighted_sum_selector():
    rng = np.random.default_rng(6)
    maps = [t(rng.normal(size=(2, 3, 3))) for _ in range(3)]
    coeffs = t([1.0, 0.0, 0.0])
    out = ops.weighted_sum(coeffs, maps)
    assert np.array_equal(out.data, maps[0].data)


def test_weighted_sum_matches_loop():
    rng = np.random.default_rng(7)
    maps = [rng.normal(size=(2, 2, 2)) for _ in range(4)]
    cs = rng.normal(size=4)
    out = ops.weighted_sum(t(cs), [t(m) for m in maps])
    expect = sum(c * m for c, m in zip(cs, maps))
    assert np.max(np.abs(out.data - expect)) <= 1e-12


def test_nearest_resize_upsample():
    x = t(np.array([[[1.0, 2.0], [3.0, 4.0]]]))
    out = ops.nearest_resize(x, 4, 4)
    expect = np.array([[[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]]], dtype=np.float64)
    assert np.array_equal(out.data, expect)


def test_maxpool2x2_values_and_odd_edges():
    x = t(np.array([[[1.0, 2.0, 5.0],
                     [3.0, 4.0, 0.5],
                     [9.0, -1.0, 7.0]]]))
    out = ops.maxpool2x2(x)
    # ceil-mode: 3x3 -> 2x2, edge windows clipped
    expect = np.array([[[4.0, 5.0], [9.0, 7.0]]])
    assert np.array_equal(out.data, expect)


@pytest.mark.parametrize("dims", [(1, 0, 3), (1, 3, 0)], ids=["zero-rows", "zero-cols"])
def test_maxpool2x2_rejects_zero_extent(dims):
    with pytest.raises(DimensionError, match="at least 1x1"):
        ops.maxpool2x2(t(np.zeros(dims)))


def test_global_avg_spatial():
    x = t(np.array([[[1.0, 2.0], [3.0, 4.0]], [[10.0, 10.0], [10.0, 10.0]]]))
    out = ops.global_avg_spatial(x)
    assert out.dims == (2,)
    assert np.array_equal(out.data, [2.5, 10.0])


def test_reshape_and_transpose_roundtrip():
    x = t(np.arange(12, dtype=np.float64).reshape(3, 2, 2))
    flat = ops.reshape(x, (3, 4))
    assert flat.dims == (3, 4)
    tr = ops.transpose(flat)
    assert tr.dims == (4, 3)
    assert np.array_equal(tr.data, flat.data.T)


def test_mul_and_sum_all():
    a = t([[1.0, 2.0], [3.0, 4.0]])
    b = t([[2.0, 2.0], [2.0, 2.0]])
    prod = ops.mul(a, b)
    assert np.array_equal(prod.data, [[2.0, 4.0], [6.0, 8.0]])
    s = ops.sum_all(prod)
    assert s.dims == ()
    assert s.data == 20.0


# ------------------------------------------------------- pooling, nearest

def maxpool_window_loop(x, oh, ow):
    """(values, winner coordinates) of clipped 2x2 windows, scanning each
    window in row-major order: a later element wins only when it is strictly
    larger, or NaN while the best so far is not."""
    c, h, w = x.shape
    out = np.empty((c, oh, ow))
    winners = {}
    for ch in range(c):
        for i in range(oh):
            for j in range(ow):
                best = None
                for r in (2 * i, min(2 * i + 1, h - 1)):
                    for q in (2 * j, min(2 * j + 1, w - 1)):
                        v, b = x[ch, r, q], None if best is None else x[(ch, *best)]
                        if best is None or (not np.isnan(b) and (v > b or np.isnan(v))):
                            best = (r, q)
                out[ch, i, j] = x[(ch, *best)]
                winners[ch, i, j] = (ch, *best)
    return out, winners


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


@settings(max_examples=150, deadline=None)
@given(c=st.integers(1, 3), h=st.integers(1, 7), w=st.integers(1, 7),
       nan_share=st.sampled_from([0.0, 0.1, 0.4]), seed=st.integers(0, 2**32 - 1),
       fortran=st.booleans())
@example(c=1, h=1, w=1, nan_share=0.0, seed=0, fortran=False)
@example(c=2, h=1, w=6, nan_share=0.2, seed=1, fortran=False)
@example(c=1, h=5, w=1, nan_share=0.2, seed=2, fortran=True)
def test_maxpool2x2_matches_window_loop(c, h, w, nan_share, seed, fortran):
    """Values (sign of zero included), gradient routing with ties to the
    first element in window order, and NaN: the first NaN wins and takes
    the gradient. Integer-rounded data makes ties common; `fortran` feeds
    a non-C-contiguous input."""
    oh, ow = (h + 1) // 2, (w + 1) // 2
    rng = np.random.default_rng(seed)
    x = rng.integers(-2, 3, size=(c, h, w)).astype(np.float64)
    x[(x == 0) & (rng.random(x.shape) < 0.5)] = -0.0
    x[rng.random(x.shape) < nan_share] = np.nan

    want, winners = maxpool_window_loop(x, oh, ow)
    xt = t(np.asfortranarray(x) if fortran else x, grad=True)
    out = ops.maxpool2x2(xt)
    assert np.array_equal(bits(out.data), bits(want))

    probe = rng.integers(1, 100, size=(c, oh, ow)).astype(np.float64)
    ops.sum_all(ops.mul(out, t(probe))).backward()
    want_grad = np.zeros_like(x)
    for (ch, i, j), src in winners.items():
        want_grad[src] += probe[ch, i, j]
    assert np.array_equal(bits(xt.grad), bits(want_grad))


def nearest_loop(x, oh, ow):
    c, h, w = x.shape
    out = np.empty((c, oh, ow))
    for y in range(oh):
        for q in range(ow):
            out[:, y, q] = x[:, y * h // oh, q * w // ow]
    return out


def nearest_grad_loop(g, h, w):
    c, oh, ow = g.shape
    gx = np.zeros((c, h, w))
    for y in range(oh):
        for q in range(ow):
            gx[:, y * h // oh, q * w // ow] += g[:, y, q]
    return gx


@pytest.mark.parametrize("h,w,oh,ow", [(3, 4, 5, 7), (4, 3, 8, 5), (2, 4, 3, 8), (1, 1, 1, 2)])
def test_nearest_resize_matches_loop_oracle(h, w, oh, ow):
    rng = np.random.default_rng(h * 1000 + w * 100 + oh * 10 + ow)
    x = t(rng.normal(size=(2, h, w)), grad=True)
    out = ops.nearest_resize(x, oh, ow)
    assert np.array_equal(out.data, nearest_loop(x.data, oh, ow))
    # integer upstream gradients keep every sum exact in any order
    probe = rng.integers(-50, 50, size=(2, oh, ow)).astype(np.float64)
    ops.sum_all(ops.mul(out, t(probe))).backward()
    assert np.array_equal(x.grad, nearest_grad_loop(probe, h, w))


def test_nearest_resize_non_finite_input_stays_local():
    x = np.arange(6, dtype=np.float64).reshape(1, 2, 3)
    x[0, 1, 2] = np.inf
    x[0, 0, 0] = -np.inf
    out = ops.nearest_resize(t(x), 4, 6)
    assert not np.isnan(out.data).any()
    assert np.array_equal(out.data, nearest_loop(x, 4, 6))
    assert np.isposinf(out.data).sum() == 4 and np.isneginf(out.data).sum() == 4


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_nearest_resize_non_finite_adjoint_stays_local(bad):
    x = t(np.arange(1, 7, dtype=np.float64).reshape(1, 2, 3), grad=True)
    probe = np.zeros((1, 4, 6))
    probe[0, 0, 0] = bad
    ops.sum_all(ops.mul(ops.nearest_resize(x, 4, 6), t(probe))).backward()
    want = np.zeros((1, 2, 3))
    want[0, 0, 0] = bad
    assert np.array_equal(x.grad, want, equal_nan=True)


def nearest_matrix(n_in, n_out, dtype):
    """Dense one-hot (n_out, n_in) matrix of src = floor(dst * in / out)."""
    m = np.zeros((n_out, n_in), dtype=dtype)
    m[np.arange(n_out), (np.arange(n_out) * n_in) // n_out] = 1
    return m


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_nearest_resize_backward_equals_dense_product(dtype):
    """The pair sums equal Mh.T @ g @ Mw bit for bit on finite data, on
    every grid that pools back to its input up to 9x9."""
    rng = np.random.default_rng(7)
    for oh in range(1, 10):
        for ow in range(1, 10):
            h, w = (oh + 1) // 2, (ow + 1) // 2
            x = Tensor(rng.normal(size=(3, h, w)).astype(dtype), requires_grad=True)
            g = rng.normal(size=(3, oh, ow)).astype(dtype)
            ops.sum_all(ops.mul(ops.nearest_resize(x, oh, ow), Tensor(g))).backward()
            want = nearest_matrix(h, oh, dtype).T @ g @ nearest_matrix(w, ow, dtype)
            assert x.grad.dtype == dtype
            assert np.array_equal(bits(x.grad), bits(want)), (oh, ow)


@pytest.mark.parametrize("h,w,oh,ow", [(4, 4, 2, 2), (3, 3, 5, 7), (3, 3, 3, 3)],
                         ids=["downsample", "non-halving", "same-size"])
def test_nearest_resize_rejects_targets_that_do_not_pool_back(h, w, oh, ow):
    x = t(np.zeros((1, h, w)))
    with pytest.raises(DimensionError, match=f"{oh}x{ow}.*{h}x{w}"):
        ops.nearest_resize(x, oh, ow)


def _upsampled_sum(base, coarse, g, fused):
    """(out, base grad, coarse grad) of base + up(coarse) against adjoint g:
    one add_upsampled when fused, else add over nearest_resize."""
    b, c = Tensor(base, requires_grad=True), Tensor(coarse, requires_grad=True)
    out = (ops.add_upsampled(b, c) if fused
           else ops.add(b, ops.nearest_resize(c, *base.shape[1:])))
    ops.sum_all(ops.mul(out, Tensor(g))).backward()
    return out.data, b.grad, c.grad


@pytest.mark.parametrize("bad", [None, np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("where", ["base", "coarse", "adjoint"])
@pytest.mark.parametrize("oh,ow", [(4, 6), (5, 7), (1, 1), (6, 3)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_add_upsampled_equals_add_of_nearest_resize(dtype, oh, ow, where, bad):
    """Forward and both gradients equal add(base, nearest_resize(coarse))
    bit for bit, and a non-finite value stays local: in the output at base's
    own pixel or at the coarse pixel's copies, in the gradients at the
    adjoint's own pixel for base and its source pixel for coarse."""
    rng = np.random.default_rng(oh * 10 + ow)
    h, w = (oh + 1) // 2, (ow + 1) // 2
    base = rng.standard_normal((2, oh, ow)).astype(dtype)
    coarse = rng.standard_normal((2, h, w)).astype(dtype)
    g = rng.standard_normal((2, oh, ow)).astype(dtype)
    if bad is not None:
        # the last pixel of channel 1, which at an odd edge has one copy
        pick = {"base": base, "coarse": coarse, "adjoint": g}[where]
        pick[1, -1, -1] = bad

    with np.errstate(invalid="ignore"):
        got = _upsampled_sum(base, coarse, g, fused=True)
        want = _upsampled_sum(base, coarse, g, fused=False)
    for a, b in zip(got, want):
        assert a.dtype == dtype and a.shape == b.shape
        assert np.array_equal(bits(a), bits(b))

    out, gb, gc = got
    expect_out = np.isfinite(base) & np.isfinite(nearest_loop(coarse, oh, ow))
    assert np.array_equal(np.isfinite(out), expect_out)
    assert np.array_equal(np.isfinite(gb), np.isfinite(g))
    expect_gc = np.ones(coarse.shape, dtype=bool)
    expect_gc[1, -1, -1] = bad is None or where != "adjoint"
    assert np.array_equal(np.isfinite(gc), expect_gc)


def test_add_upsampled_sums_in_add_operand_order():
    """Of two NaNs the one add(base, up) keeps wins: which one numpy's sum
    keeps depends on the operand order."""
    base = np.full((1, 3, 3), np.nan)
    coarse = np.full((1, 2, 2), np.nan)
    base.view(np.int64)[...] |= 1
    coarse.view(np.int64)[...] |= 2
    got = ops.add_upsampled(t(base), t(coarse))
    want = ops.add(t(base), ops.nearest_resize(t(coarse), 3, 3))
    assert np.array_equal(bits(got.data), bits(want.data))


@pytest.mark.parametrize("bdims,cdims,match", [
    ((2, 4, 6), (3, 2, 3), "channel axis: base has 2, coarse has 3"),
    ((2, 4, 6), (2, 3, 3), "target 4x6 does not pool back to 3x3"),
    ((2, 4, 6), (2, 4, 6), "target 4x6 does not pool back to 4x6"),
    ((2, 4, 6), (2, 2, 3, 1), "add_upsampled input must have rank 3"),
    ((4, 6), (2, 3), "add_upsampled base must have rank 3"),
], ids=["channels", "grid", "same-grid", "coarse-rank", "base-rank"])
def test_add_upsampled_rejects_mismatched_operands(bdims, cdims, match):
    with pytest.raises(DimensionError, match=match):
        ops.add_upsampled(t(np.zeros(bdims)), t(np.zeros(cdims)))


@st.composite
def pool_after_upsampled_add_cases(draw):
    """(x, r) of one dtype on an odd or even grid: x of integer ties, +-0,
    +-inf, NaNs with payloads and values as large as r; r finite, up to
    1e23 (1e30 in f32), so that rounding merges a window's sums."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    width, big, quiet, payload_bits = ((32, 1e30, 0x7FC00000, 22) if dtype == np.float32
                                       else (64, 1e23, 0x7FF8000000000000, 51))
    c, h, w = draw(st.integers(1, 2)), draw(st.integers(1, 7)), draw(st.integers(1, 7))
    n, oh, ow = c * h * w, (h + 1) // 2, (w + 1) // 2
    # the bound must be a float of the width: f32's nearest to 1e30
    finite = st.floats(-float(dtype(big)), float(dtype(big)), width=width)
    x = np.array(draw(st.lists(st.one_of(st.integers(-2, 2).map(float),
                                         st.sampled_from([0.0, -0.0, np.inf, -np.inf]), finite),
                               min_size=n, max_size=n)), dtype=dtype).reshape(c, h, w)
    nans = draw(st.lists(st.tuples(st.integers(0, n - 1), st.booleans(),
                                   st.integers(0, 2**payload_bits - 1)), max_size=3))
    xi = x.reshape(-1).view(np.int32 if dtype == np.float32 else np.int64)
    for i, negative, payload in nans:
        xi[i] = (quiet | payload) - (2 ** (width - 1) if negative else 0)
    r = np.array(draw(st.lists(st.one_of(st.integers(-2, 2).map(float), finite),
                               min_size=c * oh * ow, max_size=c * oh * ow)),
                 dtype=dtype).reshape(c, oh, ow)
    return x, r


@settings(max_examples=200, deadline=None)
@given(case=pool_after_upsampled_add_cases())
# the counterexample for a non-finite r: the window [-inf, 0] plus +inf pools
# to NaN (-inf + inf comes first), while its pool 0 plus +inf is inf
@example(case=(np.array([[[-np.inf, 0.0]]]), np.array([[[np.inf]]])))
def test_maxpool_of_add_upsampled_is_add_of_maxpool(case):
    """maxpool2x2(add_upsampled(x, r)) equals add(maxpool2x2(x), r) bit for
    bit for a finite r: the upsampled r is constant on every window, clipped
    edge windows included, and fl(a + r) is monotone in a."""
    x, r = case
    with np.errstate(all="ignore"):
        got = ops.maxpool2x2(ops.add_upsampled(Tensor(x), Tensor(r))).data
        want = ops.add(ops.maxpool2x2(Tensor(x)), Tensor(r)).data
    assert got.dtype == want.dtype == x.dtype
    if np.isfinite(r).all():
        assert np.array_equal(bits(got), bits(want))
    else:
        assert not np.array_equal(bits(got), bits(want))


def _saved_arrays(out):
    """The arrays a node's backward closure keeps."""
    return [cell.cell_contents for cell in out._backward_fn.__closure__
            if isinstance(cell.cell_contents, np.ndarray)]


def test_add_upsampled_and_maxpool_keep_no_full_index_or_map():
    """add_upsampled's closure keeps no upsampled map, and maxpool2x2's keeps
    only its 1-byte window winners, one per pooled output."""
    x = t(np.random.default_rng(3).standard_normal((3, 7, 10)), grad=True)
    pooled = ops.maxpool2x2(x)
    saved = _saved_arrays(pooled)
    assert [(a.dtype, a.shape) for a in saved] == [(np.dtype(np.int8), pooled.dims)]
    assert _saved_arrays(ops.add_upsampled(x, pooled)) == []


# ------------------------------------------------------ cross entropy

def test_cross_entropy_uniform_logits():
    logits = t(np.zeros((4, 2, 2)), grad=True)
    labels = np.zeros((2, 2), dtype=np.int64)
    loss = ops.cross_entropy_logits(logits, labels)
    assert abs(loss.data - np.log(4.0)) <= 1e-12


def test_cross_entropy_ignores_255():
    logits = t(np.zeros((2, 1, 2)), grad=True)
    labels = np.array([[0, 255]], dtype=np.int64)
    loss = ops.cross_entropy_logits(logits, labels)
    assert abs(loss.data - np.log(2.0)) <= 1e-12


def test_cross_entropy_all_ignored_raises():
    logits = t(np.zeros((2, 1, 1)))
    labels = np.array([[255]], dtype=np.int64)
    with pytest.raises(ValueError):
        ops.cross_entropy_logits(logits, labels)


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 6), h=st.integers(1, 9), w=st.integers(1, 9),
       ignore_share=st.sampled_from([0.0, 0.3, 0.9]), seed=st.integers(0, 2**32 - 1),
       dtype=st.sampled_from([np.float32, np.float64]))
def test_cross_entropy_gradient_equals_subtract_at_form(k, h, w, ignore_share, seed, dtype):
    """The flat-index scatter of the true-class term is bit-identical to
    np.subtract.at over (label, row, column), ignored pixels included."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((k, h, w)).astype(dtype)
    labels = rng.integers(0, k, size=(h, w))
    labels[rng.random((h, w)) < ignore_share] = 255
    labels[0, 0] = k - 1
    logits = Tensor(x, requires_grad=True)
    ops.cross_entropy_logits(logits, labels).backward()

    valid = labels != 255
    safe = np.where(valid, labels, 0)
    shifted = x - x.max(axis=0, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=0))
    scale = (valid.astype(dtype) * np.ones((), dtype)) / int(valid.sum())
    want = np.exp(shifted - lse[None]) * scale[None]
    ii, jj = np.indices((h, w))
    np.subtract.at(want, (safe, ii, jj), scale)
    assert logits.grad.dtype == dtype
    assert np.array_equal(logits.grad, want)


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 6), h=st.integers(1, 9), w=st.integers(1, 9),
       ignore_share=st.sampled_from([0.0, 0.3, 0.9]), seed=st.integers(0, 2**32 - 1),
       dtype=st.sampled_from([np.float32, np.float64]))
def test_cross_entropy_loss_equals_take_along_axis_form(k, h, w, ignore_share, seed, dtype):
    """The flat-index gather of the true-class logit gives the loss of the
    np.take_along_axis form bit for bit, ignored pixels included."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((k, h, w)).astype(dtype)
    labels = rng.integers(0, k, size=(h, w))
    labels[rng.random((h, w)) < ignore_share] = 255
    labels[0, 0] = k - 1
    loss = ops.cross_entropy_logits(Tensor(x), labels)

    valid = labels != 255
    safe = np.where(valid, labels, 0)
    shifted = x - x.max(axis=0, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=0))
    logp_true = np.take_along_axis(shifted, safe[None], axis=0)[0] - lse
    want = np.asarray(-(logp_true[valid].sum()) / int(valid.sum()), dtype=dtype)
    assert loss.data.dtype == dtype
    assert np.array_equal(bits(loss.data), bits(want))


# ----------------------------------------------------------- conv3x3

def conv3x3_loop(x, w, b, stride):
    c_out, c_in, _, _ = w.shape
    _, h, wd = x.shape
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1)))
    oh = (h + 2 - 3) // stride + 1
    ow = (wd + 2 - 3) // stride + 1
    out = np.zeros((c_out, oh, ow))
    for o in range(c_out):
        for i in range(oh):
            for j in range(ow):
                acc = b[o]
                for c in range(c_in):
                    for dy in range(3):
                        for dx in range(3):
                            acc += w[o, c, dy, dx] * xp[c, i * stride + dy, j * stride + dx]
                out[o, i, j] = acc
    return out


def conv3x3_adjoint_loop(x, w, g, stride):
    """Adjoints of conv3x3_loop for an output adjoint g: (input, weight, bias)."""
    c_out, c_in, _, _ = w.shape
    _, h, wd = x.shape
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1)))
    gxp = np.zeros(xp.shape)
    gw = np.zeros(w.shape)
    gb = np.zeros(c_out)
    for o in range(c_out):
        for i in range(g.shape[1]):
            for j in range(g.shape[2]):
                gb[o] += g[o, i, j]
                for c in range(c_in):
                    for dy in range(3):
                        for dx in range(3):
                            r, q = i * stride + dy, j * stride + dx
                            gw[o, c, dy, dx] += g[o, i, j] * xp[c, r, q]
                            gxp[c, r, q] += g[o, i, j] * w[o, c, dy, dx]
    return gxp[:, 1:h + 1, 1:wd + 1], gw, gb


@pytest.mark.parametrize("stride", [1, 2])
def test_conv3x3_matches_loop_oracle(stride):
    rng = np.random.default_rng(8 + stride)
    x = t(rng.normal(size=(3, 5, 6)))
    w = t(rng.normal(size=(2, 3, 3, 3)))
    b = t(rng.normal(size=2))
    out = ops.conv3x3(x, w, b, stride=stride)
    expect = conv3x3_loop(x.data, w.data, b.data, stride)
    assert out.data.shape == expect.shape
    assert np.max(np.abs(out.data - expect)) <= 1e-12


# f64 keeps the fixed oracle bound above; f32 gets a bound fixed from its
# machine epsilon and the size of the longest sum (Higham's gamma_n times the
# sum of absolute terms, which the loop oracle computes on |inputs|)
@settings(max_examples=80, deadline=None)
@given(c_in=st.integers(1, 6), c_out=st.integers(1, 6), h=st.integers(1, 9),
       w=st.integers(1, 9), stride=st.sampled_from([1, 2]),
       dtype=st.sampled_from([np.float32, np.float64]), transposed=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@example(c_in=2, c_out=3, h=1, w=9, stride=1, dtype=np.float64, transposed=False, seed=0)
@example(c_in=3, c_out=2, h=9, w=1, stride=2, dtype=np.float32, transposed=True, seed=1)
# f32 input gradients are summed in f64 and rounded once, so their last bits
# differ from an f32 sum; they stay within the same bound
@example(c_in=6, c_out=6, h=8, w=9, stride=1, dtype=np.float32, transposed=False, seed=2)
def test_conv3x3_and_gradients_match_loop_oracles(c_in, c_out, h, w, stride, dtype,
                                                  transposed, seed):
    """Forward and the input, weight and bias gradients against loop oracles,
    from 1xN and Nx1 maps up, for a C-ordered or a transposed-view input."""
    rng = np.random.default_rng(seed)
    xa = (rng.standard_normal((c_in, w, h)).swapaxes(1, 2) if transposed
          else rng.standard_normal((c_in, h, w))).astype(dtype)
    wa = rng.standard_normal((c_out, c_in, 3, 3)).astype(dtype)
    ba = rng.standard_normal(c_out).astype(dtype)
    x, wt, b = (Tensor(a, requires_grad=True) for a in (xa, wa, ba))
    out = ops.conv3x3(x, wt, b, stride=stride)
    assert out.data.ndim == 3 and out.data.flags.c_contiguous
    assert out.dtype == dtype

    g = rng.standard_normal(out.dims).astype(dtype)
    ops.sum_all(ops.mul(out, Tensor(g))).backward()
    x64, w64, b64, g64 = (np.asarray(a, np.float64) for a in (xa, wa, ba, g))
    got = (out.data, x.grad, wt.grad, b.grad)
    want = (conv3x3_loop(x64, w64, b64, stride), *conv3x3_adjoint_loop(x64, w64, g64, stride))
    if dtype == np.float64:
        bounds = [1e-12] * 4
    else:
        # n bounds every sum's length: 9 * c_in taps plus the bias forward,
        # c_out * 9 taps per input pixel, oh * ow positions per weight entry
        n = 9 * c_in + 1 + c_out * 9 + out.dims[1] * out.dims[2]
        gamma = n * np.finfo(np.float32).eps
        abs_x, abs_w, abs_g = np.abs(x64), np.abs(w64), np.abs(g64)
        magnitude = (conv3x3_loop(abs_x, abs_w, np.abs(b64), stride),
                     *conv3x3_adjoint_loop(abs_x, abs_w, abs_g, stride))
        bounds = [gamma * m for m in magnitude]
    for name, have, expect, bound in zip(("out", "x", "weight", "bias"), got, want, bounds):
        assert have.shape == expect.shape, name
        assert np.all(np.abs(have - expect) <= bound), name


def nine_slice_fold(w, g, x_dims, stride):
    """conv3x3's input gradient by its earlier col2im: W.T @ g folded back by
    nine strided slice-adds into a zero-padded buffer, then unpadded."""
    c_out, c_in = w.shape[:2]
    _, h, wd = x_dims
    _, oh, ow = g.shape
    taps = (w.reshape(c_out, 9 * c_in).T @ g.reshape(c_out, oh * ow)).reshape(c_in, 3, 3, oh, ow)
    gxp = np.zeros((c_in, h + 2, wd + 2), dtype=g.dtype)
    for dy in range(3):
        for dx in range(3):
            gxp[:, dy:dy + stride * (oh - 1) + 1:stride,
                dx:dx + stride * (ow - 1) + 1:stride] += taps[:, dy, dx]
    return gxp[:, 1:h + 1, 1:wd + 1]


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("c_in, h, w", [(1, 1, 1), (1, 1, 6), (1, 7, 1), (1, 9, 9),
                                        (2, 5, 7), (3, 8, 6), (4, 6, 9)])
@pytest.mark.parametrize("non_finite", [False, True])
def test_conv3x3_input_grad_is_the_nine_slice_fold_bit_for_bit(stride, c_in, h, w, non_finite):
    """In f64 the scatter adds each pixel's taps in the fold's (dy, dx)
    order, starting from 0.0, so every byte is the fold's, the non-finite
    ones and the sign of zero included."""
    rng = np.random.default_rng(100 * h + 10 * w + c_in + stride)
    x = t(rng.standard_normal((c_in, h, w)), grad=True)
    wa = rng.standard_normal((3, c_in, 3, 3))
    wa[rng.random(wa.shape) < 0.2] = -0.0
    out = ops.conv3x3(x, t(wa), t(np.zeros(3)), stride=stride)
    g = rng.standard_normal(out.dims)
    if non_finite:
        g[rng.random(g.shape) < 0.2] = np.inf
        g[rng.random(g.shape) < 0.1] = -np.inf
    with np.errstate(invalid="ignore"):
        ops.sum_all(ops.mul(out, t(g))).backward()
        want = nine_slice_fold(wa, g, x.dims, stride)
    assert x.grad.dtype == np.float64 and x.grad.shape == (c_in, h, w)
    assert np.array_equal(bits(x.grad), bits(want))


def test_cached_index_tables_are_read_only():
    """conv3x3's col2im index and maxpool2x2's window bases are shared by
    every call of their dims, so no caller may write into them."""
    idx = ops._col2im_index(2, 5, 7, 2)
    base = ops._pool_base(2, 5, 7)
    assert idx is ops._col2im_index(2, 5, 7, 2) and base is ops._pool_base(2, 5, 7)
    with pytest.raises(ValueError):
        idx[0] = 0
    with pytest.raises(ValueError):
        base[0, 0, 0] = 1
