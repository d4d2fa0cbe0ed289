"""Reverse-pass checks: hand-worked adjoints and the finite-difference oracle."""

import numpy as np
import pytest

from hgd import Tensor, ComputeGraph, backward
from hgd import ops
from hgd.gradcheck import gradcheck, finite_difference
from hgd.tensor import GradcheckError


def t(arr, grad=True):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=grad)


def test_backward_sum_gives_ones():
    x = t(np.random.default_rng(0).normal(size=(2, 3)))
    loss = ops.sum_all(x)
    backward(ComputeGraph.trace(loss), loss)
    assert np.array_equal(x.grad, np.ones((2, 3)))


def test_backward_relu_kink():
    x = t([-1.0, 2.0])
    loss = ops.sum_all(ops.relu(x))
    loss.backward()
    assert np.array_equal(x.grad, [0.0, 1.0])


def test_backward_requires_scalar_loss():
    x = t(np.ones((2, 2)))
    y = ops.relu(x)
    with pytest.raises(ValueError):
        backward(ComputeGraph.trace(y), y)


def test_gradient_accumulation_two_consumers():
    # x used twice: grad must be the sum of both branch adjoints, which for
    # loss = sum(x) + sum(x) equals the single-branch doubled construction
    x = t(np.random.default_rng(1).normal(size=(3,)))
    loss = ops.sum_all(ops.add(x, x))
    loss.backward()
    both = x.grad.copy()

    x2 = t(x.data)
    loss2 = ops.sum_all(ops.scalar_scale(x2, 2.0))
    loss2.backward()
    assert np.array_equal(both, x2.grad)


def test_topological_order_single_visit():
    x = t(np.ones((2,)))
    y = ops.add(x, x)
    z = ops.add(y, y)
    loss = ops.sum_all(z)
    graph = ComputeGraph.trace(loss)
    ids = [id(node) for node in graph.nodes]
    assert len(ids) == len(set(ids))
    index = {node_id: i for i, node_id in enumerate(ids)}
    for node in graph.nodes:
        for parent in node._parents:
            assert index[id(parent)] < index[id(node)]
    loss.backward()
    assert np.array_equal(x.grad, [4.0, 4.0])


def test_quadratic_gradcheck_closed_form():
    x = t([1.0, 2.0])

    def build():
        return ops.sum_all(ops.mul(x, x))

    loss = build()
    loss.backward()
    assert np.max(np.abs(x.grad - np.array([2.0, 4.0]))) <= 1e-12
    fd = finite_difference(build, x, step=1e-6)
    assert np.max(np.abs(fd - np.array([2.0, 4.0]))) <= 1e-8


PRIMITIVE_CASES = {}


def _case(name):
    def deco(fn):
        PRIMITIVE_CASES[name] = fn
        return fn
    return deco


@_case("conv1x1")
def _build_conv1x1(rng):
    x = t(rng.normal(size=(3, 4, 5)))
    w = t(rng.normal(size=(2, 3)))
    b = t(rng.normal(size=2))
    probe = Tensor(rng.normal(size=(2, 4, 5)))
    return [("x", x), ("w", w), ("b", b)], lambda: ops.sum_all(ops.mul(ops.conv1x1(x, w, b), probe))


@_case("conv1x1_shift")
def _build_conv1x1_shift(rng):
    x = t(rng.normal(size=(3, 4, 5)))
    w = t(rng.normal(size=(2, 3)))
    b = t(rng.normal(size=2))
    s = t(rng.normal(size=3))
    probe = Tensor(rng.normal(size=(2, 4, 5)))
    return [("x", x), ("w", w), ("b", b), ("shift", s)], \
        lambda: ops.sum_all(ops.mul(ops.conv1x1(x, w, b, shift=s), probe))


@_case("conv3x3_s1")
def _build_conv3x3_s1(rng):
    x = t(rng.normal(size=(2, 4, 5)))
    w = t(rng.normal(size=(3, 2, 3, 3)))
    b = t(rng.normal(size=3))
    probe = Tensor(rng.normal(size=(3, 4, 5)))
    return [("x", x), ("w", w), ("b", b)], lambda: ops.sum_all(ops.mul(ops.conv3x3(x, w, b), probe))


@_case("conv3x3_s2")
def _build_conv3x3_s2(rng):
    x = t(rng.normal(size=(2, 5, 6)))
    w = t(rng.normal(size=(3, 2, 3, 3)))
    b = t(rng.normal(size=3))
    out_h, out_w = 3, 3
    probe = Tensor(rng.normal(size=(3, out_h, out_w)))
    return [("x", x), ("w", w), ("b", b)], lambda: ops.sum_all(ops.mul(ops.conv3x3(x, w, b, stride=2), probe))


@_case("bilinear_up")
def _build_bilinear_up(rng):
    x = t(rng.normal(size=(2, 3, 4)))
    probe = Tensor(rng.normal(size=(2, 7, 5)))
    return [("x", x)], lambda: ops.sum_all(ops.mul(ops.bilinear_resize(x, 7, 5), probe))


@_case("bilinear_down")
def _build_bilinear_down(rng):
    x = t(rng.normal(size=(2, 6, 8)))
    probe = Tensor(rng.normal(size=(2, 3, 4)))
    return [("x", x)], lambda: ops.sum_all(ops.mul(ops.bilinear_resize(x, 3, 4), probe))


@_case("softmax_spatial")
def _build_softmax(rng):
    x = t(rng.normal(size=(3, 4, 4)))
    probe = Tensor(rng.normal(size=(3, 4, 4)))
    return [("x", x)], lambda: ops.sum_all(ops.mul(ops.softmax_spatial(x), probe))


@_case("matmul")
def _build_matmul(rng):
    a = t(rng.normal(size=(4, 3)))
    b = t(rng.normal(size=(3, 5)))
    probe = Tensor(rng.normal(size=(4, 5)))
    return [("a", a), ("b", b)], lambda: ops.sum_all(ops.mul(ops.matmul(a, b), probe))


@_case("relu")
def _build_relu(rng):
    x = t(rng.normal(size=(4, 4)) + 0.05)  # nudge away from the kink
    probe = Tensor(rng.normal(size=(4, 4)))
    return [("x", x)], lambda: ops.sum_all(ops.mul(ops.relu(x), probe))


@_case("concat_channels")
def _build_concat(rng):
    a = t(rng.normal(size=(2, 3, 3)))
    b = t(rng.normal(size=(3, 3, 3)))
    probe = Tensor(rng.normal(size=(5, 3, 3)))
    return [("a", a), ("b", b)], lambda: ops.sum_all(ops.mul(ops.concat_channels([a, b]), probe))


@_case("columns")
def _build_columns(rng):
    # two overlapping slices of one matrix, as a pyramid branch splits its
    # projection weight
    w = t(rng.normal(size=(3, 7)))
    x = t(rng.normal(size=(4, 5)))
    probe = Tensor(rng.normal(size=(3, 5)))
    return [("w", w), ("x", x)], lambda: ops.sum_all(ops.mul(
        ops.add(ops.matmul(ops.columns(w, 0, 4), x), ops.matmul(ops.columns(w, 2, 6), x)),
        probe))


@_case("weighted_sum")
def _build_weighted_sum(rng):
    maps = [t(rng.normal(size=(2, 3, 3))) for _ in range(3)]
    coeffs = t(rng.normal(size=3))
    probe = Tensor(rng.normal(size=(2, 3, 3)))
    params = [("c", coeffs)] + [(f"m{i}", m) for i, m in enumerate(maps)]
    return params, lambda: ops.sum_all(ops.mul(ops.weighted_sum(coeffs, maps), probe))


@_case("nearest_resize")
def _build_nearest(rng):
    x = t(rng.normal(size=(2, 3, 4)))
    probe = Tensor(rng.normal(size=(2, 5, 7)))
    return [("x", x)], lambda: ops.sum_all(ops.mul(ops.nearest_resize(x, 5, 7), probe))


@_case("add_upsampled")
def _build_add_upsampled(rng):
    base = t(rng.normal(size=(2, 5, 7)))
    coarse = t(rng.normal(size=(2, 3, 4)))
    probe = Tensor(rng.normal(size=(2, 5, 7)))
    return [("base", base), ("coarse", coarse)], lambda: ops.sum_all(
        ops.mul(ops.add_upsampled(base, coarse), probe))


@_case("maxpool2x2")
def _build_maxpool(rng):
    x = t(rng.normal(size=(2, 5, 6)))
    probe = Tensor(rng.normal(size=(2, 3, 3)))
    return [("x", x)], lambda: ops.sum_all(ops.mul(ops.maxpool2x2(x), probe))


@_case("global_avg_spatial")
def _build_gavg(rng):
    x = t(rng.normal(size=(3, 4, 4)))
    probe = Tensor(rng.normal(size=(3,)))
    return [("x", x)], lambda: ops.sum_all(ops.mul(ops.global_avg_spatial(x), probe))


@_case("reshape_transpose")
def _build_reshape(rng):
    x = t(rng.normal(size=(3, 2, 2)))
    probe = Tensor(rng.normal(size=(4, 3)))
    return [("x", x)], lambda: ops.sum_all(ops.mul(ops.transpose(ops.reshape(x, (3, 4))), probe))


@_case("cross_entropy")
def _build_ce(rng):
    x = t(rng.normal(size=(4, 3, 3)))
    labels = rng.integers(0, 4, size=(3, 3))
    labels[0, 0] = 255
    return [("x", x)], lambda: ops.cross_entropy_logits(x, labels)


@_case("composed_conv_softmax")
def _build_composed(rng):
    x = t(rng.normal(size=(3, 4, 4)))
    w = t(rng.normal(size=(2, 3)))
    b = t(rng.normal(size=2))
    probe = Tensor(rng.normal(size=(2, 4, 4)))
    return [("x", x), ("w", w), ("b", b)], lambda: ops.sum_all(
        ops.mul(ops.softmax_spatial(ops.conv1x1(x, w, b)), probe))


@pytest.mark.parametrize("name", sorted(PRIMITIVE_CASES))
def test_primitive_gradients_match_finite_differences(name):
    rng = np.random.default_rng(abs(hash(name)) % 2**32)
    params, build = PRIMITIVE_CASES[name](rng)
    reports = gradcheck(build, params, step=1e-6, tol=1e-5)
    for rep in reports:
        assert rep.passed, f"{name}/{rep.name}: max rel err {rep.max_rel_err:.3e}"


def test_maxpool_gradient_routes_to_unique_max():
    x = t(np.array([[[1.0, 2.0], [4.0, 3.0]]]))
    loss = ops.sum_all(ops.maxpool2x2(x))
    loss.backward()
    assert np.array_equal(x.grad, [[[0.0, 0.0], [1.0, 0.0]]])
    # finite differences agree at the unique max
    x2 = t(x.data.copy())
    fd = finite_difference(lambda: ops.sum_all(ops.maxpool2x2(x2)), x2, step=1e-6)
    assert np.max(np.abs(fd - x.grad)) <= 1e-8


def test_maxpool_tie_goes_to_first_row_major():
    x = t(np.full((1, 2, 2), 3.0))
    loss = ops.sum_all(ops.maxpool2x2(x))
    loss.backward()
    assert np.array_equal(x.grad, [[[1.0, 0.0], [0.0, 0.0]]])


@pytest.mark.parametrize("sign", ["signed", "positive"])
def test_weighted_sum_f32_coefficient_grads_keep_f32_accuracy(sign):
    # each coefficient's grad is one f32 dot product over a map of
    # fpn-decode's p3 size; all-positive terms cancel nothing, the case
    # that shows a running sum's roundoff best. Held to 1e-6 of sum|g * t|
    # (about 8 f32 roundings) against the float64 sum
    rng = np.random.default_rng(12)
    dims = (64, 56, 88)
    draw = (lambda: rng.standard_normal(dims)) if sign == "signed" else \
        (lambda: np.abs(rng.standard_normal(dims)))
    maps = [Tensor(draw().astype(np.float32)) for _ in range(5)]
    probe = Tensor(draw().astype(np.float32))
    coeffs = Tensor(rng.standard_normal(5).astype(np.float32), requires_grad=True)
    ops.sum_all(ops.mul(ops.weighted_sum(coeffs, maps), probe)).backward()
    assert coeffs.grad.dtype == np.float32
    g = probe.data.astype(np.float64).ravel()
    for got, m in zip(coeffs.grad, maps):
        terms = g * m.data.astype(np.float64).ravel()
        assert abs(float(got) - terms.sum()) <= 1e-6 * np.abs(terms).sum()


def test_gradcheck_flags_broken_backward():
    rng = np.random.default_rng(9)
    x = t(rng.normal(size=(3, 3)) + 0.2)
    probe = Tensor(rng.normal(size=(3, 3)))

    def build():
        return ops.sum_all(ops.mul(ops.relu(x), probe))

    with ops.broken_relu_gradient():
        reports = gradcheck(build, [("x", x)], step=1e-6, tol=1e-5)
    assert not all(rep.passed for rep in reports)


def test_gradcheck_aborts_on_nonfinite_loss():
    x = t([1.0])

    def build():
        bad = Tensor(np.array([np.inf]))
        return ops.sum_all(ops.mul(x, bad))

    with pytest.raises(GradcheckError):
        gradcheck(build, [("x", x)], step=1e-6, tol=1e-5)


def test_debug_finite_flag_catches_nan(monkeypatch):
    from hgd import tensor as tensor_mod
    monkeypatch.setattr(tensor_mod, "DEBUG_CHECK_FINITE", True)
    x = t([np.nan])
    with pytest.raises(FloatingPointError):
        ops.relu(x)
