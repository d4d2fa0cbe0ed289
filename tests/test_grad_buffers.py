"""Gradient buffers in the reverse sweep.

A parent's first adjoint becomes its grad as it is, whether the closure
computed it for that parent alone or passed its own adjoint on, and a later
one is summed into a new buffer. The sweep drops an intermediate's grad once
its closure has run, so only leaves keep one. These tests hold every grad
left after the sweeps to the values of the zero-fill-and-add accumulation
kept here as the reference, check that no array is written in place once it
is some node's grad, and check that the grads are sweep-local: leaves
only, and a second sweep adds the same gradient again. The last tests check
that the tape holds nodes, not tensors: no backward closure keeps a Tensor,
and a pyramid stage's maps that no backward reads are freed before the
sweep.
"""

import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hgd import Tensor, ops
from hgd.efficientfcn import (init_seg_params, segment_forward, tiny_backbone_config,
                              tiny_hgd_config)
from hgd.fpn import (DecodeState, Pyramid, fpn_decode, fpn_decode_once_full, init_fpn_params,
                     level_grids, tiny_fpn_config)
from hgd.synthdata import synth_dataset
from hgd.tensor import ComputeGraph, Node

C, H, W = 2, 3, 4   # H odd, so maxpool2x2 clips its last window row


def _zero_fill_acc(n, value, key=None):
    """The reference: every first adjoint lands in a fresh zero buffer, and a
    keyed one is added at its key, an index array into the flat view."""
    if n.grad is None:
        n.grad = np.zeros(n.dims, n.dtype)
    if key is None:
        n.grad += value
    else:
        (n.grad.reshape(-1) if isinstance(key, np.ndarray) else n.grad)[key] += value


def _pool(x, p):
    """x pooled and fused back onto its own grid with x itself."""
    return ops.upsampled_weighted_sum(p["c2"], ops.maxpool2x2(x), [x])


def _fuse_twice(xs, p):
    """One pooled map feeds two fusions, as p7 feeds the code map's and
    m6's, so its grad sums both adjoints, and so do the coefficients'."""
    coarse = ops.maxpool2x2(xs[0])
    return ops.add(ops.upsampled_weighted_sum(p["c"], coarse, xs[1:]),
                   ops.upsampled_weighted_sum(p["c"], coarse, xs[:0:-1]))


def _add_pooled(base, x):
    """add_upsampled passes its adjoint on to base and folds it onto x's
    pooling."""
    return ops.add_upsampled(base, ops.maxpool2x2(x))


def _flat(x):
    return ops.reshape(ops.reshape(x, (C * H * W,)), (C, H, W))


def _twice_transposed(x):
    m = ops.reshape(x, (C, H * W))
    return ops.reshape(ops.transpose(ops.transpose(m)), (C, H, W))


def _concat_in_place(xs, p):
    """conv1x1, bilinear_resize and matmul write into one buffer, which the
    concatenation returns; its backward passes each part a slice of g."""
    x, y = xs
    buf = np.empty((3 * C, H, W), x.dtype)
    parts = [ops.conv1x1(x, p["w"], p["b"], out=buf[:C]),
             ops.bilinear_resize(y, H, W, out=buf[C:2 * C]),
             ops.reshape(ops.matmul(p["w"], ops.reshape(x, (C, H * W)),
                                    out=buf[2 * C:].reshape(C, H * W)), (C, H, W))]
    return ops.conv1x1(ops.concat_channels(parts, out=buf), p["w6"], p["b"])


# op name -> (operand count, builder(operands, params)); "bias" and "mean"
# are the decoder's transfer add, conv1x1 reading its input plus a shift
# vector (a leaf, or the global average of another map)
_OPS = {
    "add": (2, lambda xs, p: ops.add(*xs)),
    "mul": (2, lambda xs, p: ops.mul(*xs)),
    "relu": (1, lambda xs, p: ops.relu(*xs)),
    "scale": (1, lambda xs, p: ops.scalar_scale(*xs, -1.5)),
    "flat": (1, lambda xs, p: _flat(*xs)),
    "transpose": (1, lambda xs, p: _twice_transposed(*xs)),
    "pool": (1, lambda xs, p: _pool(*xs, p)),
    "add-up": (2, lambda xs, p: _add_pooled(*xs)),
    "softmax": (1, lambda xs, p: ops.softmax_spatial(*xs)),
    "bias": (1, lambda xs, p: ops.conv1x1(*xs, p["w"], p["b"], shift=p["v"])),
    "conv": (1, lambda xs, p: ops.conv1x1(*xs, p["w"], p["b"])),
    "conv3": (1, lambda xs, p: ops.conv3x3(*xs, p["w3"], p["b"])),
    "mean": (2, lambda xs, p: ops.conv1x1(xs[0], p["w"], p["b"],
                                          shift=ops.global_avg_spatial(xs[1]))),
    "concat": (2, lambda xs, p: ops.conv1x1(ops.concat_channels(xs), p["w2"], p["b"])),
    "concat-in-place": (2, _concat_in_place),
    "fuse": (3, _fuse_twice),
}


@st.composite
def programs(draw):
    """(seed, dtype, steps, extra, sweeps): steps are (op, operand indices)
    into a pool that starts with four maps, the last without grad; the loss
    reads the last map and, through sum_all, map `extra` as well."""
    steps = []
    for n in range(4, 4 + draw(st.integers(1, 8))):
        op = draw(st.sampled_from(sorted(_OPS)))
        operands = draw(st.lists(st.integers(0, n - 1), min_size=_OPS[op][0],
                                 max_size=_OPS[op][0]))
        steps.append((op, operands))
    extra = draw(st.integers(0, 3 + len(steps)))
    return (draw(st.integers(0, 2**16)), draw(st.sampled_from([np.float32, np.float64])),
            steps, extra, draw(st.integers(1, 2)))


def _build(program):
    """The program's loss."""
    seed, dtype, steps, extra, _ = program
    rng = np.random.default_rng(seed)

    def new(*dims, grad=True):
        return Tensor(rng.standard_normal(dims).astype(dtype), requires_grad=grad)

    params = {"v": new(C), "w": new(C, C), "w2": new(C, 2 * C), "w3": new(C, C, 3, 3),
              "b": new(C), "c": new(3), "w6": new(C, 3 * C), "c2": new(2)}
    pool = [new(C, H, W) for _ in range(3)] + [new(C, H, W, grad=False)]
    for op, operands in steps:
        pool.append(_OPS[op][1]([pool[i] for i in operands], params))
    loss = ops.add(ops.sum_all(ops.mul(pool[-1], new(C, H, W, grad=False))),
                   ops.sum_all(pool[extra]))
    return loss


def _check_writes(mp, nodes):
    """Make mp record every array that becomes a grad of nodes, with a
    copy of it as it was then, and return a check that fails if any of them
    has been written since. A grad _acc sets is recorded at once, and every
    grad of nodes after each backward closure, which covers the ones the
    sweep itself assigns."""
    real_acc = ops._acc
    seen = {}   # id -> (array, copy); holding the array keeps its id unique

    def record(grad):
        if grad is not None and id(grad) not in seen:
            seen[id(grad)] = (grad, grad.copy())

    def acc(n, value, key=None):
        real_acc(n, value, key)
        record(n.grad)

    def checked(closure):
        def run(g):
            closure(g)
            for n in nodes:
                record(n.grad)
        return run

    mp.setattr(ops, "_acc", acc)
    for n in nodes:
        if n._backward_fn is not None:
            mp.setattr(n, "_backward_fn", checked(n._backward_fn))

    def check():
        for i, (grad, snapshot) in enumerate(seen.values()):
            assert grad.tobytes() == snapshot.tobytes(), i
    return check


def _swept_grads(loss, sweeps, acc=None):
    """Every grad of loss's graph after `sweeps` reverse sweeps; acc
    replaces ops._acc, or None runs the real one with its writes checked."""
    nodes = ComputeGraph.trace(loss).nodes
    with pytest.MonkeyPatch.context() as mp:
        if acc is None:
            check = _check_writes(mp, nodes)
        else:
            mp.setattr(ops, "_acc", acc)
        for _ in range(sweeps):
            loss.backward()
    if acc is None:
        check()
    return [n.grad for n in nodes]


def _grads(program, acc=None):
    """Every grad of the program's graph after its sweeps."""
    return _swept_grads(_build(program), program[-1], acc)


@settings(max_examples=150, deadline=None)
@given(programs())
# maxpool2x2 scatters into a copy of a grad that add passed to two leaves
@example((0, np.float64, [("pool", [0]), ("add", [0, 1])], 4, 1))
# maxpool2x2 scatters into a copy of the strided grad conv3x3 handed over
@example((0, np.float32, [("pool", [0]), ("conv3", [0])], 4, 1))
# the fusions' maps, coarse map and coefficients, fed by a pass-through
# chain and add(x, x)
@example((1, np.float64, [("flat", [0]), ("add", [4, 4]), ("fuse", [5, 4, 0])], 4, 1))
# one coarse map feeds two fusions, and its source is also their map, over
# one and two sweeps
@example((6, np.float32, [("fuse", [0, 0, 1])], 4, 1))
@example((7, np.float64, [("fuse", [1, 0, 1]), ("pool", [4])], 4, 2))
# a second sweep accumulates onto grads the first one passed through
@example((2, np.float64, [("flat", [0]), ("add", [4, 4])], 0, 2))
# the in-place concatenation passes slices of its grad to parts that share
# x, and a second sweep accumulates onto them
@example((3, np.float32, [("concat-in-place", [0, 0]), ("add", [4, 0])], 0, 2))
# add_upsampled passes its adjoint to a base that is also its pooled operand,
# and to the same map through add, over one and two sweeps
@example((4, np.float64, [("add-up", [0, 0]), ("add", [4, 0])], 0, 1))
@example((5, np.float32, [("add-up", [0, 0]), ("add-up", [4, 0]), ("flat", [5])], 4, 2))
# the fusions' coefficients against the stride-0 adjoint sum_all passes on
@example((0, np.float64, [("bias", [0]), ("bias", [0]), ("bias", [0]), ("fuse", [0, 0, 0]),
                          ("add", [0, 0])], 7, 1))
def test_grads_equal_zero_fill_reference(program):
    got = _grads(program)
    want = _grads(program, acc=_zero_fill_acc)
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        if w is None:
            assert g is None, i
            continue
        assert g.dtype == w.dtype and g.shape == w.shape, i
        assert np.array_equal(g, w, equal_nan=True), i


def _column_slices(whole_first):
    """(w, loss): the loss reads matrix w whole, through the adjoint add
    passes on, and as two overlapping column slices."""
    rng = np.random.default_rng(9)
    w = Tensor(rng.standard_normal((3, 5)), requires_grad=True)
    probes = [Tensor(rng.standard_normal((3, 3))) for _ in range(2)]
    whole = ops.sum_all(ops.add(w, w))
    sliced = ops.add(ops.sum_all(ops.mul(ops.columns(w, 0, 3), probes[0])),
                     ops.sum_all(ops.mul(ops.columns(w, 2, 5), probes[1])))
    want = np.full((3, 5), 2.0)
    want[:, 0:3] += probes[0].data
    want[:, 2:5] += probes[1].data
    return w, want, ops.add(whole, sliced) if whole_first else ops.add(sliced, whole)


@pytest.mark.parametrize("sweeps", [1, 2])
@pytest.mark.parametrize("whole_first", [True, False])
def test_column_slices_accumulate_into_one_grad(whole_first, sweeps):
    # each slice scatters into a copy of w's grad, which may be the very
    # adjoint add passed on
    w, want, loss = _column_slices(whole_first)
    got = _swept_grads(loss, sweeps)
    ref = _swept_grads(_column_slices(whole_first)[2], sweeps, acc=_zero_fill_acc)
    for i, (g, r) in enumerate(zip(got, ref)):
        assert (g is None) == (r is None), i
        assert g is None or np.array_equal(g, r), i
    if sweeps == 1:
        assert np.allclose(w.grad, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("op, dims", [
    (ops.maxpool2x2, (2, 3, 5)),
    (lambda x: ops.columns(x, 1, 3), (3, 4)),
], ids=["maxpool2x2", "columns"])
def test_first_scatter_adjoint_keeps_its_bits(op, dims):
    # a scattered first adjoint is written into zeros, not added to them
    # (+0.0 + -0.0 is +0.0): an incoming -0.0 stays -0.0 where it lands, and
    # every other element of the grad is +0.0
    rng = np.random.default_rng(4)
    data = rng.standard_normal(dims)
    reached = Tensor(data, requires_grad=True)
    ops.sum_all(op(reached)).backward()
    x = Tensor(data, requires_grad=True)
    out = op(x)
    ops.sum_all(ops.mul(out, Tensor(np.full(out.dims, -0.0)))).backward()
    assert np.all(x.grad == 0)
    assert np.array_equal(np.signbit(x.grad), reached.grad != 0)


def test_second_sweep_does_not_write_through_a_lent_grad():
    # add passes its grad on to y twice and reshape passes y's on to w, so
    # w's first grad is an array the sweep lent; the sweep drops y's grad,
    # and a second sweep adds dloss/dw = 2 again onto a new buffer: w 2 + 2
    w = Tensor(np.ones((2, 3, 4)), requires_grad=True)
    y = ops.reshape(w, (24,))
    loss = ops.sum_all(ops.add(y, y))
    loss.backward()
    first = w.grad
    assert np.array_equal(first, np.full((2, 3, 4), 2.0))
    loss.backward()
    assert np.array_equal(w.grad, np.full((2, 3, 4), 4.0))
    assert np.array_equal(first, np.full((2, 3, 4), 2.0))


def _fpn_loss(decode=fpn_decode):
    """(loss, parameters): a tiny_fpn_config() decode, k=2 with shared
    parameters, of a 16x24 pyramid, under fixed probes of its levels;
    decode(pyramid, params) returns the decoded pyramid."""
    rng = np.random.default_rng(11)
    params = init_fpn_params(tiny_fpn_config(), rng)
    channels = tiny_fpn_config().output_channels
    pyr = Pyramid(*[Tensor(rng.standard_normal((channels, h, w)))
                    for h, w in level_grids((16, 24))])
    terms = [ops.sum_all(ops.mul(level, Tensor(rng.standard_normal(level.dims))))
             for level in decode(pyr, params).levels()]
    loss = terms[0]
    for term in terms[1:]:
        loss = ops.add(loss, term)
    return loss, [t for _, t in params.named_parameters()]


def _seg_loss():
    """(loss, parameters): the toy segmenter's cross-entropy on one 32x32
    synthetic image."""
    params = init_seg_params(tiny_backbone_config(), tiny_hgd_config(), 3,
                             np.random.default_rng(12))
    sample = synth_dataset(seed=13, count=1, size=32, num_classes=3)[0]
    logits = segment_forward(Tensor(sample.image.data.astype(np.float64)), params)
    return ops.cross_entropy_logits(logits, sample.label), [t for _, t in params.named_parameters()]


@pytest.mark.parametrize("build", [_fpn_loss, _seg_loss], ids=["fpn-k2", "seg"])
def test_grads_are_sweep_local(build):
    # a sweep leaves grads on the parameters only, and a second sweep adds
    # the same gradient again rather than propagating the first one's
    # intermediate grads once more
    loss, params = build()
    assert all(p.data.dtype == np.float64 for p in params)
    loss.backward()
    for i, node in enumerate(ComputeGraph.trace(loss).nodes):
        assert not node._parents or node.grad is None, (i, node)
    assert all(p.grad is not None for p in params)
    first = [p.grad for p in params]
    scale = max(np.max(np.abs(g)) for g in first)
    loss.backward()
    for i, (p, g) in enumerate(zip(params, first)):
        assert np.max(np.abs(p.grad - 2 * g)) <= 1e-12 * scale, i


@pytest.mark.parametrize("build", [_fpn_loss, _seg_loss], ids=["fpn-k2", "seg"])
def test_backward_closures_hold_no_tensor(build):
    # a closure keeps its parents' nodes and the arrays its backward reads,
    # so no value it does not read stays alive through the tape
    loss, _ = build()
    nodes = ComputeGraph.trace(loss).nodes
    assert all(isinstance(node, Node) for node in nodes)
    for i, node in enumerate(nodes):
        for cell in node._backward_fn.__closure__ if node._backward_fn else ():
            value = cell.cell_contents
            for item in value if isinstance(value, (list, tuple)) else (value,):
                assert not isinstance(item, Tensor), (i, node)


def test_dropped_stage_maps_are_freed_before_the_sweep():
    # stage 1's branch conv output (refined p5, read by no backward) and its
    # output p3 (formed here by reading it; stage 2 reads only the input p3
    # and refined p4 it was formed from) die with the FpnTraces and the
    # stage-1 state, before the sweep, and the gradients equal those of a
    # decode whose caller held them
    def by_stage(held):
        refs, keep = [], []

        def decode(pyr, params):
            out, trace = fpn_decode_once_full(DecodeState.of(pyr), params)
            refs.extend([weakref.ref(trace.refined[5].data), weakref.ref(out.p3.data)])
            last, last_trace = fpn_decode_once_full(out, params)
            if held:
                keep.extend([out, trace, last_trace])
            return last.pyramid()

        loss, params = _fpn_loss(decode)
        assert [ref() is None for ref in refs] == [not held] * 2
        loss.backward()
        return [p.grad for p in params]

    dropped, kept = by_stage(held=False), by_stage(held=True)
    assert all(g.dtype == np.float64 for g in dropped)
    for i, (a, b) in enumerate(zip(dropped, kept)):
        assert a.tobytes() == b.tobytes(), i
