"""Products written in place, and concatenations that return their buffer.

conv1x1, bilinear_resize and matmul write into a caller's `out` array and
give it back as the result's data; concat_channels(parts, out=buf) returns
buf itself once the parts are its consecutive channel slices. The
segmentation decoder builds its fine-grid stacks this way, so these tests
also hold its outputs to the copying path and pin the memory a
paper-shaped forward keeps. The pyramid decoder builds no stack
(tests/test_fpn_reference.py checks that).
"""

import gc

import numpy as np
import pytest

from hgd import DimensionError, Tensor, ops
from hgd import decoder
from hgd.decoder import HgdConfig, hgd_forward, hgd_forward_full, init_hgd_params
from hgd.tensor import ComputeGraph

DTYPES = [np.float32, np.float64]


def _rand(rng, dims, dtype, grad=False):
    return Tensor(rng.standard_normal(dims).astype(dtype), requires_grad=grad)


def _conv1x1(rng, dtype):
    x, w, b = (_rand(rng, d, dtype, grad=True) for d in [(5, 3, 4), (6, 5), (6,)])
    return (6, 3, 4), lambda out: ops.conv1x1(x, w, b, out=out)


def _bilinear(rng, dtype):
    x = _rand(rng, (4, 3, 5), dtype, grad=True)
    return (4, 6, 9), lambda out: ops.bilinear_resize(x, 6, 9, out=out)


def _matmul(rng, dtype):
    a, b = _rand(rng, (7, 3), dtype, grad=True), _rand(rng, (3, 10), dtype)
    return (7, 10), lambda out: ops.matmul(a, b, out=out)


PRODUCERS = {"conv1x1": _conv1x1, "bilinear_resize": _bilinear, "matmul": _matmul}


# ------------------------------------------------------------ the out contract

@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("op", sorted(PRODUCERS))
def test_out_holds_the_same_bytes_and_is_the_data(op, dtype):
    dims, run = PRODUCERS[op](np.random.default_rng(0), dtype)
    fresh = run(None)
    # a lone buffer, and a slice of a larger one as the decoders pass
    for out in (np.full(dims, np.nan, dtype),
                np.full((dims[0] + 3, *dims[1:]), np.nan, dtype)[2:2 + dims[0]]):
        got = run(out)
        assert got.data is out and np.shares_memory(got.data, out)
        assert got.data.dtype == fresh.data.dtype and got.dims == fresh.dims
        assert got.data.tobytes() == fresh.data.tobytes()


def _wrong_outs(dims, dtype):
    other = np.float64 if dtype == np.float32 else np.float32
    big = np.empty((*dims[:-1], 2 * dims[-1]), dtype)
    return {"shape": np.empty((dims[0] + 1, *dims[1:]), dtype),
            "dtype": np.empty(dims, other),
            "strided": big[..., ::2],
            "fortran": np.empty(dims, dtype, order="F")}


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("op", sorted(PRODUCERS))
def test_out_of_the_wrong_shape_dtype_or_layout_raises(op, dtype):
    dims, run = PRODUCERS[op](np.random.default_rng(1), dtype)
    for name, out in _wrong_outs(dims, dtype).items():
        if name == "fortran" and out.flags.c_contiguous:
            continue   # a 1-row matrix is both
        with pytest.raises(DimensionError, match=f"{op} out must be"):
            run(out)


def test_out_takes_the_promoted_dtype_of_mixed_operands():
    rng = np.random.default_rng(2)
    x = _rand(rng, (5, 3, 4), np.float32)
    w, b = _rand(rng, (6, 5), np.float64), _rand(rng, (6,), np.float64)
    want = ops.conv1x1(x, w, b)
    assert want.data.dtype == np.float64
    # an f32 buffer would take the f64 product by same-kind casting
    with pytest.raises(DimensionError):
        ops.conv1x1(x, w, b, out=np.empty((6, 3, 4), np.float32))
    got = ops.conv1x1(x, w, b, out=np.empty((6, 3, 4), np.float64))
    assert got.data.tobytes() == want.data.tobytes()


# ------------------------------------------------------ the no-copy concat

def _filled(dims):
    """A buffer that owns its memory, each element a distinct value."""
    buf = np.empty(dims)
    buf.reshape(-1)[:] = np.arange(buf.size)
    return buf


def test_parts_that_tile_the_buffer_are_the_buffer():
    buf = _filled((6, 3, 4))
    for widths in [(6,), (2, 4), (1, 0, 2, 3)]:
        bounds = np.cumsum((0, *widths))
        parts = [Tensor(buf[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]
        out = ops.concat_channels(parts, out=buf)
        assert out.data is buf
        assert np.array_equal(out.data, np.concatenate([p.data for p in parts]))


def _gap():
    buf = _filled((5, 3, 4))
    return [buf[:2], buf[3:]], buf


def _wrong_order():
    buf = _filled((5, 3, 4))
    return [buf[2:], buf[:2]], buf


def _foreign():
    buf = _filled((5, 3, 4))
    return [buf[:2], _filled((3, 3, 4))], buf


def _repeated():
    buf = _filled((4, 3, 4))
    return [buf[:2], buf[:2]], buf


def _shifted():
    # contiguous and of the right size, but one element before its slot
    buf = _filled((4, 3, 4))
    return [buf[:2], buf.reshape(-1)[23:47].reshape(2, 3, 4)], buf


def _mixed_dtypes():
    buf = _filled((4, 3, 4))
    narrow = buf[2:].reshape(-1).view(np.float32)[:24].reshape(2, 3, 4)
    return [buf[:2], narrow], buf


NOT_TILING = {"gap": _gap, "wrong-order": _wrong_order, "foreign": _foreign,
              "repeated": _repeated, "shifted": _shifted, "mixed-dtypes": _mixed_dtypes}


@pytest.mark.parametrize("layout", sorted(NOT_TILING))
def test_parts_that_do_not_tile_copy_without_out_and_raise_with_it(layout):
    arrays, buf = NOT_TILING[layout]()
    parts = [Tensor(a) for a in arrays]
    want = np.concatenate(arrays, axis=0)
    got = ops.concat_channels(parts)
    assert got.data.dtype == want.dtype and np.array_equal(got.data, want)
    assert not np.shares_memory(got.data, buf)
    with pytest.raises(DimensionError, match="concat_channels"):
        ops.concat_channels(parts, out=buf)


def test_out_that_is_a_view_of_a_larger_buffer_raises():
    # the parts' base is the owner of the memory, not the view
    big = _filled((6, 3, 4))
    buf = big[1:5]
    with pytest.raises(DimensionError):
        ops.concat_channels([Tensor(buf[:2]), Tensor(buf[2:])], out=buf)


# ---------------------------------------------------------- the decoders

def test_assemble_from_writes_into_out_or_raises():
    rng = np.random.default_rng(8)
    coeffs, codewords = _rand(rng, (3, 4, 5), np.float64), _rand(rng, (6, 3), np.float64)
    want = decoder.assemble_from(coeffs, codewords)
    out = np.empty((6, 4, 5))
    got = decoder.assemble_from(coeffs, codewords, out=out)
    assert np.shares_memory(got.data, out) and got.data.tobytes() == want.data.tobytes()
    # h and w of this view do not merge, so a reshape would copy
    with pytest.raises(DimensionError):
        decoder.assemble_from(coeffs, codewords, out=np.empty((6, 4, 10))[:, :, ::2])


def _paper_shaped(rng, dtype=np.float64, tap_dtypes=None, grid=64):
    """A decoder with the paper's channel ratios at 1/32 of its widths; at
    the paper's 64 x 64 fine grid both stacks are big enough to be built in
    place, in f32 too."""
    cfg = HgdConfig(n_codewords=8, codeword_dim=32, compressed_channels=16,
                    guidance_channels=32)
    params = init_hgd_params((16, 32, 64), cfg, rng, dtype)
    tap_dtypes = tap_dtypes or (dtype,) * 3
    taps = [_rand(rng, (c, grid // s, grid // s), d)
            for (c, s), d in zip(((16, 1), (32, 2), (64, 4)), tap_dtypes)]
    return taps, params


def _root(a):
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def _recording_concats(monkeypatch):
    """Make every concatenation record its parts: id(result) -> (result,
    parts), the result held so that its id stays unique."""
    calls = {}
    concat = ops.concat_channels

    def recording(tensors, *, out=None):
        parts = list(tensors)
        result = concat(parts, out=out)
        calls[id(result)] = (result, parts)
        return result

    monkeypatch.setattr(ops, "concat_channels", recording)
    return lambda stack: calls[id(stack)][1]


def test_decoder_stacks_share_their_parts_memory(monkeypatch):
    parts_of = _recording_concats(monkeypatch)
    taps, params = _paper_shaped(np.random.default_rng(3))
    trace = hgd_forward_full(*taps, params)
    assert np.shares_memory(trace.fused.data, trace.guidance.data)
    assert np.shares_memory(trace.fused.data, trace.assembled.data)
    assert len(trace.m8._parents) == 3
    assert [p._node for p in parts_of(trace.m8)] == list(trace.m8._parents)
    for part in parts_of(trace.m8):
        assert np.shares_memory(trace.m8.data, part.data)
    # m32 is still a copy of its parts
    assert not any(np.shares_memory(trace.m32.data, p.data) for p in parts_of(trace.m32))


def test_stacks_under_the_size_floor_are_copied(monkeypatch):
    # at 8 x 8 the stacks are 24 and 32 KiB, where the copy costs less than
    # checking the layout
    parts_of = _recording_concats(monkeypatch)
    taps, params = _paper_shaped(np.random.default_rng(7), grid=8)
    trace = hgd_forward_full(*taps, params)
    for stack in (trace.m8, trace.fused):
        assert stack.data.nbytes < decoder._IN_PLACE_MIN_BYTES
        assert not any(np.shares_memory(stack.data, p.data) for p in parts_of(stack))


def _copying(monkeypatch):
    """Make every decoder stack allocate its parts and copy them."""
    def no_buffer(widths, grid, operands):
        return None, [None] * len(widths)
    monkeypatch.setattr(decoder, "_concat_slots", no_buffer)


@pytest.mark.parametrize("dtypes", [(np.float32, (np.float32,) * 3),
                                    (np.float64, (np.float64,) * 3),
                                    (np.float64, (np.float32,) * 3),
                                    (np.float32, (np.float64, np.float32, np.float32)),
                                    (np.float32, (np.float32, np.float32, np.float64))],
                         ids=["f32", "f64", "f64-params-f32-taps", "f64-e8", "f64-e32"])
def test_decoder_output_and_trace_equal_the_copying_path(monkeypatch, dtypes):
    taps, params = _paper_shaped(np.random.default_rng(4), dtypes[0], dtypes[1])
    got = hgd_forward_full(*taps, params)
    _copying(monkeypatch)
    want = hgd_forward_full(*taps, params)
    for field in vars(want):
        g, w = getattr(got, field).data, getattr(want, field).data
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), field


def _held_bytes(root):
    """Bytes of the distinct buffers that the graph of root keeps alive:
    the arrays its backward closures keep and the data of its tensors that
    are still alive (root, and leaves such as the taps and parameters)."""
    nodes = ComputeGraph.trace(root).nodes
    on_graph = {id(node) for node in nodes}
    arrays = [t.data for t in gc.get_objects()
              if isinstance(t, Tensor) and id(t._node) in on_graph]
    for node in nodes:
        for cell in node._backward_fn.__closure__ if node._backward_fn else ():
            value = cell.cell_contents
            for item in value if isinstance(value, (list, tuple)) else (value,):
                if isinstance(item, np.ndarray):
                    arrays.append(item)
    buffers = {id(_root(a)): _root(a) for a in arrays}
    return sum(a.nbytes for a in buffers.values())


def test_decoder_forward_holds_each_stack_once(monkeypatch):
    # the taps and parameters, the output stack (2,097,152 bytes) and what
    # the backward reads: m8 (1,572,864), G, the mean bases vector (256),
    # the coefficients, m32, the bases, the softmax and the codewords. The
    # assembly conv takes the mean as its shift, so no G plus mean map
    # (1,048,576) is held. No stack's part is held beside its stack: m8's
    # parts and the output's are views of theirs, G included
    taps, params = _paper_shaped(np.random.default_rng(6))
    assert _held_bytes(hgd_forward(*taps, params)) == 5_114_112
    # a copied part is freed once the forward drops it, since no backward
    # reads it, except G: the assembly conv reads it, so the copying path
    # holds G (1,048,576) beside the copied output stack
    _copying(monkeypatch)
    assert _held_bytes(hgd_forward(*taps, params)) == 5_114_112 + 1_048_576
