"""Differentiable primitive operations over hgd.tensor.Tensor.

Feature maps are (channels, height, width). Every op validates shapes,
computes the forward value with numpy, and gives its output a new node
(_make) whose backward closure accumulates adjoints into any parent with
requires_grad set.

The closure contract: a backward closure captures its parents' nodes and
the arrays its backward reads, and nothing else. No closure holds a
Tensor, and an op keeps no array its backward does not read. So the tape
holds conv1x1's input, weight and shift vector (when given), conv3x3's
column matrix and weight, matmul's and mul's operands, weighted_sum's maps
and coefficients, softmax_spatial's output, relu's mask, maxpool2x2's
window winners, cross_entropy_logits' shifted logits, log-sum-exp, mask
and indices, and bilinear_resize's cached interpolation matrices; add,
add_upsampled, nearest_resize, the shape movers and the reductions keep
only dims and scalars. An output that no backward reads is freed as soon
as its Tensor is dropped, even while its node is still on the tape.

Conventions fixed here (and relied on by the oracles in the test suite):
- no grad array is written in place, and no first adjoint gets a zero
  buffer. Closures hand adjoints to _acc, which adopts a parent's first
  adjoint as its grad, whether fresh or passed through unchanged (add's,
  reshape's, a concat_channels slice), and sums a later one into a new
  buffer. maxpool2x2 and columns scatter into a new buffer, zeros when
  their input has no grad yet and a copy of its grad once it has one, so
  several column slices of one matrix accumulate into one grad;
- bilinear_resize uses the half-pixel convention src = (dst+0.5)*in/out - 0.5
  with edge clamping, realized as dense row/column interpolation matrices so
  the backward pass is the exact transpose;
- nearest_resize gathers src = dst // 2 onto the grid that maxpool2x2
  pools back to the input's; its backward sums each source's one or two
  copies by strided slices, rows first and then columns, so non-finite
  values stay local in both directions. It equals the dense one-hot product
  Mh.T @ g @ Mw bit for bit except for the sign of a zero sum;
- add_upsampled(base, coarse) is add(base, nearest_resize(coarse)) bit for
  bit, forward and both gradients, and faster: the sum is written into the
  upsampled copy, so one map fewer is allocated and filled, and one node
  fewer is recorded and swept. base is the first operand, as add's a, base
  gets g itself and coarse gets nearest_resize's pair sums of g;
- one argmax rule, np.argmax's, lives in _first_argmax: the first maximal
  element wins, a NaN counting as larger than any number, so ties go to the
  first index, the first NaN wins and a NaN best is final. It is a running
  scan over a sequence of views, which maxpool2x2 feeds its four window taps
  and efficientfcn.predict_labels the class slices of its logits;
- maxpool2x2 uses stride-2 windows clipped at the edges and is ceil-mode
  only: an h x w map pools to ceil(h/2) x ceil(w/2), the grid every
  pyramid level already has. Each window's winner is its first
  maximal element in row-major window order under that rule, and the
  output is the winner itself, sign of zero included. The gradient goes to
  the winner only. The tape keeps each window's winner as its 1-byte tap
  number, and the backward rebuilds the 8-byte flat indices from it and the
  cached window bases (_pool_base);
- relu's gradient at exactly 0 is 0;
- softmax_spatial subtracts the per-channel spatial max before exponentiating;
- conv1x1 is one 2-D GEMM on the (c_in, h * w) view of its input, the bias
  added in place; the backward pass is W.T @ g, g @ x.T and g's row sums.
  A keyword-only shift, a (c_in,) vector s, makes it W (x + s) + b without
  building x + s: the per-channel vector W s + b is added in place where
  the bias would be, and the backward adds rowsum(g) s.T to the weight
  gradient and gives s the gradient W.T rowsum(g). W s is per-channel work
  like the bias, so the op's MACs are those of W x;
- conv3x3 is lowered with im2col: one strided (c_in, 3, 3, oh, ow) view of
  the zero-padded input, reshaped to a (9 * c_in, oh * ow) column matrix
  whose rows follow the weight's own (c_in, dy, dx) order, so each
  direction is one GEMM (forward W @ cols, weight gradient g @ cols.T,
  input gradient W.T @ g). The backward pass keeps the forward's column
  matrix. W.T @ g is folded back onto the unpadded input by one
  np.bincount through a cached index (_col2im_index), padding taps going
  to a dropped last bin; bincount adds each pixel's taps in (dy, dx) order
  from 0.0, so f64 gradients equal nine strided slice-adds into a zero
  buffer bit for bit, and f32 ones are summed in f64 and rounded once;
- cross_entropy_logits builds the flat index of each pixel's true-class
  logit once: the forward gathers the true-class term through it (equal to
  np.take_along_axis's) and the backward scatters the gradient's through
  it; each pixel has one label, so the indices are unique and the result
  equals np.subtract.at's bit for bit;
- conv1x1, bilinear_resize and matmul take a keyword-only out: a
  C-contiguous array of exactly the result's dims and dtype (checked, so
  numpy never casts a product into it), which the product is written into
  and which becomes the result's data. It must not share memory with the
  op's inputs. concat_channels(parts, out=buf) returns buf itself, without
  a copy, once each part's data is checked to be its own consecutive
  channel slice of buf (a buffer that owns its memory), in order; so a
  concatenation of parts written in place is their buffer, and the parts'
  data are views of the concatenation's. That is safe because only leaves
  are written in place (sgd_step, and the tests' parameter edits), and a
  leaf is never such a part.
"""

from __future__ import annotations

import contextlib
import functools

import numpy as np

from . import tensor as _t
from .metrics import IGNORE_ID
from .tensor import Node, Tensor, DimensionError

_new = object.__new__


def _make(data, parents, op, backward_fn):
    """The op's output: its data and a new node that records parents (the
    parents' nodes), the op's name and, when some parent requires grad,
    backward_fn."""
    if _t.DEBUG_CHECK_FINITE and not np.all(np.isfinite(data)):
        raise FloatingPointError(f"non-finite values produced by {op}")
    requires_grad = False
    for p in parents:
        if p.requires_grad:
            requires_grad = True
            break
    # slot by slot rather than through __init__: this runs once per op
    node = _new(Node)
    node.grad = None
    node.requires_grad = requires_grad
    node.dims = data.shape
    node.dtype = data.dtype
    node._parents = parents
    node._backward_fn = backward_fn if requires_grad else None
    node._op = op
    out = _new(Tensor)
    out.data = data
    out._node = node
    return out


def _acc(n: Node, value):
    """Sum the adjoint value into n.grad.

    The first value becomes n.grad as it is, whether the closure computed
    it for n alone or passes on its incoming adjoint; a later one is summed
    into a new buffer, since a grad is never written in place.
    """
    if n.grad is None:
        # a 0-d product is a numpy scalar, and a grad keeps its node's dtype
        n.grad = np.asarray(value, dtype=n.dtype)
    else:
        n.grad = np.add(n.grad, value, out=np.empty(n.dims, n.dtype))


def _check_out(out: np.ndarray, dims: tuple, dtype, op: str):
    """Raise unless out is a C-contiguous array of exactly dims and dtype."""
    if out.shape != dims or out.dtype != dtype or not out.flags.c_contiguous:
        layout = "C-contiguous" if out.flags.c_contiguous else "not C-contiguous"
        raise DimensionError(
            f"{op} out must be a C-contiguous {np.dtype(dtype).name} array of dims {dims}, "
            f"got {out.dtype.name} {out.shape}, {layout}")


def _check_rank(t: Tensor, rank: int, what: str):
    if t.data.ndim != rank:
        raise DimensionError(f"{what} must have rank {rank}, got dims {t.dims}")


# --------------------------------------------------------------- arithmetic

def add(a: Tensor, b: Tensor) -> Tensor:
    if a.dims != b.dims:
        raise DimensionError(f"add operands differ: {a.dims} vs {b.dims}")
    an, bn = a._node, b._node

    def bwd(g):
        if an.requires_grad:
            _acc(an, g)
        if bn.requires_grad:
            _acc(bn, g)

    return _make(a.data + b.data, (an, bn), "add", bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.dims != b.dims:
        raise DimensionError(f"mul operands differ: {a.dims} vs {b.dims}")
    an, bn, ad, bd = a._node, b._node, a.data, b.data

    def bwd(g):
        if an.requires_grad:
            _acc(an, g * bd)
        if bn.requires_grad:
            _acc(bn, g * ad)

    return _make(ad * bd, (an, bn), "mul", bwd)


def scalar_scale(x: Tensor, s: float) -> Tensor:
    s = float(s)
    xn = x._node

    def bwd(g):
        if xn.requires_grad:
            _acc(xn, s * g)

    return _make(s * x.data, (xn,), "scalar_scale", bwd)


def sum_all(x: Tensor) -> Tensor:
    xn = x._node

    def bwd(g):
        if xn.requires_grad:
            _acc(xn, np.broadcast_to(g, xn.dims))

    return _make(np.asarray(x.data.sum(), dtype=x.dtype), (xn,), "sum_all", bwd)


# ReLU backward scale; != 1.0 only inside broken_relu_gradient() below.
_RELU_GRAD_SCALE = 1.0


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0
    xn = x._node

    def bwd(g):
        if xn.requires_grad:
            _acc(xn, g * mask * _RELU_GRAD_SCALE)

    # multiply (not where) so non-finite inputs stay visible to the debug check
    return _make(x.data * mask, (xn,), "relu", bwd)


@contextlib.contextmanager
def broken_relu_gradient():
    """Deliberately mis-scale relu's backward pass by 1.5.

    Exists solely so the gradient checker's failure path can be exercised;
    see the negative tests and the gradcheck CLI flag.
    """
    global _RELU_GRAD_SCALE
    _RELU_GRAD_SCALE = 1.5
    try:
        yield
    finally:
        _RELU_GRAD_SCALE = 1.0


# ------------------------------------------------------------- convolutions

def conv1x1(x: Tensor, weight: Tensor, bias: Tensor, *, shift: Tensor = None,
            out=None) -> Tensor:
    """Pointwise convolution: out(o,x,y) = bias(o) + sum_i weight(o,i) * in(i,x,y).

    With `shift`, a (c_in,) vector, the input is in + shift at every pixel:
    out = W (in + shift) + b, computed as W in + (W shift + b), so the
    shifted map is never built. W shift is per-channel work like the bias,
    and the op's MACs are still those of W in.
    """
    _check_rank(x, 3, "conv1x1 input")
    _check_rank(weight, 2, "conv1x1 weight")
    _check_rank(bias, 1, "conv1x1 bias")
    if weight.dims[1] != x.dims[0]:
        raise DimensionError(
            f"conv1x1 input channel axis: weight expects {weight.dims[1]}, input has {x.dims[0]}")
    if bias.dims[0] != weight.dims[0]:
        raise DimensionError(
            f"conv1x1 output channel axis: weight makes {weight.dims[0]}, bias has {bias.dims[0]}")
    if shift is not None:
        _check_rank(shift, 1, "conv1x1 shift")
        if shift.dims[0] != x.dims[0]:
            raise DimensionError(
                f"conv1x1 shift channel axis: input has {x.dims[0]}, shift has {shift.dims[0]}")

    c_out = weight.dims[0]
    c_in, h, w = x.dims
    x2 = x.data.reshape(c_in, h * w)
    if out is None:
        y = weight.data @ x2
        out = y.reshape(c_out, h, w)
    else:
        _check_out(out, (c_out, h, w), np.promote_types(weight.dtype, x.dtype), "conv1x1")
        y = np.matmul(weight.data, x2, out=out.reshape(c_out, h * w))
    xn, wn, bn, wd = x._node, weight._node, bias._node, weight.data
    if shift is None:
        y += bias.data[:, None]
        sn = sd = None
        parents = (xn, wn, bn)
    else:
        sn, sd = shift._node, shift.data
        y += (wd @ sd + bias.data)[:, None]
        parents = (xn, wn, bn, sn)

    def bwd(g):
        g2 = g.reshape(c_out, h * w)
        if xn.requires_grad:
            _acc(xn, (wd.T @ g2).reshape(c_in, h, w))
        rows = g2.sum(axis=1) if bn.requires_grad or sd is not None else None
        if wn.requires_grad:
            dw = g2 @ x2.T
            if sd is not None:
                dw += np.outer(rows, sd)
            _acc(wn, dw)
        if bn.requires_grad:
            _acc(bn, rows)
        if sn is not None and sn.requires_grad:
            _acc(sn, wd.T @ rows)

    return _make(out, parents, "conv1x1", bwd)


def _im2col(xp: np.ndarray, oh: int, ow: int, stride: int) -> np.ndarray:
    """(9 * c_in, oh * ow) column matrix of a padded (c_in, h + 2, w + 2) map.

    Row (c, dy, dx), in the weight's own order, holds the tap
    xp[c, stride * i + dy, stride * j + dx] at column (i, j).
    """
    sc, sh, sw = xp.strides
    # np.ndarray over the buffer builds the same view as as_strided at a
    # fraction of the call cost; xp is a fresh C-contiguous array
    taps = np.ndarray((xp.shape[0], 3, 3, oh, ow), xp.dtype, buffer=xp, offset=0,
                      strides=(sc, sh, sw, stride * sh, stride * sw))
    taps.flags.writeable = False
    return taps.reshape(9 * xp.shape[0], oh * ow)


@functools.cache
def _col2im_index(c_in: int, h: int, w: int, stride: int) -> np.ndarray:
    """Flat target in the unpadded (c_in, h, w) map of each entry of the
    column matrix, in its (c, dy, dx, i, j) order, for np.bincount.

    Taps that read the zero padding go to one extra last bin, c_in * h * w.
    Read-only, since every call with these dims shares it.
    """
    oh = (h - 1) // stride + 1
    ow = (w - 1) // stride + 1
    # source row of (dy, i) and source column of (dx, j), -1 and h or w on the padding
    ys = (stride * np.arange(oh) + np.arange(3)[:, None] - 1)[:, None, :, None]
    xs = (stride * np.arange(ow) + np.arange(3)[:, None] - 1)[None, :, None, :]
    inside = (ys >= 0) & (ys < h) & (xs >= 0) & (xs < w)
    base = np.arange(0, c_in * h * w, h * w)[:, None, None, None, None]
    idx = np.where(inside, base + ys * w + xs, c_in * h * w).reshape(-1)
    idx.flags.writeable = False
    return idx


def conv3x3(x: Tensor, weight: Tensor, bias: Tensor, stride: int = 1) -> Tensor:
    """3x3 convolution, padding 1, stride 1 or 2 (the toy encoder's kernel)."""
    _check_rank(x, 3, "conv3x3 input")
    _check_rank(weight, 4, "conv3x3 weight")
    if weight.dims[2:] != (3, 3):
        raise DimensionError(f"conv3x3 weight window must be 3x3, got {weight.dims[2:]}")
    if weight.dims[1] != x.dims[0]:
        raise DimensionError(
            f"conv3x3 input channel axis: weight expects {weight.dims[1]}, input has {x.dims[0]}")
    if stride not in (1, 2):
        raise DimensionError(f"conv3x3 stride must be 1 or 2, got {stride}")

    c_out = weight.dims[0]
    c_in, h, w = x.dims
    oh = (h + 2 - 3) // stride + 1
    ow = (w + 2 - 3) // stride + 1
    xp = np.zeros((c_in, h + 2, w + 2), dtype=x.dtype)
    xp[:, 1:h + 1, 1:w + 1] = x.data
    w2 = weight.data.reshape(c_out, 9 * c_in)

    cols = _im2col(xp, oh, ow, stride)
    out = w2 @ cols
    out += bias.data[:, None]
    xn, wn, bn = x._node, weight._node, bias._node

    def bwd(g):
        g2 = g.reshape(c_out, oh * ow)
        if xn.requires_grad:
            # col2im as one scatter: bincount adds each pixel's taps in array
            # order, (dy, dx) raster order from 0.0, as nine slice-adds into
            # a zero buffer would; it sums in float64, then the padding's bin
            # is dropped
            n = c_in * h * w
            gx = np.bincount(_col2im_index(c_in, h, w, stride), weights=(w2.T @ g2).reshape(-1),
                             minlength=n + 1)[:n]
            _acc(xn, gx.astype(xn.dtype, copy=False).reshape(c_in, h, w))
        if wn.requires_grad:
            # the tape keeps the forward's columns, 9 / stride**2 times the
            # input's size, rather than rebuilding them here
            _acc(wn, (g2 @ cols.T).reshape(wn.dims))
        if bn.requires_grad:
            _acc(bn, g.sum(axis=(1, 2)))

    return _make(out.reshape(c_out, oh, ow), (xn, wn, bn), "conv3x3", bwd)


# ----------------------------------------------------------------- resizing

@functools.cache
def _bilinear_matrix(n_in: int, n_out: int, dtype) -> np.ndarray:
    src = (np.arange(n_out, dtype=np.float64) + 0.5) * (n_in / n_out) - 0.5
    low = np.floor(src)
    frac = src - low
    i0 = np.clip(low, 0, n_in - 1).astype(np.int64)
    i1 = np.clip(low + 1, 0, n_in - 1).astype(np.int64)
    m = np.zeros((n_out, n_in), dtype=dtype)
    rows = np.arange(n_out)
    np.add.at(m, (rows, i0), (1.0 - frac).astype(dtype))
    np.add.at(m, (rows, i1), frac.astype(dtype))
    return m


def _check_resize(x: Tensor, out_h: int, out_w: int, op: str):
    _check_rank(x, 3, f"{op} input")
    if out_h < 1 or out_w < 1:
        raise DimensionError(f"{op} target must be at least 1x1, got {out_h}x{out_w}")


def bilinear_resize(x: Tensor, out_h: int, out_w: int, *, out=None) -> Tensor:
    """Separable bilinear resampling (half-pixel centers, edge clamp)."""
    _check_resize(x, out_h, out_w, "bilinear_resize")
    c, h, w = x.dims
    rh = _bilinear_matrix(h, out_h, x.dtype)
    rw = _bilinear_matrix(w, out_w, x.dtype)
    if out is None:
        out = rh @ x.data @ rw.T
    else:
        _check_out(out, (c, out_h, out_w), x.dtype, "bilinear_resize")
        np.matmul(rh @ x.data, rw.T, out=out)
    xn = x._node

    def bwd(g):
        if xn.requires_grad:
            _acc(xn, rh.T @ g @ rw)

    return _make(out, (xn,), "bilinear_resize", bwd)


def _check_pools_back(x: Tensor, out_h: int, out_w: int, op: str):
    _check_resize(x, out_h, out_w, op)
    _, h, w = x.dims
    if ((out_h + 1) // 2, (out_w + 1) // 2) != (h, w):
        raise DimensionError(f"{op} target {out_h}x{out_w} does not pool back to {h}x{w}")


def _nearest_up(x: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Output pixel dst copies source dst // 2 per axis: a gather, so a
    non-finite input reaches only its own copies; take keeps the result
    C-contiguous."""
    return x.take(np.arange(out_h) // 2, axis=1).take(np.arange(out_w) // 2, axis=2)


def _pair_sums(g: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """_nearest_up's adjoint: each source's one or two copies in g summed,
    rows then columns, the summation order of Mh.T @ g @ Mw."""
    r = g[:, 0::2].copy()
    r[:, :out_h // 2] += g[:, 1::2]
    s = r[:, :, 0::2].copy()
    s[:, :, :out_w // 2] += r[:, :, 1::2]
    return s


def nearest_resize(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Nearest 2x upsampling to a grid that maxpool2x2 pools back to x's,
    (out + 1) // 2 == in per axis; output pixel dst copies source dst // 2."""
    _check_pools_back(x, out_h, out_w, "nearest_resize")
    xn = x._node

    def bwd(g):
        if xn.requires_grad:
            _acc(xn, _pair_sums(g, out_h, out_w))

    return _make(_nearest_up(x.data, out_h, out_w), (xn,), "nearest_resize", bwd)


def add_upsampled(base: Tensor, coarse: Tensor) -> Tensor:
    """base + nearest_resize(coarse, *base.dims[1:]) as one op, the sum
    written into the upsampled copy."""
    _check_rank(base, 3, "add_upsampled base")
    c, out_h, out_w = base.dims
    _check_pools_back(coarse, out_h, out_w, "add_upsampled")
    if coarse.dims[0] != c:
        raise DimensionError(
            f"add_upsampled channel axis: base has {c}, coarse has {coarse.dims[0]}")
    up = _nearest_up(coarse.data, out_h, out_w)
    # base first, as in add's a + b, so that of two NaNs the same one wins;
    # the sum reuses the fresh copy when that has the sum's dtype
    out = np.add(base.data, up, out=up if up.dtype == base.dtype else None)
    bn, cn = base._node, coarse._node

    def bwd(g):
        if bn.requires_grad:
            _acc(bn, g)
        if cn.requires_grad:
            _acc(cn, _pair_sums(g, out_h, out_w))

    return _make(out, (bn, cn), "add_upsampled", bwd)


def _first_argmax(views) -> np.ndarray:
    """Index of the first maximal view at each element, a NaN counting as
    larger than any number: np.argmax's rule, as a running scan.

    Ties go to the first index, the first NaN wins and a NaN best is final.
    views[0] fixes the result's shape; a later view may be shorter along any
    axis and then competes over its leading block only. The index type is
    the smallest signed integer that holds len(views) - 1.
    """
    best = views[0].copy()
    k = np.zeros(best.shape, dtype=np.min_scalar_type(-len(views)))
    for j, v in enumerate(views[1:], start=1):
        block = tuple(map(slice, v.shape))
        b = best[block]
        # larger, or NaN over non-NaN; a NaN best is final
        take = ~(v <= b) & (b == b)
        kj = k[block]
        # views come in increasing j, so a win always raises k
        np.maximum(kj, take.view(np.int8) * k.dtype.type(j), out=kj)
        # np.maximum propagates NaN; only comparisons read best, so which
        # zero or NaN payload it keeps does not matter
        np.maximum(b, v, out=b)
    return k


@functools.cache
def _pool_base(c: int, h: int, w: int) -> np.ndarray:
    """Flat index of each 2x2 window's top-left tap in a (c, h, w) map, of
    the pooled grid's dims. Read-only, since every call with these dims
    shares it."""
    out_h, out_w = (h + 1) // 2, (w + 1) // 2
    base = (np.arange(0, c * h * w, h * w)[:, None, None]
            + np.arange(0, 2 * out_h * w, 2 * w)[:, None] + np.arange(0, 2 * out_w, 2))
    base.flags.writeable = False
    return base


def _pool_index(k: np.ndarray, c: int, h: int, w: int) -> np.ndarray:
    """Flat index in the (c, h, w) map of each window's winner, from its
    tap k in row-major window order."""
    idx = np.array([0, 1, w, w + 1]).take(k)
    idx += _pool_base(c, h, w)
    return idx


def maxpool2x2(x: Tensor) -> Tensor:
    """2x2 max pooling with stride 2 to ceil(h/2) x ceil(w/2); edge windows
    are clipped."""
    _check_rank(x, 3, "maxpool2x2 input")
    c, h, w = x.dims
    if h < 1 or w < 1:
        raise DimensionError(f"maxpool2x2 input must be at least 1x1, got {h}x{w}")
    out_h, out_w = (h + 1) // 2, (w + 1) // 2

    # the four tap views in row-major window order; at an odd edge the second
    # row or column view is one shorter, and the clipped window's missing taps
    # would repeat taps already scanned, which can never be strictly larger
    k = _first_argmax([x.data[:, r:2 * out_h:2, q:2 * out_w:2] for r in (0, 1) for q in (0, 1)])
    out = x.data.take(_pool_index(k, c, h, w))
    xn = x._node

    def bwd(g):
        if xn.requires_grad:
            # windows are disjoint and a clipped window's duplicate row or
            # column never wins, so the indices are unique and the scatter
            # needs no np.add.at; the tape keeps the 1-byte winners k and
            # rebuilds their 8-byte flat indices here
            idx = _pool_index(k, c, h, w)
            if xn.grad is None:
                gx = np.zeros(xn.dims, xn.dtype)
                gx.reshape(-1)[idx] = g
            else:
                # a C-contiguous copy, so reshape(-1) is a view
                gx = np.array(xn.grad, order="C")
                gx.reshape(-1)[idx] += g
            xn.grad = gx

    return _make(out, (xn,), "maxpool2x2", bwd)


# ------------------------------------------------------------ shape movers

def _check_tiling(tensors, out: np.ndarray):
    """Raise unless each tensor's data is its own consecutive channel slice
    of out, in order."""
    last = len(tensors) - 1
    start = 0
    for i, t in enumerate(tensors):
        d = t.data
        stop = start + len(d)
        # once out's dims are checked below, a C-contiguous view of out with
        # the slot's element count is the slot iff it shares no memory with
        # the channels around it
        if (d.base is not out or d.dtype != out.dtype or not d.flags.c_contiguous
                or i and np.may_share_memory(d, out[:start])
                or i < last and np.may_share_memory(d, out[stop:])):
            raise DimensionError(
                f"concat_channels input {i} is not channels {start}:{stop} of out")
        start = stop
    _check_out(out, (start, *tensors[0].dims[1:]), out.dtype, "concat_channels")


def concat_channels(tensors, *, out=None) -> Tensor:
    """Stack maps along the channel axis. With out, the maps' data must
    already be out's consecutive channel slices, in order, and out itself
    is the result's data; without it the maps are copied."""
    tensors = list(tensors)
    if not tensors:
        raise DimensionError("concat_channels needs at least one input")
    for t in tensors:
        _check_rank(t, 3, "concat_channels input")
        if t.dims[1:] != tensors[0].dims[1:]:
            raise DimensionError(
                f"concat_channels spatial axes differ: {t.dims[1:]} vs {tensors[0].dims[1:]}")
    if out is None:
        out = np.concatenate([t.data for t in tensors], axis=0)
    else:
        _check_tiling(tensors, out)
    nodes = [t._node for t in tensors]

    def bwd(g):
        start = 0
        for n in nodes:
            stop = start + n.dims[0]
            if n.requires_grad:
                _acc(n, g[start:stop])
            start = stop

    return _make(out, tuple(nodes), "concat_channels", bwd)


def columns(x: Tensor, start: int, stop: int) -> Tensor:
    """Columns start:stop of a matrix, as a view of its data."""
    _check_rank(x, 2, "columns input")
    if not 0 <= start < stop <= x.dims[1]:
        raise DimensionError(f"columns {start}:{stop} outside a matrix of {x.dims[1]} columns")
    xn = x._node

    def bwd(g):
        if xn.requires_grad:
            if xn.grad is None:
                gx = np.zeros(xn.dims, xn.dtype)
                gx[:, start:stop] = g
            else:
                gx = np.array(xn.grad, order="C")
                gx[:, start:stop] += g
            xn.grad = gx

    return _make(x.data[:, start:stop], (xn,), "columns", bwd)


def reshape(x: Tensor, dims) -> Tensor:
    dims = tuple(int(d) for d in dims)
    xn = x._node

    def bwd(g):
        if xn.requires_grad:
            _acc(xn, g.reshape(xn.dims))

    return _make(x.data.reshape(dims), (xn,), "reshape", bwd)


def transpose(x: Tensor) -> Tensor:
    _check_rank(x, 2, "transpose input")
    xn = x._node

    def bwd(g):
        if xn.requires_grad:
            _acc(xn, g.T)

    return _make(x.data.T, (xn,), "transpose", bwd)


# ------------------------------------------------------------ linear algebra

def matmul(a: Tensor, b: Tensor, *, out=None) -> Tensor:
    _check_rank(a, 2, "matmul left operand")
    _check_rank(b, 2, "matmul right operand")
    if a.dims[1] != b.dims[0]:
        raise DimensionError(
            f"matmul inner axis: left has {a.dims[1]}, right has {b.dims[0]}")
    an, bn, ad, bd = a._node, b._node, a.data, b.data

    def bwd(g):
        if an.requires_grad:
            _acc(an, g @ bd.T)
        if bn.requires_grad:
            _acc(bn, ad.T @ g)

    if out is None:
        out = ad @ bd
    else:
        _check_out(out, (a.dims[0], b.dims[1]), np.promote_types(a.dtype, b.dtype), "matmul")
        np.matmul(ad, bd, out=out)
    return _make(out, (an, bn), "matmul", bwd)


def weighted_sum(coeffs: Tensor, tensors) -> Tensor:
    """sum_j coeffs[j] * tensors[j], differentiable in the coefficients too."""
    tensors = list(tensors)
    _check_rank(coeffs, 1, "weighted_sum coefficients")
    if coeffs.dims[0] != len(tensors):
        raise DimensionError(
            f"weighted_sum coefficient axis: {coeffs.dims[0]} coefficients for {len(tensors)} maps")
    for t in tensors:
        if t.dims != tensors[0].dims:
            raise DimensionError(
                f"weighted_sum map dims differ: {t.dims} vs {tensors[0].dims}")

    cd, maps = coeffs.data, [t.data for t in tensors]
    out = np.zeros_like(maps[0])
    for c, m in zip(cd, maps):
        out += c * m
    cn, nodes = coeffs._node, [t._node for t in tensors]

    def bwd(g):
        for c, n in zip(cd, nodes):
            if n.requires_grad:
                _acc(n, c * g)
        if cn.requires_grad:
            # vdot sums a strided (say, broadcast) g in another order than a
            # contiguous one, and a grad must not depend on its adjoint's layout
            gc = np.ascontiguousarray(g)
            _acc(cn, np.array([np.vdot(gc, m) for m in maps]))

    return _make(out, (cn, *nodes), "weighted_sum", bwd)


# ----------------------------------------------------------- reductions etc.

def global_avg_spatial(x: Tensor) -> Tensor:
    _check_rank(x, 3, "global_avg_spatial input")
    _, h, w = x.dims
    xn = x._node

    def bwd(g):
        if xn.requires_grad:
            _acc(xn, np.broadcast_to(g[:, None, None], xn.dims) / (h * w))

    return _make(x.data.mean(axis=(1, 2)), (xn,), "global_avg_spatial", bwd)


def softmax_spatial(logits: Tensor) -> Tensor:
    """Per-channel softmax over all spatial positions (each channel sums to 1)."""
    _check_rank(logits, 3, "softmax_spatial input")
    shifted = logits.data - logits.data.max(axis=(1, 2), keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=(1, 2), keepdims=True)
    ln = logits._node

    def bwd(g):
        if ln.requires_grad:
            inner = (g * out).sum(axis=(1, 2), keepdims=True)
            _acc(ln, out * (g - inner))

    return _make(out, (ln,), "softmax_spatial", bwd)


def cross_entropy_logits(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross entropy of (classes, h, w) logits against integer labels.

    Pixels labelled metrics.IGNORE_ID (255) contribute nothing to the loss or
    gradient.
    """
    _check_rank(logits, 3, "cross_entropy input")
    labels = np.asarray(labels)
    num_classes, h, w = logits.dims
    if labels.shape != (h, w):
        raise DimensionError(
            f"cross_entropy label grid {labels.shape} does not match logits {h}x{w}")
    valid = labels != IGNORE_ID
    n_valid = int(valid.sum())
    if n_valid == 0:
        raise ValueError("cross_entropy: every pixel is ignored")
    safe = np.where(valid, labels, 0)
    if safe.min() < 0 or safe.max() >= num_classes:
        raise ValueError("cross_entropy: label id outside [0, num_classes)")

    # flat index of each pixel's true-class logit, for the forward gather and
    # the backward scatter
    flat = safe.ravel().astype(np.intp) * (h * w) + np.arange(h * w)

    shifted = logits.data - logits.data.max(axis=0, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=0))
    logp_true = shifted.reshape(-1)[flat].reshape(h, w) - lse
    loss = -(logp_true[valid].sum()) / n_valid
    ln = logits._node

    def bwd(g):
        if ln.requires_grad:
            p = np.exp(shifted - lse[None])
            scale = (valid.astype(ln.dtype) * g) / n_valid
            gl = p * scale[None]
            # one true-class index per pixel, so the flat indices are unique
            # and a plain fancy-index subtract needs no np.subtract.at
            gl.reshape(-1)[flat] -= scale.ravel()
            _acc(ln, gl)

    return _make(np.asarray(loss, dtype=logits.dtype), (ln,), "cross_entropy", bwd)
