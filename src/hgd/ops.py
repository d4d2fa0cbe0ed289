"""Differentiable primitive operations over hgd.tensor.Tensor.

Feature maps are (channels, height, width). Every op validates shapes,
computes the forward value with numpy, and gives its output a new node
(_make) whose backward closure accumulates adjoints into any parent with
requires_grad set. _make records the closure only when some parent needs
grad, so only a multi-parent op's closure checks its parents.

The closure contract: a backward closure captures its parents' nodes and
the arrays its backward reads, and nothing else. No closure holds a
Tensor, and an op keeps no array its backward does not read. So the tape
holds conv1x1's input, weight and shift vector (when given), conv3x3's
column matrix and weight, matmul's and mul's operands,
upsampled_weighted_sum's coefficients, maps and coarse map (not its
upsampled copy), softmax_spatial's output, relu's mask, maxpool2x2's
window winners (built only for an input that needs grad),
cross_entropy_logits' shifted logits, log-sum-exp, mask and indices, and
bilinear_resize's cached interpolation matrices; add, add_upsampled, the
shape movers and the reductions keep only dims and scalars. An output that
no backward reads is freed as soon as its Tensor is dropped, even while its
node is still on the tape.

Conventions fixed here (and relied on by the oracles in the test suite):
- no grad array is written in place, and only _acc sets an input's grad.
  It adopts a parent's first adjoint as its grad, whether fresh or passed
  through unchanged (add's, reshape's, a concat_channels slice), and sums a
  later one into a new buffer. Given a key, as maxpool2x2's winners and
  columns' slice, it scatters into a new buffer instead: the first adjoint
  written into zeros, bits and sign of zero kept, a later one added into a
  C-contiguous copy of the grad, so several column slices of one matrix
  accumulate into one grad;
- bilinear_resize uses the half-pixel convention src = (dst+0.5)*in/out - 0.5
  with edge clamping, realized as dense row/column interpolation matrices so
  the backward pass is the exact transpose;
- the nearest 2x upsampling up(x) lives inside the two ops that read it,
  add_upsampled and upsampled_weighted_sum, and no op returns it alone. It
  copies source src = dst // 2 per axis onto a grid that maxpool2x2 pools
  back to the input's (_nearest_up: np.repeat along columns, then one
  broadcast per row pair into a fresh buffer). Its adjoint (_pair_sums)
  sums each source's one or two copies by strided slices, rows first and
  then columns, so non-finite values stay local in both directions; it
  equals the dense one-hot product Mh.T @ g @ Mw bit for bit except for the
  sign of a zero sum;
- add_upsampled(base, coarse) is add(base, up(coarse)) bit for bit,
  forward and both gradients: the sum is written into the fresh upsampled
  copy with base as the first operand, as add's a, so of two NaNs the same
  one wins, and one node, not two, is recorded and swept. base gets g
  itself and coarse the pair sums of g;
- upsampled_weighted_sum(coeffs, coarse, maps) is coeffs[0] up(coarse)
  plus coeffs[j + 1] maps[j], summed from +0.0 in coefficient order into
  the maps' dtype; the first term is formed on coarse's grid before the
  copy up, and the copy is exact, so the sum equals a zero buffer plus
  each upsampled or given term in turn bit for bit. coarse gets
  coeffs[0] times the pair sums of g and coeffs[0] gets their dot product
  with coarse, which equals <g, up(coarse)> up to roundoff;
- the running maximum over a sequence of views lives in _running_max,
  which also gives each element's winning view under the rule its caller
  picks. np.argmax's rule: the first maximal element wins, a NaN counting
  as larger than any number, so ties go to the first index, the first NaN
  wins and a NaN best is final; efficientfcn.predict_labels takes it over
  the class slices of its logits. Strict-greater: each element's last view
  strictly greater than the maximum of the views before it, which agrees
  with argmax's wherever the maximum is neither NaN nor zero;
- maxpool2x2 uses stride-2 windows clipped at the edges and is ceil-mode
  only: an h x w map pools to ceil(h/2) x ceil(w/2), the grid every
  pyramid level already has. Each window's winner is its first
  maximal element in row-major window order under np.argmax's rule, and
  the output is the winner itself, sign of zero included. The gradient
  goes to the winner only. The output is the running np.maximum over the
  four tap views. That is the winner's own bits unless some window's
  maximum is NaN (np.maximum may keep a later NaN) or zero (it may keep
  either of +0.0 and -0.0), which each call checks once; then the call
  rescans the taps under np.argmax's rule and gathers the output through
  the winners. An input that needs no grad gets only the maximum: no
  winners, no index and no closure. One that does gets its strict-greater
  winners in the same scan, and the tape keeps each window's winner as its
  1-byte tap number; the backward rebuilds the 8-byte flat indices from it
  and the cached window bases (_pool_base);
- relu is max(x, 0): -inf and every negative input, -0.0 included, give
  +0.0, NaN stays NaN and +inf stays +inf; its gradient at exactly 0 is 0;
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

import functools

import numpy as np

from .metrics import IGNORE_ID
from .tensor import Node, Tensor, DimensionError

_new = object.__new__


def _make(data, parents, op, backward_fn):
    """The op's output: its data and a new node that records parents (the
    parents' nodes), the op's name and, when some parent requires grad,
    backward_fn."""
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


def _acc(n: Node, value, key=None):
    """Sum the adjoint value into n.grad, or with key into n.grad[key]; a
    grad is never written in place.

    Unkeyed, the first value becomes n.grad as it is, whether the closure
    computed it for n alone or passes on its incoming adjoint, and a later
    one is summed into a new buffer. Keyed, the value is written into
    zeros, so a first -0.0 keeps its sign, or added into a C-contiguous
    copy of n.grad; an index array key addresses the copy's flat view. A
    key names no element twice.
    """
    first = n.grad is None
    if key is None:
        # a 0-d product is a numpy scalar, and a grad keeps its node's dtype
        n.grad = (np.asarray(value, dtype=n.dtype) if first
                  else np.add(n.grad, value, out=np.empty(n.dims, n.dtype)))
        return
    grad = np.zeros(n.dims, n.dtype) if first else np.array(n.grad, order="C")
    target = grad.reshape(-1) if isinstance(key, np.ndarray) else grad
    if first:
        target[key] = value
    else:
        target[key] += value
    n.grad = grad


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


def _check_map(t: Tensor, what: str):
    """Raise unless t is a (c, h, w) map with h and w at least 1."""
    _check_rank(t, 3, what)
    if min(t.dims[1:]) < 1:
        raise DimensionError(f"{what} must be at least 1x1, got {t.dims[1]}x{t.dims[2]}")


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
        _acc(xn, s * g)

    return _make(s * x.data, (xn,), "scalar_scale", bwd)


def sum_all(x: Tensor) -> Tensor:
    xn = x._node

    def bwd(g):
        _acc(xn, np.broadcast_to(g, xn.dims))

    return _make(np.asarray(x.data.sum(), dtype=x.dtype), (xn,), "sum_all", bwd)


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0
    xn = x._node

    def bwd(g):
        _acc(xn, g * mask)

    return _make(np.maximum(x.data, 0.0), (xn,), "relu", bwd)


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
    _check_map(x, f"{op} input")
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
        _acc(xn, rh.T @ g @ rw)

    return _make(out, (xn,), "bilinear_resize", bwd)


def _check_pools_back(coarse: Tensor, c: int, out_h: int, out_w: int, op: str):
    """Raise unless coarse has c channels and pools back from out_h x out_w."""
    _check_resize(coarse, out_h, out_w, op)
    channels, h, w = coarse.dims
    if ((out_h + 1) // 2, (out_w + 1) // 2) != (h, w):
        raise DimensionError(f"{op} target {out_h}x{out_w} does not pool back to {h}x{w}")
    if channels != c:
        raise DimensionError(f"{op} channel axis: output has {c}, coarse has {channels}")


def _nearest_up(x: np.ndarray, out_h: int, out_w: int, dtype) -> np.ndarray:
    """x copied up to a fresh C-contiguous (c, out_h, out_w) array of dtype,
    output pixel dst taking source dst // 2 per axis, so a non-finite input
    reaches only its own copies.

    np.repeat doubles the columns, and each pair of output rows is copied
    from its source row through one broadcast, the last row alone when
    out_h is odd.
    """
    c = x.shape[0]
    cols = np.repeat(x, 2, axis=2)[:, :, :out_w]
    out = np.empty((c, out_h, out_w), dtype)
    even = out_h - out_h % 2
    out[:, :even].reshape(c, even // 2, 2, out_w)[...] = cols[:, :even // 2, None]
    if even < out_h:
        out[:, -1] = cols[:, -1]
    return out


def _pair_sums(g: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """_nearest_up's adjoint: each source's one or two copies in g summed,
    rows then columns, the summation order of Mh.T @ g @ Mw."""
    r = g[:, 0::2].copy()
    r[:, :out_h // 2] += g[:, 1::2]
    s = r[:, :, 0::2].copy()
    s[:, :, :out_w // 2] += r[:, :, 1::2]
    return s


def add_upsampled(base: Tensor, coarse: Tensor) -> Tensor:
    """base + up(coarse) as one op, up the nearest 2x upsampling onto
    base's grid, which must pool back to coarse's: output pixel dst adds
    source dst // 2 per axis."""
    _check_rank(base, 3, "add_upsampled base")
    c, out_h, out_w = base.dims
    _check_pools_back(coarse, c, out_h, out_w, "add_upsampled")
    up = _nearest_up(coarse.data, out_h, out_w, coarse.dtype)
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


def _running_max(views, winners=None):
    """The running np.maximum over a sequence of views and, if winners
    names a rule, each element's winning view index under it (else None).

    "argmax" is np.argmax's rule: ties go to the first index, a NaN counts
    as larger than any number, the first NaN wins and a NaN best is final.
    "greater" takes the last view strictly greater than all before it. Where
    the maximum is neither NaN nor zero the rules agree, and it has the
    winner's bits. A later view may be shorter than views[0] along any
    axis and competes over its leading block only. The index type is the
    smallest signed integer that holds len(views) - 1.
    """
    best = views[0].copy()
    k = None if winners is None else np.zeros(best.shape, np.min_scalar_type(-len(views)))
    for j, v in enumerate(views[1:], start=1):
        block = tuple(map(slice, v.shape))
        b = best[block]
        if k is not None:
            take = ~(v <= b) & (b == b) if winners == "argmax" else np.greater(v, b)
            kj = k[block]
            # views come in increasing j, so a win always raises k
            np.maximum(kj, take.view(np.int8) * k.dtype.type(j), out=kj)
        # np.maximum propagates NaN but may keep either zero or NaN payload;
        # the comparisons cannot tell which (maxpool2x2 checks its output)
        np.maximum(b, v, out=b)
    return best, k


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
    _check_map(x, "maxpool2x2 input")
    c, h, w = x.dims
    out_h, out_w = (h + 1) // 2, (w + 1) // 2

    # the four tap views in row-major window order; at an odd edge the second
    # row or column view is one shorter, and the clipped window's missing taps
    # would repeat taps already scanned, which can never be strictly larger
    taps = [x.data[:, r:2 * out_h:2, q:2 * out_w:2] for r in (0, 1) for q in (0, 1)]
    xn = x._node
    out, k = _running_max(taps, "greater" if xn.requires_grad else None)
    # a NaN or zero maximum need not be the winner's bits: np.maximum may
    # keep a later NaN, or either of +0.0 and -0.0. Then the winners come
    # from np.argmax's rule and the output is gathered through them (a NaN
    # minimum compares false too)
    if not np.abs(out).min(initial=np.inf) > 0:
        k = _running_max(taps, "argmax")[1]
        out = x.data.take(_pool_index(k, c, h, w))

    def bwd(g):
        # windows are disjoint and a clipped window's duplicate row or
        # column never wins, so the indices are unique and the scatter
        # needs no np.add.at; the tape keeps the 1-byte winners k and
        # rebuilds their 8-byte flat indices here
        _acc(xn, g, _pool_index(k, c, h, w))

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
        _acc(xn, g, (slice(None), slice(start, stop)))

    return _make(x.data[:, start:stop], (xn,), "columns", bwd)


def reshape(x: Tensor, dims) -> Tensor:
    dims = tuple(int(d) for d in dims)
    xn = x._node

    def bwd(g):
        _acc(xn, g.reshape(xn.dims))

    return _make(x.data.reshape(dims), (xn,), "reshape", bwd)


def transpose(x: Tensor) -> Tensor:
    _check_rank(x, 2, "transpose input")
    xn = x._node

    def bwd(g):
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


def upsampled_weighted_sum(coeffs: Tensor, coarse: Tensor, maps) -> Tensor:
    """coeffs[0] * up(coarse) + sum_j coeffs[j + 1] * maps[j], differentiable
    in the coefficients too; up is add_upsampled's nearest 2x upsampling onto
    the maps' grid, which must pool back to coarse's.

    The terms are summed from +0.0 in coefficient order, into the maps'
    dtype. The first is formed and added to +0.0 on coarse's grid, so a
    -0.0 product reads +0.0, and only then copied up; so the tape keeps
    coarse, not its upsampled copy, and its backward reads up's adjoint,
    the pair sums of g.
    """
    maps = list(maps)
    _check_rank(coeffs, 1, "upsampled_weighted_sum coefficients")
    if not maps:
        raise DimensionError("upsampled_weighted_sum needs at least one map")
    if coeffs.dims[0] != 1 + len(maps):
        raise DimensionError(
            f"upsampled_weighted_sum coefficient axis: {coeffs.dims[0]} coefficients "
            f"for coarse and {len(maps)} maps")
    _check_rank(maps[0], 3, "upsampled_weighted_sum map")
    for t in maps:
        if t.dims != maps[0].dims:
            raise DimensionError(
                f"upsampled_weighted_sum map dims differ: {t.dims} vs {maps[0].dims}")
    c, out_h, out_w = maps[0].dims
    _check_pools_back(coarse, c, out_h, out_w, "upsampled_weighted_sum")

    cd, xd, mds = coeffs.data, coarse.data, [t.data for t in maps]
    # the sum's first step, 0.0 + coeffs[0] * coarse, on coarse's grid: an
    # upsampled value is a copy, so this equals summing after the copy
    first = cd[0] * xd
    first += 0.0
    out = _nearest_up(first, out_h, out_w, maps[0].dtype)
    for cj, m in zip(cd[1:], mds):
        out += cj * m
    cn, xn, nodes = coeffs._node, coarse._node, [t._node for t in maps]

    def bwd(g):
        for cj, n in zip(cd[1:], nodes):
            if n.requires_grad:
                _acc(n, cj * g)
        sums = _pair_sums(g, out_h, out_w) if xn.requires_grad or cn.requires_grad else None
        if xn.requires_grad:
            _acc(xn, cd[0] * sums)
        if cn.requires_grad:
            # vdot sums a strided (say, broadcast) g in another order than a
            # contiguous one, and a grad must not depend on its adjoint's
            # layout; the pair sums are a fresh C-contiguous array
            gc = np.ascontiguousarray(g)
            _acc(cn, np.array([np.vdot(sums, xd), *(np.vdot(gc, m) for m in mds)]))

    return _make(out, (cn, xn, *nodes), "upsampled_weighted_sum", bwd)


# ----------------------------------------------------------- reductions etc.

def global_avg_spatial(x: Tensor) -> Tensor:
    _check_map(x, "global_avg_spatial input")
    _, h, w = x.dims
    xn = x._node

    def bwd(g):
        _acc(xn, np.broadcast_to(g[:, None, None], xn.dims) / (h * w))

    return _make(x.data.mean(axis=(1, 2)), (xn,), "global_avg_spatial", bwd)


def softmax_spatial(logits: Tensor) -> Tensor:
    """Per-channel softmax over all spatial positions (each channel sums to 1)."""
    _check_map(logits, "softmax_spatial input")
    shifted = logits.data - logits.data.max(axis=(1, 2), keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=(1, 2), keepdims=True)
    ln = logits._node

    def bwd(g):
        inner = (g * out).sum(axis=(1, 2), keepdims=True)
        _acc(ln, out * (g - inner))

    return _make(out, (ln,), "softmax_spatial", bwd)


def cross_entropy_logits(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross entropy of (classes, h, w) logits against integer labels.

    Pixels labelled metrics.IGNORE_ID (255) contribute nothing to the loss or
    gradient. Labels of a non-integer dtype are refused, not truncated.
    """
    _check_rank(logits, 3, "cross_entropy input")
    labels = np.asarray(labels)
    if not np.issubdtype(labels.dtype, np.integer):
        raise ValueError(f"cross_entropy: labels must have an integer dtype, got {labels.dtype}")
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
        p = np.exp(shifted - lse[None])
        scale = (valid.astype(ln.dtype) * g) / n_valid
        gl = p * scale[None]
        # one true-class index per pixel, so the flat indices are unique
        # and a plain fancy-index subtract needs no np.subtract.at
        gl.reshape(-1)[flat] -= scale.ravel()
        _acc(ln, gl)

    return _make(np.asarray(loss, dtype=logits.dtype), (ln,), "cross_entropy", bwd)
