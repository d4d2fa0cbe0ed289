"""Plain-numpy evaluation of the equations the benchmark checks against.

Nothing here calls into hgd: convolutions go through im2col windows and
reshaped matrix products, resizes through interpolation matrices built
element by element from the half-pixel rule. Only the weights are taken
from the library's parameter records. Everything runs in float64.
"""

from __future__ import annotations

import math

import numpy as np


def _bilinear_matrix(n_in: int, n_out: int) -> np.ndarray:
    """Half-pixel centres, src = (dst + 0.5) * in / out - 0.5, edges clamped."""
    m = np.zeros((n_out, n_in))
    for o in range(n_out):
        src = (o + 0.5) * n_in / n_out - 0.5
        lo = math.floor(src)
        frac = src - lo
        m[o, min(max(lo, 0), n_in - 1)] += 1.0 - frac
        m[o, min(max(lo + 1, 0), n_in - 1)] += frac
    return m


def resize(x: np.ndarray, h: int, w: int) -> np.ndarray:
    rows = _bilinear_matrix(x.shape[1], h)
    cols = _bilinear_matrix(x.shape[2], w)
    return np.matmul(np.matmul(rows, x), cols.T)


def conv1x1(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    c, h, w = x.shape
    out = np.asarray(weight, np.float64) @ x.reshape(c, h * w)
    return out.reshape(-1, h, w) + np.asarray(bias, np.float64)[:, None, None]


def conv3x3(x: np.ndarray, weight: np.ndarray, bias: np.ndarray, stride: int) -> np.ndarray:
    padded = np.pad(x, ((0, 0), (1, 1), (1, 1)))
    windows = np.lib.stride_tricks.sliding_window_view(padded, (3, 3), axis=(1, 2))
    windows = windows[:, ::stride, ::stride]                # (c_in, oh, ow, 3, 3)
    out = np.tensordot(np.asarray(weight, np.float64), windows, axes=([1, 2, 3], [0, 3, 4]))
    return out + np.asarray(bias, np.float64)[:, None, None]


def softmax_spatial(x: np.ndarray) -> np.ndarray:
    flat = x.reshape(x.shape[0], -1)
    e = np.exp(flat - flat.max(axis=1, keepdims=True))
    return (e / e.sum(axis=1, keepdims=True)).reshape(x.shape)


def _w(conv):
    return conv.weight.data.astype(np.float64), conv.bias.data.astype(np.float64)


def decoder(e8, e16, e32, params) -> np.ndarray:
    """Codeword decoder output (assembled map stacked on the guidance map)."""
    e8, e16, e32 = (np.asarray(e, np.float64) for e in (e8, e16, e32))
    cfg = params.config
    c8 = conv1x1(e8, *_w(params.compress8))
    c16 = conv1x1(e16, *_w(params.compress16))
    c32 = conv1x1(e32, *_w(params.compress32))
    (h8, w8), (h32, w32) = c8.shape[1:], c32.shape[1:]
    m8 = np.concatenate([c8, resize(c16, h8, w8), resize(c32, h8, w8)])
    coarse = {8: lambda: resize(c8, h32, w32), 16: lambda: resize(c16, h32, w32),
              32: lambda: c32}
    m32 = np.concatenate([coarse[s]() for s in cfg.fused_scales])
    del c8, c16, c32
    bases = conv1x1(m32, *_w(params.bases))
    attention = softmax_spatial(conv1x1(m32, *_w(params.weighting)))
    codewords = bases.reshape(bases.shape[0], -1) @ attention.reshape(attention.shape[0], -1).T
    guidance = conv1x1(m8, *_w(params.guidance))
    del m8
    fused = guidance + bases.mean(axis=(1, 2))[:, None, None] if cfg.transfer_enabled else guidance
    coeffs = conv1x1(fused, *_w(params.assembly))
    del fused
    assembled = (codewords @ coeffs.reshape(coeffs.shape[0], -1)).reshape(-1, h8, w8)
    return np.concatenate([assembled, guidance])


def segment_logits(image, params) -> np.ndarray:
    """Per-pixel class logits of the tiny segmentation network."""
    x = np.asarray(image, np.float64)
    taps = {}
    for layer in params.backbone.layers:
        x = np.maximum(conv3x3(x, *_w(layer.conv), stride=layer.stride), 0.0)
        if layer.tap:
            taps[layer.tap] = x
    fused = decoder(taps["e8"], taps["e16"], taps["e32"], params.hgd)
    logits = conv1x1(fused, *_w(params.classifier))
    return resize(logits, image.shape[1], image.shape[2])
