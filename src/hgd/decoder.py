"""Holistically guided decoding.

The decoder replaces stepwise upsampling with a linear reconstruction from a
small set of holistic codewords:

1. three encoder taps (strides 8/16/32) are each compressed by a 1x1
   convolution and fused into two mixed maps, m32 at the coarsest grid for
   the code branch and m8 at the finest grid for the guidance branch;
2. the code branch computes a bases map B and a weighting map whose
   per-channel spatial softmax turns every codeword into a convex
   combination of bases vectors (so each codeword coordinate stays inside
   the per-coordinate range of B);
3. the head predicts, at the fine grid, one linear coefficient per
   codeword from the guidance map G (the guidance conv of m8), optionally
   after adding the global average bases vector to G (the "transfer"
   path). The assembly conv takes that vector as its shift (ops.conv1x1),
   so W (G + mean B) + b is computed as W G + (W mean B + b) and the map
   G + mean B is never built;
4. the head's output stacks the reconstructed map on G.

hgd_forward_full runs steps 1-4, the head written out in it. (The pyramid
branches share generate_codewords but not the head: each folds its
algebra, less the transfer path, with its projection into one affine map,
hgd.fpn.fold_branch.) Both stacks at the fine grid, m8 and the head's
output, are built in place: the producers of the parts
(the 1x1 convs, the bilinear resizes and the assembly matmul) write into
consecutive channel slices of one buffer, and the concatenation returns
that buffer without a copy, so the parts' data are views of it. A stack
under 256 KiB (toy widths), or one whose inputs mix dtypes, is copied
instead, and numpy's promotion sets its dtype.

All branches are pure affine 1x1 convolutions; there is no normalization or
activation inside the decoder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ops
from .params import ConvParams, conv1x1_params
from .tensor import ConfigError, DimensionError, Tensor

_KNOWN_SCALES = (8, 16, 32)


@dataclass(frozen=True)
class HgdConfig:
    n_codewords: int = 256
    codeword_dim: int = 1024
    compressed_channels: int = 512
    guidance_channels: int = 1024
    transfer_enabled: bool = True
    fused_scales: tuple = (8, 16, 32)

    def __post_init__(self):
        for name in ("n_codewords", "codeword_dim", "compressed_channels", "guidance_channels"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.transfer_enabled and self.guidance_channels != self.codeword_dim:
            raise ConfigError(
                "transfer needs guidance == codeword_dim (guidance_channels "
                f"{self.guidance_channels} vs codeword_dim {self.codeword_dim})")
        scales = tuple(self.fused_scales)
        object.__setattr__(self, "fused_scales", scales)
        if not scales:
            raise ConfigError("fused_scales must name at least one input scale")
        if any(s not in _KNOWN_SCALES for s in scales) or len(set(scales)) != len(scales) \
                or tuple(sorted(scales)) != scales:
            raise ConfigError(
                f"fused_scales must be an ascending subset of {_KNOWN_SCALES}, got {scales}")

    @property
    def output_channels(self) -> int:
        """Width of the decoder's output, the stack [assembled; G]."""
        return self.codeword_dim + self.guidance_channels


def hgd_layout(config: HgdConfig, tap_channels):
    """The decoder's 1x1 convs on taps of the given widths, HgdParams field ->
    (c_in, c_out), in init order; parameter names and cost rows read it too."""
    comp, guid, n = config.compressed_channels, config.guidance_channels, config.n_codewords
    code_in = len(config.fused_scales) * comp
    c8, c16, c32 = tap_channels
    return {"compress8": (c8, comp), "compress16": (c16, comp), "compress32": (c32, comp),
            "bases": (code_in, config.codeword_dim), "weighting": (code_in, n),
            "guidance": (3 * comp, guid), "assembly": (guid, n)}


@dataclass
class HgdParams:
    config: HgdConfig
    tap_channels: tuple     # the encoder tap widths the convs were built for
    compress8: ConvParams
    compress16: ConvParams
    compress32: ConvParams
    bases: ConvParams
    weighting: ConvParams
    guidance: ConvParams
    assembly: ConvParams

    def named_parameters(self):
        for name in hgd_layout(self.config, self.tap_channels):
            yield from getattr(self, name).named(name)


def init_hgd_params(in_channels, config: HgdConfig, rng, dtype=np.float64) -> HgdParams:
    """Build all decoder kernels for encoder taps with the given channel counts."""
    return HgdParams(config=config, tap_channels=tuple(in_channels),
                     **{name: conv1x1_params(c_in, c_out, rng, dtype)
                        for name, (c_in, c_out) in hgd_layout(config, in_channels).items()})


def _conv(x: Tensor, p: ConvParams, out=None, shift=None) -> Tensor:
    return ops.conv1x1(x, p.weight, p.bias, shift=shift, out=out)


# A stack below this size is copied rather than built in place: checking
# that its parts sit in one buffer costs ~20 us per toy-width decoder
# forward, more than the copy, and the two break even between 128 and
# 384 KiB per stack (f64, 1 BLAS thread, 2-vCPU Xeon).
_IN_PLACE_MIN_BYTES = 256 * 1024


def _concat_slots(widths, grid, operands):
    """A fresh (sum(widths), h, w) buffer and its consecutive channel
    slices, one per part of a concatenation, for the parts' producers to
    write into (ops' out=).

    `operands` are the tensors whose dtypes fix the parts'. When they
    differ, or the stack is under _IN_PLACE_MIN_BYTES, the buffer and
    every slice are None: each producer allocates, and the concatenation
    copies and promotes as numpy does.
    """
    dtype = operands[0].data.dtype
    channels = sum(widths)
    if channels * grid[0] * grid[1] * dtype.itemsize < _IN_PLACE_MIN_BYTES:
        return None, (None,) * len(widths)
    for t in operands:
        if t.data.dtype != dtype:
            return None, (None,) * len(widths)
    buf = np.empty((channels, *grid), dtype)
    slots, start = [], 0
    for c in widths:
        slots.append(buf[start:start + c])
        start += c
    return buf, slots


# --------------------------------------------------------------- the math

def codewords_from(bases: Tensor, weights: Tensor) -> Tensor:
    """Codeword matrix (dim x n): codeword i = sum over positions of weights_i(p,q) * bases(p,q)."""
    dim, h, w = bases.dims
    n = weights.dims[0]
    if weights.dims[1:] != (h, w):
        raise ConfigError(f"weighting grid {weights.dims[1:]} != bases grid {(h, w)}")
    bases_mat = ops.reshape(bases, (dim, h * w))
    weights_mat = ops.reshape(weights, (n, h * w))
    return ops.matmul(bases_mat, ops.transpose(weights_mat))


def assemble_from(coeffs: Tensor, codewords: Tensor, out=None) -> Tensor:
    """Per-pixel linear combination: out(x,y) = sum_i coeffs_i(x,y) * codeword_i.

    `out`, a C-contiguous (dim, h, w) array, receives the product.
    """
    n, h, w = coeffs.dims
    dim = codewords.dims[0]
    coeffs_mat = ops.reshape(coeffs, (n, h * w))
    flat = None
    if out is not None:
        # reshaping another layout may copy, and the product would miss out
        if not out.flags.c_contiguous:
            raise DimensionError("assemble_from out must be C-contiguous")
        flat = out.reshape(dim, h * w)
    return ops.reshape(ops.matmul(codewords, coeffs_mat, out=flat), (dim, h, w))


# ----------------------------------------------------------- the pipeline

def fuse_multiscale(e8: Tensor, e16: Tensor, e32: Tensor, params: HgdParams):
    """Compress each tap and fuse into (m8 at the fine grid, m32 at the coarse grid)."""
    cfg = params.config
    h8, w8 = e8.dims[1:]
    h16, w16 = e16.dims[1:]
    h32, w32 = e32.dims[1:]
    if (h8, w8) != (2 * h16, 2 * w16) or (h16, w16) != (2 * h32, 2 * w32):
        raise ConfigError(
            f"tap grids must be in exact 1:2:4 ratio, got {e8.dims[1:]}, "
            f"{e16.dims[1:]}, {e32.dims[1:]}")
    c = cfg.compressed_channels
    buf, (s8, s16, s32) = _concat_slots(
        (c, c, c), (h8, w8), (e8, e16, e32, params.compress8.weight,
                              params.compress16.weight, params.compress32.weight))
    c8 = _conv(e8, params.compress8, out=s8)
    c16 = _conv(e16, params.compress16)
    c32 = _conv(e32, params.compress32)

    m8 = ops.concat_channels([
        c8,
        ops.bilinear_resize(c16, h8, w8, out=s16),
        ops.bilinear_resize(c32, h8, w8, out=s32),
    ], out=buf)
    coarse = {
        8: lambda: ops.bilinear_resize(c8, h32, w32),
        16: lambda: ops.bilinear_resize(c16, h32, w32),
        32: lambda: c32,
    }
    m32 = ops.concat_channels([coarse[s]() for s in cfg.fused_scales])
    return m8, m32


def generate_codewords(m32: Tensor, params):
    """Codeword matrix, bases map and softmax weighting map from m32, by the
    `bases` and `weighting` convs of `params` (HgdParams or FpnParams).

    softmax_spatial normalizes each channel over all positions, so the
    weighting conv's bias cancels: it changes no output and its gradient
    is zero up to roundoff. It stays because the paper's weighting branch
    is a plain 1x1 conv, the checkpoint layout holds it, and the
    benchmark's reference decoder (hgdbench/reference.py) reads it."""
    bases = _conv(m32, params.bases)
    weights = ops.softmax_spatial(_conv(m32, params.weighting))
    return codewords_from(bases, weights), bases, weights


@dataclass
class HgdTrace:
    """All intermediates of one decoder forward pass."""
    fused: Tensor            # final concatenated output
    assembled: Tensor        # reconstructed map
    guidance: Tensor         # G
    bases_mean: Tensor       # mean bases vector, the assembly conv's shift (None without transfer)
    coeffs: Tensor           # per-pixel codeword coefficients
    codewords: Tensor        # codeword_dim x n_codewords
    bases: Tensor
    weights: Tensor          # softmax weighting maps
    m8: Tensor
    m32: Tensor

    @property
    def guidance_fused(self) -> Tensor:
        """G plus the mean bases vector, what the assembly conv reads, or G
        itself without transfer. The forward never builds it: each read
        builds it anew, a plain value that records nothing on the tape."""
        if self.bases_mean is None:
            return self.guidance
        return Tensor(self.guidance.data + self.bases_mean.data[:, None, None])


def hgd_forward_full(e8, e16, e32, params: HgdParams) -> HgdTrace:
    """One decoder forward, the module docstring's steps 1-4, and all its
    intermediates. The transfer shift's W mean is per-channel work like the
    bias, so the assembly conv's MACs are those of W G, and the cost
    model's decoder.transfer_add row stays at zero MACs."""
    m8, m32 = fuse_multiscale(e8, e16, e32, params)
    codewords, bases, weights = generate_codewords(m32, params)
    guidance, assembly = params.guidance, params.assembly
    transfer = params.config.transfer_enabled
    operands = (m8, codewords, guidance.weight, assembly.weight)
    buf, (upper, lower) = _concat_slots(
        (codewords.dims[0], guidance.weight.dims[0]), m8.data.shape[1:],
        (*operands, bases) if transfer else operands)
    g = _conv(m8, guidance, out=lower)
    mean = ops.global_avg_spatial(bases) if transfer else None
    coeffs = _conv(g, assembly, shift=mean)
    assembled = assemble_from(coeffs, codewords, out=upper)
    fused = ops.concat_channels([assembled, g], out=buf)
    return HgdTrace(fused=fused, assembled=assembled, guidance=g,
                    bases_mean=mean, coeffs=coeffs, codewords=codewords,
                    bases=bases, weights=weights, m8=m8, m32=m32)


def hgd_forward(e8, e16, e32, params: HgdParams) -> Tensor:
    return hgd_forward_full(e8, e16, e32, params).fused
