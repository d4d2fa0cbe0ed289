"""Oracles for codeword generation, guidance, and assembly.

The loop oracles re-derive the codeword average and the per-pixel assembly
sum element by element, independently of the matmul fast paths.
"""

import numpy as np
import pytest

from hgd import ops
from hgd.tensor import Tensor, ConfigError
from hgd.decoder import (HgdConfig, HgdTrace, codewords_from, assemble_from,
                         fuse_multiscale, generate_codewords, assemble_codewords,
                         hgd_forward, hgd_forward_full, init_hgd_params)
from hgd.fpn import init_fpn_params, tiny_fpn_config
from hgd.gradcheck import gradcheck


def t(arr, grad=False):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=grad)


def toy_config(**over):
    base = dict(n_codewords=3, codeword_dim=10, compressed_channels=4,
                guidance_channels=10, transfer_enabled=True)
    base.update(over)
    return HgdConfig(**base)


def toy_inputs(rng, h8=8, w8=8, channels=(6, 7, 9)):
    e8 = t(rng.normal(size=(channels[0], h8, w8)))
    e16 = t(rng.normal(size=(channels[1], h8 // 2, w8 // 2)))
    e32 = t(rng.normal(size=(channels[2], h8 // 4, w8 // 4)))
    return e8, e16, e32


# ------------------------------------------------------------- codewords

def test_codewords_delta_weights_pick_one_bases_column():
    rng = np.random.default_rng(0)
    bases = t(rng.normal(size=(5, 3, 4)))
    weights = np.zeros((3, 3, 4))
    picks = [(0, 0), (2, 3), (1, 1)]
    for i, (p, q) in enumerate(picks):
        weights[i, p, q] = 1.0
    cw = codewords_from(bases, t(weights))
    assert cw.dims == (5, 3)
    for i, (p, q) in enumerate(picks):
        assert np.array_equal(cw.data[:, i], bases.data[:, p, q])


def test_codewords_uniform_weights_give_spatial_mean():
    rng = np.random.default_rng(1)
    bases = t(rng.normal(size=(5, 4, 4)))
    weights = t(np.full((2, 4, 4), 1.0 / 16.0))
    cw = codewords_from(bases, weights)
    mean = bases.data.mean(axis=(1, 2))
    for i in range(2):
        assert np.max(np.abs(cw.data[:, i] - mean)) <= 1e-12


def codeword_loop_oracle(bases, weights):
    dim, h, w = bases.shape
    n = weights.shape[0]
    out = np.zeros((dim, n))
    for i in range(n):
        for p in range(h):
            for q in range(w):
                out[:, i] += weights[i, p, q] * bases[:, p, q]
    return out


def test_generate_codewords_matches_loop_oracle():
    rng = np.random.default_rng(2)
    cfg = toy_config(n_codewords=3, codeword_dim=5, transfer_enabled=False)
    params = init_hgd_params((6, 7, 9), cfg, rng)
    m32 = t(rng.normal(size=(12, 4, 6)))
    cw, bases, weights = generate_codewords(m32, params)
    assert bases.dims == (5, 4, 6)
    assert weights.dims == (3, 4, 6)
    expect = codeword_loop_oracle(bases.data, weights.data)
    assert np.max(np.abs(cw.data - expect)) <= 1e-12


@pytest.mark.parametrize("decoder", ["hgd", "fpn"])
def test_weighting_bias_gradient_vanishes(decoder):
    # softmax_spatial normalizes each channel over all positions, so a
    # per-channel bias of the weighting conv cancels: its gradient is zero
    # up to roundoff under any loss, in both decoders
    rng = np.random.default_rng(21)
    if decoder == "hgd":
        cfg = toy_config(n_codewords=4, codeword_dim=5, transfer_enabled=False)
        params = init_hgd_params((6, 7, 9), cfg, rng)
    else:
        params = init_fpn_params(tiny_fpn_config(), rng)
    m32 = t(rng.normal(size=(params.bases.weight.dims[1], 5, 6)))
    codewords, _, _ = generate_codewords(m32, params)
    probe = Tensor(rng.normal(size=codewords.dims))
    ops.sum_all(ops.mul(codewords, probe)).backward()
    weighting = params.weighting
    assert weighting.bias.dtype == np.float64
    assert np.max(np.abs(weighting.bias.grad)) <= 1e-12 * np.max(np.abs(weighting.weight.grad))


def test_codeword_convexity_bound():
    rng = np.random.default_rng(3)
    cfg = toy_config(n_codewords=4, codeword_dim=6, transfer_enabled=False)
    params = init_hgd_params((6, 7, 9), cfg, rng)
    m32 = t(rng.normal(size=(12, 5, 5)))
    cw, bases, _ = generate_codewords(m32, params)
    lo = bases.data.min(axis=(1, 2))
    hi = bases.data.max(axis=(1, 2))
    for i in range(4):
        assert np.all(cw.data[:, i] >= lo - 1e-12)
        assert np.all(cw.data[:, i] <= hi + 1e-12)


# -------------------------------------------------------------- assembly

def test_assemble_single_codeword_broadcasts_it():
    rng = np.random.default_rng(4)
    cw = t(rng.normal(size=(8, 1)))
    coeffs = t(np.ones((1, 6, 6)))
    out = assemble_from(coeffs, cw)
    assert out.dims == (8, 6, 6)
    for x in range(6):
        for y in range(6):
            assert np.array_equal(out.data[:, x, y], cw.data[:, 0])


def test_assemble_one_hot_coeffs_select_codewords():
    rng = np.random.default_rng(5)
    cw = t(rng.normal(size=(8, 4)))
    picks = rng.integers(0, 4, size=(3, 5))
    coeffs = np.zeros((4, 3, 5))
    for x in range(3):
        for y in range(5):
            coeffs[picks[x, y], x, y] = 1.0
    out = assemble_from(t(coeffs), cw)
    for x in range(3):
        for y in range(5):
            assert np.array_equal(out.data[:, x, y], cw.data[:, picks[x, y]])


def assembly_loop_oracle(coeffs, matrix):
    n, h, w = coeffs.shape
    dim = matrix.shape[0]
    out = np.zeros((dim, h, w))
    for x in range(h):
        for y in range(w):
            for i in range(n):
                out[:, x, y] += coeffs[i, x, y] * matrix[:, i]
    return out


def test_assemble_matches_loop_oracle():
    rng = np.random.default_rng(6)
    cw = t(rng.normal(size=(8, 4)))
    coeffs = t(rng.normal(size=(4, 6, 6)))
    out = assemble_from(coeffs, cw)
    expect = assembly_loop_oracle(coeffs.data, cw.data)
    assert np.max(np.abs(out.data - expect)) <= 1e-12


# ----------------------------------------------------------------- fusion

def test_fuse_multiscale_shapes_and_channels():
    rng = np.random.default_rng(7)
    cfg = toy_config()
    params = init_hgd_params((6, 7, 9), cfg, rng)
    e8, e16, e32 = toy_inputs(rng, 16, 16)
    m8, m32 = fuse_multiscale(e8, e16, e32, params)
    assert m8.dims == (12, 16, 16)
    assert m32.dims == (12, 4, 4)


def test_fuse_multiscale_identity_compression_keeps_constants():
    cfg = toy_config(compressed_channels=5)
    params = init_hgd_params((5, 5, 5), cfg, np.random.default_rng(8))
    for scale in (params.compress8, params.compress16, params.compress32):
        scale.weight.data[:] = np.eye(5)
        scale.bias.data[:] = 0.0
    e8 = t(np.full((5, 8, 8), 2.0))
    e16 = t(np.full((5, 4, 4), 2.0))
    e32 = t(np.full((5, 2, 2), 2.0))
    m8, m32 = fuse_multiscale(e8, e16, e32, params)
    assert np.max(np.abs(m8.data - 2.0)) <= 1e-12
    assert np.max(np.abs(m32.data - 2.0)) <= 1e-12


@pytest.mark.parametrize("scales,mult", [((32,), 1), ((16, 32), 2), ((8, 16, 32), 3)])
def test_fused_scale_ablation_changes_code_input_channels(scales, mult):
    rng = np.random.default_rng(9)
    cfg = toy_config(fused_scales=scales)
    params = init_hgd_params((6, 7, 9), cfg, rng)
    e8, e16, e32 = toy_inputs(rng)
    _, m32 = fuse_multiscale(e8, e16, e32, params)
    assert m32.dims[0] == mult * cfg.compressed_channels
    # the code branch consumes m32 directly
    cw, bases, weights = generate_codewords(m32, params)
    assert bases.dims[0] == cfg.codeword_dim


def test_fuse_multiscale_rejects_bad_scale_ratio():
    rng = np.random.default_rng(10)
    cfg = toy_config()
    params = init_hgd_params((6, 7, 9), cfg, rng)
    e8 = t(rng.normal(size=(6, 16, 16)))
    e16 = t(rng.normal(size=(7, 8, 8)))
    e32 = t(rng.normal(size=(9, 5, 4)))
    with pytest.raises(ConfigError):
        fuse_multiscale(e8, e16, e32, params)


# --------------------------------------------------------------- guidance

def _guidance(m8, codewords, params, bases=None):
    """The head's G and G_fused; the head never builds G_fused, so it is
    read as HgdTrace.guidance_fused reads it, from G and the mean vector."""
    _, _, g, mean, _ = assemble_codewords(m8, codewords, params.guidance, params.assembly,
                                          bases)
    trace = HgdTrace(**{**dict.fromkeys(HgdTrace.__dataclass_fields__),
                        "guidance": g, "bases_mean": mean})
    return g, trace.guidance_fused


def test_guidance_without_transfer_is_same_object():
    rng = np.random.default_rng(11)
    cfg = toy_config(transfer_enabled=False)
    params = init_hgd_params((6, 7, 9), cfg, rng)
    m8 = t(rng.normal(size=(12, 8, 8)))
    codewords = t(rng.normal(size=(10, 3)))
    g, g_fused = _guidance(m8, codewords, params)
    assert g_fused is g


def test_guidance_transfer_adds_constant_bases_mean():
    rng = np.random.default_rng(12)
    cfg = toy_config(transfer_enabled=True)
    params = init_hgd_params((6, 7, 9), cfg, rng)
    m8 = t(rng.normal(size=(12, 8, 8)))
    v = rng.normal(size=(10,))
    bases = t(np.broadcast_to(v[:, None, None], (10, 4, 4)).copy())
    codewords = t(rng.normal(size=(10, 3)))
    g, g_fused = _guidance(m8, codewords, params, bases)
    assert np.array_equal(g_fused.data, g.data + v[:, None, None])


def test_guidance_transfer_matches_loop_oracle():
    rng = np.random.default_rng(13)
    cfg = toy_config(transfer_enabled=True)
    params = init_hgd_params((6, 7, 9), cfg, rng)
    m8 = t(rng.normal(size=(12, 6, 6)))
    bases = t(rng.normal(size=(10, 3, 3)))
    codewords = t(rng.normal(size=(10, 3)))
    g, g_fused = _guidance(m8, codewords, params, bases)
    for c in range(10):
        mean = 0.0
        for p in range(3):
            for q in range(3):
                mean += bases.data[c, p, q]
        mean /= 9.0
        assert np.max(np.abs(g_fused.data[c] - (g.data[c] + mean))) <= 1e-12


def test_guidance_fused_records_nothing_on_the_tape():
    # G + mean is a plain value read off the trace: no node of it, G or the
    # mean joins the forward's tape
    rng = np.random.default_rng(20)
    params = init_hgd_params((6, 7, 9), toy_config(transfer_enabled=True), rng)
    trace = hgd_forward_full(*toy_inputs(rng), params)
    g_fused = trace.guidance_fused
    assert g_fused._parents == () and not g_fused.requires_grad
    assert np.array_equal(g_fused.data,
                          trace.guidance.data + trace.bases_mean.data[:, None, None])


def test_transfer_coeffs_match_loop_assembly_conv_of_shifted_guidance():
    # the forward folds the mean bases vector into the assembly conv; the
    # coefficients must still be that conv of G + mean(B), summed here
    # element by element
    rng = np.random.default_rng(14)
    params = init_hgd_params((6, 7, 9), toy_config(transfer_enabled=True), rng)
    trace = hgd_forward_full(*toy_inputs(rng), params)
    g, bases, coeffs = trace.guidance.data, trace.bases.data, trace.coeffs.data
    weight, bias = params.assembly.weight.data, params.assembly.bias.data
    dim, bh, bw = bases.shape
    n, h, w = coeffs.shape
    want = np.empty_like(coeffs)
    for o in range(n):
        for y in range(h):
            for x in range(w):
                acc = bias[o]
                for i in range(dim):
                    mean = 0.0
                    for p in range(bh):
                        for q in range(bw):
                            mean += bases[i, p, q]
                    acc += weight[o, i] * (g[i, y, x] + mean / (bh * bw))
                want[o, y, x] = acc
    assert coeffs.dtype == np.float64
    assert np.max(np.abs(coeffs - want)) <= 1e-12 * np.max(np.abs(want))


def test_config_rejects_transfer_dim_conflict_at_construction():
    with pytest.raises(ConfigError):
        init_hgd_params((6, 7, 9), toy_config(guidance_channels=7, transfer_enabled=True),
                        np.random.default_rng(0))


# ------------------------------------------------------------ full forward

def test_hgd_forward_output_shape_and_composition():
    rng = np.random.default_rng(15)
    cfg = toy_config()
    params = init_hgd_params((6, 7, 9), cfg, rng)
    e8, e16, e32 = toy_inputs(rng)
    out = hgd_forward(e8, e16, e32, params)
    assert out.dims == (cfg.codeword_dim + cfg.guidance_channels, 8, 8)

    trace = hgd_forward_full(e8, e16, e32, params)
    assert np.array_equal(trace.fused.data, out.data)
    assert np.array_equal(trace.fused.data[:cfg.codeword_dim], trace.assembled.data)
    assert np.array_equal(trace.fused.data[cfg.codeword_dim:], trace.guidance.data)


def test_hgd_forward_spatial_contract_follows_finest_input():
    rng = np.random.default_rng(16)
    cfg = toy_config()
    params = init_hgd_params((3, 4, 5), cfg, rng)
    for h8, w8 in [(4, 12), (8, 8), (16, 4)]:
        e8 = t(rng.normal(size=(3, h8, w8)))
        e16 = t(rng.normal(size=(4, h8 // 2, w8 // 2)))
        e32 = t(rng.normal(size=(5, h8 // 4, w8 // 4)))
        out = hgd_forward(e8, e16, e32, params)
        assert out.dims[1:] == (h8, w8)


def test_codeword_permutation_equivariance():
    rng = np.random.default_rng(17)
    cfg = toy_config(n_codewords=5)
    params = init_hgd_params((6, 7, 9), cfg, rng)
    e8, e16, e32 = toy_inputs(rng)
    base = hgd_forward(e8, e16, e32, params).data.copy()

    perm = rng.permutation(5)
    params.weighting.weight.data[:] = params.weighting.weight.data[perm]
    params.weighting.bias.data[:] = params.weighting.bias.data[perm]
    params.assembly.weight.data[:] = params.assembly.weight.data[perm]
    params.assembly.bias.data[:] = params.assembly.bias.data[perm]
    permuted = hgd_forward(e8, e16, e32, params).data
    assert np.max(np.abs(permuted - base)) <= 1e-10


def test_weighting_bias_shift_leaves_codewords_unchanged():
    rng = np.random.default_rng(18)
    cfg = toy_config()
    params = init_hgd_params((6, 7, 9), cfg, rng)
    e8, e16, e32 = toy_inputs(rng)
    first = hgd_forward_full(e8, e16, e32, params)
    params.weighting.bias.data[:] += 3.7
    second = hgd_forward_full(e8, e16, e32, params)
    assert np.max(np.abs(first.codewords.data - second.codewords.data)) <= 1e-10
    assert np.max(np.abs(first.fused.data - second.fused.data)) <= 1e-10


def test_hgd_forward_gradcheck_all_kernels():
    rng = np.random.default_rng(19)
    cfg = HgdConfig(n_codewords=2, codeword_dim=4, compressed_channels=3,
                    guidance_channels=4, transfer_enabled=True)
    params = init_hgd_params((3, 3, 3), cfg, rng)
    e8 = t(rng.normal(size=(3, 8, 8)))
    e16 = t(rng.normal(size=(3, 4, 4)))
    e32 = t(rng.normal(size=(3, 2, 2)))
    probe = Tensor(rng.normal(size=(8, 8, 8)))

    def build():
        return ops.sum_all(ops.mul(hgd_forward(e8, e16, e32, params), probe))

    reports = gradcheck(build, list(params.named_parameters()), step=1e-6, tol=1e-5,
                        max_per_param=8)
    for rep in reports:
        assert rep.passed, f"{rep.name}: {rep.max_rel_err:.2e}"


def test_config_validation():
    with pytest.raises(ConfigError):
        toy_config(n_codewords=0)
    with pytest.raises(ConfigError):
        toy_config(fused_scales=())
    with pytest.raises(ConfigError):
        toy_config(fused_scales=(8, 64))
