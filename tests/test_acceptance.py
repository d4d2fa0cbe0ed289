"""Acceptance gate: one test per numbered requirement.

Each test exercises a requirement end to end at its stated tolerance and
runtime budget, so `pytest -v tests/test_acceptance.py` prints one
pass/fail line per requirement. Tolerances and reference totals are
inlined rather than imported so this file stands alone.
"""

import copy
import dataclasses
import time

import numpy as np

from hgd import ops
from hgd.config import RunConfig
from hgd.costmodel import emit_report, efficientfcn_spec, fpn_spec, resnet_spec
from hgd.decoder import (HgdConfig, assemble_from, codewords_from,
                         hgd_forward, hgd_forward_full, init_hgd_params)
from hgd.efficientfcn import (init_seg_params, segment_forward, tiny_backbone_config,
                              tiny_hgd_config, tiny_train_config, train_segmenter)
from hgd.fpn import (FpnConfig, Pyramid, fpn_decode, fpn_decode_once, init_fpn_params,
                     tiny_fpn_config)
from hgd.gradcheck import gradcheck
from hgd.params import parameter_count
from hgd.synthdata import synth_dataset
from hgd.tensor import Tensor


def rand_pyramid(rng, channels=8, h=16, w=16, scale=1.0):
    maps = []
    for _ in range(5):
        maps.append(Tensor(scale * rng.standard_normal((channels, h, w))))
        h, w = (h + 1) // 2, (w + 1) // 2
    return Pyramid(*maps)


def rand_taps(rng, channels=(3, 5, 7), h8=8, dtype=np.float64):
    dims = [(channels[0], h8, h8), (channels[1], h8 // 2, h8 // 2),
            (channels[2], h8 // 4, h8 // 4)]
    return [Tensor(rng.standard_normal(d).astype(dtype)) for d in dims]


def test_criterion_01_weighting_maps_normalize():
    """Every codeword channel of the softmax weighting sums to one."""
    start = time.monotonic()
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        h = int(rng.integers(1, 7))
        w = int(rng.integers(1, 7))
        scale = float(rng.uniform(0.1, 40.0))
        logits = Tensor(scale * rng.standard_normal((n, h, w)))
        attn = ops.softmax_spatial(logits)
        sums = attn.data.sum(axis=(1, 2))
        worst = max(worst, float(np.abs(sums - 1.0).max()))
    assert worst <= 1e-12
    assert time.monotonic() - start < 10.0


def test_criterion_02_matmul_paths_equal_loop_oracles():
    """Codeword pooling and per-pixel assembly match naive summation."""
    start = time.monotonic()
    rng = np.random.default_rng(22)
    worst = 0.0
    for _ in range(200):
        dim = int(rng.integers(1, 9))
        n = int(rng.integers(1, 9))
        h = int(rng.integers(1, 9))
        w = int(rng.integers(1, 9))
        bases = rng.standard_normal((dim, h, w))
        weights = rng.standard_normal((n, h, w))
        fast = codewords_from(Tensor(bases), Tensor(weights)).data
        oracle = np.zeros((dim, n))
        for i in range(n):
            for p in range(h):
                for q in range(w):
                    oracle[:, i] += weights[i, p, q] * bases[:, p, q]
        worst = max(worst, float(np.abs(fast - oracle).max()))

        h2 = int(rng.integers(1, 9))
        w2 = int(rng.integers(1, 9))
        coeffs = rng.standard_normal((n, h2, w2))
        assembled = assemble_from(Tensor(coeffs), Tensor(oracle)).data
        loop = np.zeros((dim, h2, w2))
        for i in range(n):
            loop += coeffs[i] * oracle[:, i][:, None, None]
        worst = max(worst, float(np.abs(assembled - loop).max()))
    assert worst <= 1e-12
    assert time.monotonic() - start < 30.0


def test_criterion_03_gradient_checks_every_group():
    """Both tiny networks pass central differences for all parameters,
    including the raw fusion scalars."""
    start = time.monotonic()
    rng = np.random.default_rng(33)

    seg_params = init_seg_params(tiny_backbone_config(), tiny_hgd_config(), 5, rng)
    sample = synth_dataset(seed=7, count=1, size=32, num_classes=5)[0]

    def seg_loss():
        return ops.cross_entropy_logits(segment_forward(sample.image, seg_params),
                                        sample.label)

    seg_reports = gradcheck(seg_loss, list(seg_params.named_parameters()),
                            tol=1e-5, max_per_param=4,
                            rng=np.random.default_rng(34))

    fpn_cfg = tiny_fpn_config()
    fpn_params = init_fpn_params(fpn_cfg, rng)
    pyramid = rand_pyramid(np.random.default_rng(35), scale=0.5)
    count = sum(level.data.size for level in pyramid.levels())

    def fpn_loss():
        out = fpn_decode_once(pyramid, fpn_params)
        total = None
        for level in out.levels():
            term = ops.sum_all(level)
            total = term if total is None else ops.add(total, term)
        return ops.scalar_scale(total, 1.0 / count)

    fpn_named = list(fpn_params.named_parameters())
    assert {"coeffs.a", "coeffs.r", "coeffs.s", "coeffs.t"} <= {n for n, _ in fpn_named}
    fpn_reports = gradcheck(fpn_loss, fpn_named, tol=1e-5, max_per_param=4,
                            rng=np.random.default_rng(36))

    failed = [r.name for r in seg_reports + fpn_reports if not r.passed]
    assert not failed, failed
    assert time.monotonic() - start < 120.0


def test_criterion_04_default_config_shape_contract():
    """A 512x512 input under the default decoder settings yields a fused
    map of 2048 channels (1024 codeword + 1024 guidance) on the x8 grid."""
    cfg = RunConfig().hgd
    rng = np.random.default_rng(44)
    params = init_hgd_params((512, 1024, 2048), cfg, rng, dtype=np.float32)
    e8 = Tensor(rng.standard_normal((512, 64, 64)).astype(np.float32))
    e16 = Tensor(rng.standard_normal((1024, 32, 32)).astype(np.float32))
    e32 = Tensor(rng.standard_normal((2048, 16, 16)).astype(np.float32))
    fused = hgd_forward(e8, e16, e32, params)
    assert fused.dims == (2048, 64, 64)


def test_criterion_05_cost_model_reference_totals():
    std = emit_report(resnet_spec(101))
    dil = emit_report(resnet_spec(101, dilated_last_two=True))
    assert abs(std.total_macs - 44.6e9) <= 0.10 * 44.6e9
    assert abs(dil.total_macs - 223.6e9) <= 0.10 * 223.6e9
    assert abs(dil.total_macs / std.total_macs - 5.01) <= 0.05 * 5.01
    assert std.total_params == dil.total_params

    lo = emit_report(efficientfcn_spec(n=256))
    hi = emit_report(efficientfcn_spec(n=512))
    assert abs(lo.total_macs - 69.6e9) <= 0.10 * 69.6e9
    assert abs(hi.total_macs - lo.total_macs - 2.5e9) <= 0.20 * 2.5e9


def test_criterion_06_recurrence_affine_and_parameter_sharing():
    totals = [emit_report(fpn_spec("hgd-fpn", FpnConfig(k_recurrence=k))).total_macs
              for k in range(1, 6)]
    increments = {b - a for a, b in zip(totals, totals[1:])}
    assert len(increments) == 1
    increment = increments.pop()
    assert abs(increment - 91.4e9) <= 0.15 * 91.4e9

    cfg = tiny_fpn_config()
    live = parameter_count(init_fpn_params(cfg, np.random.default_rng(66))
                           .named_parameters())
    for k in (1, 3, 5):
        spec = fpn_spec("hgd-fpn-toy", dataclasses.replace(cfg, k_recurrence=k))
        assert emit_report(spec).total_params == live


def test_criterion_07_residual_identity_bit_exact():
    params = init_fpn_params(tiny_fpn_config(), np.random.default_rng(77))
    for branch in params.branches():
        branch.project.weight.data[:] = 0.0
        branch.project.bias.data[:] = 0.0
    pyramid = rand_pyramid(np.random.default_rng(78))
    out = fpn_decode(pyramid, params)
    for before, after in zip(pyramid.levels(), out.levels()):
        assert np.array_equal(before.data, after.data)


def test_criterion_08_codeword_permutation_equivariance():
    # decoder: permuting codeword channels in both the weighting head and
    # the coefficient head leaves the fused output unchanged
    rng = np.random.default_rng(88)
    cfg = HgdConfig(n_codewords=5, codeword_dim=6, compressed_channels=4,
                    guidance_channels=6)
    params = init_hgd_params((3, 5, 7), cfg, rng)
    taps = rand_taps(np.random.default_rng(89))
    base = hgd_forward(*taps, params).data

    perm = np.random.default_rng(90).permutation(cfg.n_codewords)
    shuffled = copy.deepcopy(params)
    shuffled.weighting.weight.data[:] = shuffled.weighting.weight.data[perm]
    shuffled.weighting.bias.data[:] = shuffled.weighting.bias.data[perm]
    shuffled.assembly.weight.data[:] = shuffled.assembly.weight.data[perm]
    shuffled.assembly.bias.data[:] = shuffled.assembly.bias.data[perm]
    assert np.abs(hgd_forward(*taps, shuffled).data - base).max() <= 1e-10

    # pyramid decoder: same joint permutation across weighting and every
    # per-scale coefficient head leaves all refined levels unchanged
    fpn_params = init_fpn_params(tiny_fpn_config(), np.random.default_rng(91))
    pyramid = rand_pyramid(np.random.default_rng(92))
    base_out = fpn_decode_once(pyramid, fpn_params)

    fperm = np.random.default_rng(93).permutation(tiny_fpn_config().n_codewords)
    fshuffled = copy.deepcopy(fpn_params)
    fshuffled.weighting.weight.data[:] = fshuffled.weighting.weight.data[fperm]
    fshuffled.weighting.bias.data[:] = fshuffled.weighting.bias.data[fperm]
    for branch in fshuffled.branches():
        branch.assembly.weight.data[:] = branch.assembly.weight.data[fperm]
        branch.assembly.bias.data[:] = branch.assembly.bias.data[fperm]
    perm_out = fpn_decode_once(pyramid, fshuffled)
    for a, b in zip(base_out.levels(), perm_out.levels()):
        assert np.abs(a.data - b.data).max() <= 1e-10


def test_criterion_09_overfits_synthetic_task():
    """500 SGD steps with the poly(0.9)/momentum(0.9)/decay(1e-4) recipe
    push train pixel accuracy past 99% on the 32-sample task."""
    start = time.monotonic()
    samples = synth_dataset(seed=2024, count=32, size=64, num_classes=5)
    params = init_seg_params(tiny_backbone_config(), tiny_hgd_config(), 5,
                             np.random.default_rng(17))
    cfg = tiny_train_config()
    assert (cfg.power, cfg.momentum, cfg.weight_decay) == (0.9, 0.9, 1e-4)
    assert cfg.max_iter == 500

    result = train_segmenter(samples, params, cfg, 5, np.random.default_rng(3))
    assert result.final_pixacc >= 0.99

    losses = [row["loss"] for row in result.history]
    assert np.median(losses[400:500]) < np.median(losses[0:100])
    assert time.monotonic() - start < 300.0


def test_criterion_10_transfer_ablation_wiring():
    """Disabling the additive transfer leaves every shape alone and makes
    the fused guidance literally the plain guidance map."""
    cfg_on = HgdConfig(n_codewords=5, codeword_dim=6, compressed_channels=4,
                       guidance_channels=6, transfer_enabled=True)
    cfg_off = HgdConfig(n_codewords=5, codeword_dim=6, compressed_channels=4,
                        guidance_channels=6, transfer_enabled=False)
    params_on = init_hgd_params((3, 5, 7), cfg_on, np.random.default_rng(100))
    params_off = init_hgd_params((3, 5, 7), cfg_off, np.random.default_rng(100))
    taps = rand_taps(np.random.default_rng(101))

    trace_on = hgd_forward_full(*taps, params_on)
    trace_off = hgd_forward_full(*taps, params_off)

    assert trace_off.guidance_fused is trace_off.guidance
    assert np.array_equal(trace_off.guidance_fused.data, trace_off.guidance.data)
    for field in ("fused", "assembled", "guidance", "guidance_fused", "coeffs",
                  "bases", "weights", "m8", "m32"):
        assert getattr(trace_on, field).dims == getattr(trace_off, field).dims
