import csv
import dataclasses
import functools
import io

import numpy as np
import pytest

from hgd import ops
from hgd.costmodel import (ArchSpec, LayerSpec, count_layer, efficientfcn_spec,
                           emit_report, fpn_baseline_spec, fpn_spec, report_csv,
                           resnet_spec, toy_seg_spec)
from hgd.efficientfcn import init_seg_params, tiny_backbone_config, tiny_hgd_config
from hgd.fpn import (FpnConfig, Pyramid, fpn_decode, init_fpn_params, init_fpn_stack,
                     pyramid_grids, tiny_fpn_config)
from hgd.params import parameter_count
from hgd.tensor import ConfigError, Tensor

# published totals the analytic model is checked against
REF_RESNET_STD = 44.6e9
REF_RESNET_DILATED = 223.6e9
REF_DILATION_RATIO = 5.01
REF_RESNET_PARAMS = 54.0e6
REF_EFCN = 69.6e9
REF_EFCN_DELTA = 2.5e9
REF_EFCN_PARAMS = 55.8e6
REF_FPN_STAGE = 91.4e9


def within(value, ref, frac):
    return abs(value - ref) <= frac * ref


# ------------------------------------------------------------- count_layer

def test_conv1x1_example():
    macs, params = count_layer(LayerSpec("x", "conv", 1, 1536, 1024, 64, 64))
    assert macs == 6_442_450_944
    assert params == 1_573_888


def test_conv3x3_example():
    macs, params = count_layer(LayerSpec("x", "conv", 3, 64, 64, 56, 56))
    assert macs == 115_605_504
    assert params == 9 * 64 * 64 + 64


def test_assembly_matmul_counts_no_params():
    macs, params = count_layer(LayerSpec("x", "matmul", c_in=1024, c_out=256,
                                         out_h=16, out_w=16))
    assert macs == 1024 * 256 * 256
    assert params == 0


@pytest.mark.parametrize("kind", ["pool", "resize", "elementwise"])
def test_free_kinds(kind):
    assert count_layer(LayerSpec("x", kind, out_h=10, out_w=10)) == (0, 0)


def test_coeffs_kind_has_params_only():
    assert count_layer(LayerSpec("x", "coeffs", param_count=14)) == (0, 14)
    assert count_layer(LayerSpec("x", "coeffs", param_count=14, tied=True)) == (0, 0)


def test_tied_conv_keeps_macs_drops_params():
    fresh = LayerSpec("x", "conv", 3, 8, 8, 4, 4)
    tied = LayerSpec("x", "conv", 3, 8, 8, 4, 4, tied=True)
    assert count_layer(tied)[0] == count_layer(fresh)[0]
    assert count_layer(tied)[1] == 0


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="kind"):
        count_layer(LayerSpec("x", "attention"))


# ------------------------------------------------------------ report shape

def test_empty_spec_zero_totals():
    report = emit_report(ArchSpec("empty", ()))
    assert report.rows == ()
    assert report.total_macs == 0
    assert report.total_params == 0


def test_totals_are_row_sums_in_order():
    layers = (LayerSpec("a", "conv", 1, 4, 4, 2, 2),
              LayerSpec("b", "coeffs", param_count=3),
              LayerSpec("c", "conv", 3, 2, 2, 5, 5))
    report = emit_report(ArchSpec("demo", layers))
    assert [name for name, _, _ in report.rows] == ["a", "b", "c"]
    assert report.total_macs == sum(m for _, m, _ in report.rows)
    assert report.total_params == sum(p for _, _, p in report.rows)


def test_csv_has_header_rows_and_total_last():
    report = emit_report(resnet_spec(50, (64, 64)))
    rows = list(csv.reader(io.StringIO(report_csv(report))))
    assert rows[0] == ["layer", "macs", "params"]
    assert len(rows) == len(report.rows) + 2
    assert rows[-1] == ["total", str(report.total_macs), str(report.total_params)]
    body = rows[1:-1]
    assert [r[0] for r in body] == [name for name, _, _ in report.rows]
    assert sum(int(r[1]) for r in body) == report.total_macs


def test_reports_are_deterministic():
    a = report_csv(emit_report(efficientfcn_spec()))
    b = report_csv(emit_report(efficientfcn_spec()))
    assert a == b


# ----------------------------------------------------------------- resnet

def test_resnet_validation():
    with pytest.raises(ConfigError, match="depth"):
        resnet_spec(34)
    with pytest.raises(ConfigError, match="divisible"):
        resnet_spec(101, (500, 512))


def test_dilation_changes_no_parameter():
    """Holding the last two stages at stride 8 must not touch any layer's
    parameter count, only the grids it runs on."""
    std = resnet_spec(101)
    dil = resnet_spec(101, dilated_last_two=True)
    assert len(std.layers) == len(dil.layers)
    for a, b in zip(std.layers, dil.layers):
        assert a.name == b.name
        assert count_layer(a)[1] == count_layer(b)[1]
    assert emit_report(std).total_params == emit_report(dil).total_params


def test_conv_macs_scale_with_area():
    """Doubling both input extents quadruples every conv layer's MACs."""
    small = resnet_spec(101, (512, 512))
    large = resnet_spec(101, (1024, 1024))
    for a, b in zip(small.layers, large.layers):
        if a.kind == "conv":
            assert count_layer(b)[0] == 4 * count_layer(a)[0]
            assert count_layer(b)[1] == count_layer(a)[1]


def test_efficientfcn_macs_scale_with_area():
    small = efficientfcn_spec(input_hw=(512, 512))
    large = efficientfcn_spec(input_hw=(1024, 1024))
    for a, b in zip(small.layers, large.layers):
        if a.kind in ("conv", "matmul"):
            assert count_layer(b)[0] == 4 * count_layer(a)[0]


def test_resnet_totals_near_references():
    std = emit_report(resnet_spec(101))
    dil = emit_report(resnet_spec(101, dilated_last_two=True))
    assert within(std.total_macs, REF_RESNET_STD, 0.10)
    assert within(dil.total_macs, REF_RESNET_DILATED, 0.10)
    assert within(dil.total_macs / std.total_macs, REF_DILATION_RATIO, 0.05)
    assert within(std.total_params, REF_RESNET_PARAMS, 0.02)


def test_resnet50_is_smaller_than_101():
    r50 = emit_report(resnet_spec(50))
    r101 = emit_report(resnet_spec(101))
    assert r50.total_macs < r101.total_macs
    assert r50.total_params < r101.total_params


def test_backbone_variant_drops_head():
    bare = resnet_spec(101, include_head=False)
    assert bare.name == "resnet101-standard-backbone"
    assert all(not layer.name.startswith("head.") for layer in bare.layers)
    full = emit_report(resnet_spec(101))
    head_macs = full.total_macs - emit_report(bare).total_macs
    assert head_macs == (9 * 2048 * 512 + 9 * 512 * 512 + 512 * 60) * 16 * 16


# ----------------------------------------------------------- efficientfcn

def test_efficientfcn_total_near_reference():
    report = emit_report(efficientfcn_spec(n=256))
    assert within(report.total_macs, REF_EFCN, 0.10)
    assert within(report.total_params, REF_EFCN_PARAMS, 0.02)


def test_efficientfcn_codeword_count_delta():
    """Growing the codeword count 256 -> 512 should cost roughly the
    published increment; the exact delta is the four n-dependent rows."""
    lo = emit_report(efficientfcn_spec(n=256))
    hi = emit_report(efficientfcn_spec(n=512))
    delta = hi.total_macs - lo.total_macs
    assert within(delta, REF_EFCN_DELTA, 0.20)
    expected = (1536 * 256 * 16 * 16 + 1024 * 256 * 16 * 16
                + 1024 * 256 * 64 * 64 + 1024 * 256 * 64 * 64)
    assert delta == expected
    assert hi.total_params > lo.total_params


def test_unrefined_variant_drops_three_convs():
    refined = efficientfcn_spec(refined=True)
    plain = efficientfcn_spec(refined=False)
    names = {layer.name for layer in refined.layers} - {layer.name for layer in plain.layers}
    assert names == {"decoder.refine8", "decoder.refine16", "decoder.refine32"}
    diff = emit_report(refined).total_macs - emit_report(plain).total_macs
    assert diff == 9 * 512 * 512 * (64 * 64 + 32 * 32 + 16 * 16)


# -------------------------------------------------------------- fpn family

def hgd_fpn(k, **fields):
    """The hgd-fpn report at FpnConfig() with k stages and `fields` replaced."""
    return emit_report(fpn_spec("hgd-fpn", FpnConfig(k_recurrence=k, **fields)))


def test_fpn_validation():
    with pytest.raises(ConfigError, match="variant"):
        fpn_spec("hgd-pyramid")
    with pytest.raises(ConfigError, match="variant"):
        fpn_spec("fpn-baseline", FpnConfig())    # the baseline is fpn_baseline_spec alone
    with pytest.raises(ConfigError, match="k"):
        fpn_spec("hgd-fpn", FpnConfig(k_recurrence=0))


def test_fpn_total_affine_in_k():
    """Total MACs must be exactly base plus k times one stage."""
    totals = [hgd_fpn(k).total_macs for k in range(1, 6)]
    increments = [b - a for a, b in zip(totals, totals[1:])]
    assert len(set(increments)) == 1
    base = emit_report(fpn_baseline_spec()).total_macs
    assert totals[0] == base + increments[0]


def test_fpn_stage_increment_near_reference():
    totals = [hgd_fpn(k).total_macs for k in (1, 2)]
    assert within(totals[1] - totals[0], REF_FPN_STAGE, 0.15)


def test_shared_params_independent_of_k():
    counts = {hgd_fpn(k).total_params for k in (1, 2, 5)}
    assert len(counts) == 1


def test_unshared_params_grow_linearly():
    totals = [hgd_fpn(k, share_params=False).total_params for k in (1, 2, 3)]
    stage = totals[1] - totals[0]
    assert stage > 0
    assert totals[2] - totals[1] == stage


def test_toy_params_match_executable_decoder():
    """The toy spec mirrors the executable pyramid decoder, so the analytic
    parameter total must equal the real parameter records exactly."""
    cfg = tiny_fpn_config()
    spec = fpn_spec("hgd-fpn-toy", cfg)
    rng = np.random.default_rng(0)
    live = parameter_count(init_fpn_params(cfg, rng).named_parameters())
    assert emit_report(spec).total_params == live


def test_toy_stage_conv_rows_have_the_live_weight_shapes():
    """Equal totals could hide two rows with swapped widths: each live
    weight's parameters sit on exactly one row of a toy stage, the row
    named by its path, and a conv row has the weight's (c_out, c_in)."""
    cfg = dataclasses.replace(tiny_fpn_config(), k_recurrence=1)
    params = init_fpn_params(cfg, np.random.default_rng(0))
    spec = fpn_spec("hgd-fpn-toy", cfg)
    counted = []
    for layer, (name, _, count) in zip(spec.layers, emit_report(spec).rows):
        if layer.kind == "coeffs" or not count:
            continue
        stage, *path = name.split(".")
        assert stage == "stage0", name
        record = functools.reduce(getattr, path, params)
        assert count == record.weight.data.size + record.bias.data.size, name
        if layer.kind == "conv":
            assert (layer.kernel, layer.c_out, layer.c_in) == (1, *record.weight.dims), name
        counted.append(".".join(path))
    live = [name.rsplit(".", 1)[0] for name, _ in params.named_parameters()
            if not name.startswith("coeffs.")]
    assert sorted(counted) == sorted(set(live))


def traced_decode(monkeypatch, config, input_hw):
    """The conv1x1 and matmul MACs of a live fpn_decode at `config` on the
    pyramid of an `input_hw` image, and each conv's (c_out, c_in, h, w)."""
    macs, convs = [], []
    conv1x1, matmul = ops.conv1x1, ops.matmul

    def traced_conv(x, weight, *args, **kwargs):
        convs.append((*weight.dims, *x.dims[1:]))
        macs.append(weight.data.size * x.dims[1] * x.dims[2])
        return conv1x1(x, weight, *args, **kwargs)

    def traced_matmul(a, b, **kwargs):
        macs.append(a.dims[0] * a.dims[1] * b.dims[1])
        return matmul(a, b, **kwargs)

    rng = np.random.default_rng(5)
    pyramid = Pyramid(*[Tensor(rng.standard_normal((config.output_channels, h, w)))
                        for h, w in pyramid_grids(input_hw).values()])
    params = init_fpn_stack(config, rng)
    with monkeypatch.context() as patch:
        patch.setattr(ops, "conv1x1", traced_conv)
        patch.setattr(ops, "matmul", traced_matmul)
        fpn_decode(pyramid, params)
    return sum(macs), convs


# the preset's decoder on its 64x64 image, and fpn-decode's k=4 decoder on
# the 224x352 image whose p3 is its 56x88 grid
@pytest.mark.parametrize("config, input_hw, total", [
    (tiny_fpn_config(), (64, 64), 18_496),
    (FpnConfig(n_codewords=32, codeword_dim=64, output_channels=64), (224, 352), 35_381_248),
], ids=["preset", "fpn-decode"])
@pytest.mark.parametrize("shared", [True, False], ids=["shared", "unshared"])
def test_toy_spec_macs_equal_the_traced_live_decode(monkeypatch, config, input_hw,
                                                    total, shared):
    config = dataclasses.replace(config, share_params=shared)
    spec = fpn_spec("hgd-fpn-toy", config, input_hw)
    traced, convs = traced_decode(monkeypatch, config, input_hw)
    assert emit_report(spec).total_macs == traced == total
    rows = {(layer.c_out, layer.c_in, layer.out_h, layer.out_w) for layer in spec.layers
            if layer.kind in ("conv", "matmul")}
    assert set(convs) <= rows


def test_toy_unshared_params_match_executable_stack():
    cfg = dataclasses.replace(tiny_fpn_config(), k_recurrence=3, share_params=False)
    spec = fpn_spec("hgd-fpn-toy", cfg)
    rng = np.random.default_rng(1)
    stack = init_fpn_stack(cfg, rng)
    live = sum(parameter_count(p.named_parameters()) for p in stack)
    assert emit_report(spec).total_params == live


def test_toy_seg_params_match_executable_stack():
    spec = toy_seg_spec()
    rng = np.random.default_rng(2)
    params = init_seg_params(tiny_backbone_config(), tiny_hgd_config(), 5, rng)
    assert emit_report(spec).total_params == parameter_count(params.named_parameters())


def test_toy_seg_and_paper_decoder_totals_are_pinned():
    """The exact figures the benchmark reconciles traced forwards against."""
    toy = emit_report(toy_seg_spec())
    assert (toy.total_macs, toy.total_params) == (710_144, 17_717)
    paper = emit_report(efficientfcn_spec(n=256, c=1024, refined=False))
    decoder_macs = sum(macs for name, macs, _ in paper.rows
                       if name.startswith("decoder.") and name != "decoder.classifier")
    assert decoder_macs == 11_039_408_128
