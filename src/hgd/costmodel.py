"""Analytic multiply-accumulate and parameter counts for whole networks.

Counts are produced from layer descriptions alone, no tensors are ever
allocated. Widths are stated once: layout tables and configs give the live
networks', and _resnet_rows the ResNet stage widths. Conventions:

- one multiply-accumulate (MAC) is counted as one FLOP;
- convolutions dominate: resizes, pooling, activations, concatenation,
  and elementwise arithmetic are counted as zero MACs;
- a convolution with kernel k, c_in -> c_out on an h x w output grid
  costs k^2*c_in*c_out*h*w MACs and k^2*c_in*c_out + c_out parameters
  (bias included); dilation changes the output grid a variant runs at,
  never the parameter count;
- a matmul row, a product of computed operands (the codeword matmuls,
  and the products that fold a pyramid branch into one conv), costs
  c_in*c_out*h*w MACs: an (a x b)(b x d) product is c_in b, c_out a on a
  d x 1 grid. It owns no weights, but counts the parameters of the live
  weights it reads when it is the one row they are counted on; learned
  fusion scalars are a zero-MAC layer kind with an explicit parameter
  count;
- fully connected layers are 1x1 convolutions on a 1x1 grid, with the
  row count (e.g. detection proposals) folded into the grid height.

Detection-scale figures assume an 800x1333 input padded up to 896x1408
(multiples of the coarsest stride); that assumption is loose, so only
relative quantities (per-stage increments, ratios) should be read
tightly from those rows.
"""

from dataclasses import dataclass, replace
from functools import partial

from .config import RunConfig, tiny_run
from .decoder import HgdConfig, hgd_layout
from .efficientfcn import backbone_layout, tiny_backbone_config
from .fpn import FUSION_LENGTHS, SCALE_LEVELS, FpnConfig, fpn_layout, pyramid_grids
from .tensor import ConfigError

SEG_INPUT = (RunConfig().input_size,) * 2
SEG_CLASSES = RunConfig().num_classes
DETECTION_INPUT = (896, 1408)
DETECTION_CLASSES = 81
PROPOSALS = 1000
ROI_HIDDEN = 1024      # the box head's fully connected width


@dataclass(frozen=True)
class LayerSpec:
    name: str
    kind: str
    kernel: int = 1
    c_in: int = 0
    c_out: int = 0
    out_h: int = 0
    out_w: int = 0
    param_count: int = 0   # "coeffs" and "matmul" kinds: the live parameters they count
    tied: bool = False     # weights reused from an earlier layer: no new params


@dataclass(frozen=True)
class ArchSpec:
    name: str
    layers: tuple


@dataclass(frozen=True)
class CostReport:
    rows: tuple            # (layer name, macs, params)
    total_macs: int
    total_params: int


def count_layer(spec: LayerSpec):
    """MACs and parameters of one layer under the documented convention."""
    if spec.kind == "conv":
        weights = spec.kernel * spec.kernel * spec.c_in * spec.c_out
        macs = weights * spec.out_h * spec.out_w
        params = 0 if spec.tied else weights + spec.c_out
        return macs, params
    if spec.kind == "matmul":
        macs = spec.c_in * spec.c_out * spec.out_h * spec.out_w
        return macs, 0 if spec.tied else spec.param_count
    if spec.kind in ("pool", "resize", "elementwise"):
        return 0, 0
    if spec.kind == "coeffs":
        return 0, 0 if spec.tied else spec.param_count
    raise ValueError(f"unsupported layer kind: {spec.kind!r}")


def emit_report(arch: ArchSpec) -> CostReport:
    rows = []
    total_macs = 0
    total_params = 0
    for layer in arch.layers:
        macs, params = count_layer(layer)
        rows.append((layer.name, macs, params))
        total_macs += macs
        total_params += params
    return CostReport(rows=tuple(rows), total_macs=total_macs, total_params=total_params)


def report_csv(report: CostReport) -> str:
    lines = ["layer,macs,params"]
    lines.extend(f"{name},{macs},{params}" for name, macs, params in report.rows)
    lines.append(f"total,{report.total_macs},{report.total_params}")
    return "\n".join(lines) + "\n"


# -------------------------------------------------------------- backbones

_RESNET_BLOCKS = {50: (3, 4, 6, 3), 101: (3, 4, 23, 3)}


def _bottleneck(rows, prefix, c_in, mid, c_out, in_hw, out_hw, project):
    rows.append(LayerSpec(f"{prefix}.reduce", "conv", 1, c_in, mid, *in_hw))
    rows.append(LayerSpec(f"{prefix}.conv3x3", "conv", 3, mid, mid, *out_hw))
    rows.append(LayerSpec(f"{prefix}.expand", "conv", 1, mid, c_out, *out_hw))
    if project:
        rows.append(LayerSpec(f"{prefix}.shortcut", "conv", 1, c_in, c_out, *out_hw))
    rows.append(LayerSpec(f"{prefix}.add", "elementwise"))


def _resnet_rows(depth, input_hw, dilated_last_two):
    """Bottleneck-stage backbone; returns (rows, {stage 2-5: (width, grid)})."""
    if depth not in _RESNET_BLOCKS:
        raise ConfigError(f"unsupported resnet depth {depth}")
    h, w = input_hw
    if h % 32 or w % 32:
        raise ConfigError(f"input dims must be divisible by 32, got {input_hw}")
    blocks = _RESNET_BLOCKS[depth]

    rows = [LayerSpec("backbone.conv1", "conv", 7, 3, 64, h // 2, w // 2),
            LayerSpec("backbone.maxpool", "pool", out_h=h // 4, out_w=w // 4)]

    # dilated: the last two stages hold at stride 8
    strides = (4, 8, 8, 8) if dilated_last_two else (4, 8, 16, 32)
    in_strides = (4, 4, strides[1], strides[2])

    stages = {}
    c_in = 64
    for idx, (count, stride, in_stride) in enumerate(zip(blocks, strides, in_strides)):
        stage = idx + 2
        c_out = 256 * 2 ** idx
        mid = c_out // 4        # bottleneck expansion 4
        out_hw = (h // stride, w // stride)
        first_in_hw = (h // in_stride, w // in_stride)
        for b in range(count):
            name = f"backbone.stage{stage}.block{b:02d}"
            if b == 0:
                _bottleneck(rows, name, c_in, mid, c_out, first_in_hw, out_hw, True)
            else:
                _bottleneck(rows, name, c_out, mid, c_out, out_hw, out_hw, False)
        c_in = c_out
        stages[stage] = (c_out, out_hw)
    return rows, stages


def resnet_spec(depth, input_hw=SEG_INPUT, dilated_last_two=False,
                include_head=True) -> ArchSpec:
    """Bottleneck backbone, optionally with the plain two-conv dense head.

    The headed variant is what the reference GFLOP totals describe; the
    bare backbone is exposed separately for transparency.
    """
    rows, stages = _resnet_rows(depth, input_hw, dilated_last_two)
    variant = "dilated" if dilated_last_two else "standard"
    name = f"resnet{depth}-{variant}"
    if include_head:
        c5, grid = stages[5]
        mid = c5 // 4       # an FCN head's convs are a quarter of its input's width
        rows += [LayerSpec("head.conv1", "conv", 3, c5, mid, *grid),
                 LayerSpec("head.conv2", "conv", 3, mid, mid, *grid),
                 LayerSpec("head.classifier", "conv", 1, mid, SEG_CLASSES, *grid),
                 LayerSpec("head.upsample", "resize", out_h=input_hw[0], out_w=input_hw[1])]
    else:
        name += "-backbone"
    return ArchSpec(name=name, layers=tuple(rows))


# ------------------------------------------------------------ segmentation

def _with(config, **fields):
    """`config` with every field that is not None replaced (and re-checked)."""
    return replace(config, **{k: v for k, v in fields.items() if v is not None})


def _conv_row(prefix, layout, name, grid, kernel=1, tied=False):
    """The conv row of layout[name]; an assembly conv's row is `assembly_conv`."""
    return LayerSpec(f"{prefix}.{name}".replace("assembly", "assembly_conv"), "conv",
                     kernel, *layout[name], *grid, tied=tied)


def _decoder_rows(config: HgdConfig, tap_channels, input_hw, num_classes, refined=False):
    """Codeword decoder and classifier rows, in forward order, on the
    stride-8/16/32 taps of the given widths (`refined`: see efficientfcn_spec)."""
    h, w = input_hw
    grids = {s: (h // s, w // s) for s in (8, 16, 32)}
    g8, g32 = grids[8], grids[32]
    conv = partial(_conv_row, "decoder", hgd_layout(config, tap_channels))
    comp, n, c = config.compressed_channels, config.n_codewords, config.codeword_dim
    rows = []
    for os_, grid in grids.items():
        rows.append(conv(f"compress{os_}", grid))
        if refined:
            rows.append(LayerSpec(f"decoder.refine{os_}", "conv", 3, comp, comp, *grid))
    rows += [
        LayerSpec("decoder.resample_to_coarse", "resize", out_h=g32[0], out_w=g32[1]),
        LayerSpec("decoder.concat_coarse", "elementwise"),
        conv("bases", g32), conv("weighting", g32),
        LayerSpec("decoder.attention_softmax", "elementwise"),
        LayerSpec("decoder.codeword_matmul", "matmul", c_in=c, c_out=n,
                  out_h=g32[0], out_w=g32[1]),
        LayerSpec("decoder.resample_to_fine", "resize", out_h=g8[0], out_w=g8[1]),
        LayerSpec("decoder.concat_fine", "elementwise"),
        conv("guidance", g8),
    ]
    if config.transfer_enabled:
        # the decoder folds the add into the assembly conv's shift; the
        # shift's W mean(B) is per-channel work like the bias
        rows.append(LayerSpec("decoder.transfer_add", "elementwise"))
    rows += [
        conv("assembly", g8),
        LayerSpec("decoder.assembly_matmul", "matmul", c_in=c, c_out=n,
                  out_h=g8[0], out_w=g8[1]),
        LayerSpec("decoder.concat_output", "elementwise"),
        LayerSpec("decoder.classifier", "conv", 1, config.output_channels, num_classes, *g8),
        LayerSpec("decoder.upsample", "resize", out_h=h, out_w=w),
    ]
    return rows


def efficientfcn_spec(n=None, c=None, input_hw=SEG_INPUT, refined=True) -> ArchSpec:
    """Codeword decoder on a standard stride-32 backbone.

    Widths default to HgdConfig(); `c` sets both the codeword and the
    guidance width. `refined` adds one 3x3 conv per compressed scale, the
    configuration the reference totals describe; the executable toy
    decoder in this package omits those convs, so cross-checks against it
    pass refined=False.
    """
    config = _with(HgdConfig(), n_codewords=n, codeword_dim=c, guidance_channels=c)
    rows, stages = _resnet_rows(101, input_hw, False)
    taps = [stages[s][0] for s in (3, 4, 5)]
    rows += _decoder_rows(config, taps, input_hw, SEG_CLASSES, refined)
    return ArchSpec(name=f"efficientfcn-n{config.n_codewords}", layers=tuple(rows))


def unet_spec(input_hw=SEG_INPUT) -> ArchSpec:
    """Reference two-merge encoder-decoder with bilinear upsampling on the
    same backbone (no tolerance is claimed for this reconstruction)."""
    rows, stages = _resnet_rows(101, input_hw, False)
    (c8, g8), (c16, g16), (c32, _) = stages[3], stages[4], stages[5]
    rows += [LayerSpec("decoder.up1", "resize", out_h=g16[0], out_w=g16[1]),
             LayerSpec("decoder.concat1", "elementwise"),
             LayerSpec("decoder.merge1", "conv", 3, c32 + c16, c16, *g16),
             LayerSpec("decoder.up2", "resize", out_h=g8[0], out_w=g8[1]),
             LayerSpec("decoder.concat2", "elementwise"),
             LayerSpec("decoder.merge2", "conv", 3, c16 + c8, c8, *g8),
             LayerSpec("decoder.classifier", "conv", 1, c8, SEG_CLASSES, *g8),
             LayerSpec("decoder.upsample", "resize", out_h=input_hw[0], out_w=input_hw[1])]
    return ArchSpec(name="unet-bilinear", layers=tuple(rows))


# --------------------------------------------------------------- detection

def fpn_baseline_spec(input_hw=DETECTION_INPUT) -> ArchSpec:
    """Two-stage detector with a lateral pyramid (no tolerance claimed) of
    FpnConfig's width, the pyramid hgd-fpn's decoder refines."""
    rows, stages = _resnet_rows(50, input_hw, False)
    grids = pyramid_grids(input_hw)
    ch = FpnConfig().output_channels
    for level in (3, 4, 5, 6):      # level l's lateral reads stage l - 1
        rows.append(LayerSpec(f"neck.lateral_p{level}", "conv", 1, stages[level - 1][0], ch,
                              *grids[level]))
    for level in (3, 4, 5, 6):
        rows.append(LayerSpec(f"neck.smooth_p{level}", "conv", 3, ch, ch, *grids[level]))
    rows.append(LayerSpec("neck.p7_pool", "pool", out_h=grids[7][0], out_w=grids[7][1]))
    for level in range(3, 8):
        rows.append(LayerSpec(f"rpn.conv_p{level}", "conv", 3, ch, ch,
                              *grids[level], tied=level > 3))
        rows.append(LayerSpec(f"rpn.head_p{level}", "conv", 1, ch, 18,
                              *grids[level], tied=level > 3))
    rows += [LayerSpec("roi.pool", "pool", out_h=7, out_w=7),
             LayerSpec("roi.fc1", "conv", 1, ch * 7 * 7, ROI_HIDDEN, PROPOSALS, 1),
             LayerSpec("roi.fc2", "conv", 1, ROI_HIDDEN, ROI_HIDDEN, PROPOSALS, 1),
             LayerSpec("roi.cls", "conv", 1, ROI_HIDDEN, DETECTION_CLASSES, PROPOSALS, 1),
             LayerSpec("roi.reg", "conv", 1, ROI_HIDDEN, 4 * (DETECTION_CLASSES - 1),
                       PROPOSALS, 1)]
    return ArchSpec(name="fpn-baseline", layers=tuple(rows))


def _code_rows(p, conv, config: FpnConfig, code, tied):
    """A stage's fusion scalars and its code path on the p6 grid `code`."""
    return [LayerSpec(f"{p}.fusion_coeffs", "coeffs",
                      param_count=sum(FUSION_LENGTHS.values()), tied=tied),
            LayerSpec(f"{p}.code_resample", "resize", out_h=code[0], out_w=code[1]),
            conv("bases", code), conv("weighting", code),
            LayerSpec(f"{p}.codeword_matmul", "matmul", c_in=config.codeword_dim,
                      c_out=config.n_codewords, out_h=code[0], out_w=code[1])]


def _merge_rows(p, grids):
    """A stage's residual merge: refined p4 up to p3, refined p6 pooled to p7."""
    return [LayerSpec(f"{p}.p3_upsample", "resize", out_h=grids[3][0], out_w=grids[3][1]),
            LayerSpec(f"{p}.p7_pool", "pool", out_h=grids[7][0], out_w=grids[7][1]),
            LayerSpec(f"{p}.residual_add", "elementwise")]


def _decoder_stage_rows(stage, grids, config: FpnConfig):
    """One stage of the paper's pyramid decoder: 3x3 convs, a smoothing conv
    per fused scale map, and each scale branch in the stack form (guidance,
    assembly conv, assembly matmul, projection of [assembled; G]). Shared
    parameters count once, at stage 0."""
    p, tied = f"stage{stage}", config.share_params and stage > 0
    ch, n, c = config.output_channels, config.n_codewords, config.codeword_dim
    conv = partial(_conv_row, p, fpn_layout(config), kernel=3, tied=tied)
    rows = _code_rows(p, conv, config, grids[6], tied)
    for level in SCALE_LEVELS:
        g, q = grids[level], f"scale{level}"
        rows += [LayerSpec(f"{p}.{q}.fuse", "elementwise"),
                 LayerSpec(f"{p}.{q}.smooth", "conv", 3, ch, ch, *g, tied=tied),
                 conv(f"{q}.guidance", g), conv(f"{q}.assembly", g),
                 LayerSpec(f"{p}.{q}.assembly_matmul", "matmul", c_in=c, c_out=n,
                           out_h=g[0], out_w=g[1]),
                 conv(f"{q}.project", g)]
    return rows + _merge_rows(p, grids)


def _folded_stage_rows(stage, grids, config: FpnConfig):
    """One stage of the pyramid decoder hgd.fpn runs: the code path, then
    per scale fold_branch's products W_pa C, (W_pa C) W_as, M b_g,
    W_pa C b_as and M W_g, and the one ch x ch conv they fold the branch
    into. A product named by a branch weight's fpn_layout path is the one
    that reads that weight, and counts its parameters (bias included).
    Shared parameters count once, at stage 0. One row differs from hgd.fpn:
    _merge_rows lists a stageN.p3_upsample per stage, while the live decode
    upsamples the stages' summed refined p4 onto p3 once, after the last
    stage; resize rows count no MACs, so the totals still agree."""
    p, tied = f"stage{stage}", config.share_params and stage > 0
    ch, n, c = config.output_channels, config.n_codewords, config.codeword_dim
    layout = fpn_layout(config)
    rows = _code_rows(p, partial(_conv_row, p, layout, tied=tied), config, grids[6], tied)

    def product(name, a, b, d):
        """The (a x b)(b x d) product `name`, counting layout[name]'s
        parameters when `name` is a weight's path."""
        c_in, c_out = layout.get(name, (0, 0))
        return LayerSpec(f"{p}.{name}", "matmul", c_in=b, c_out=a, out_h=d, out_w=1,
                         param_count=(c_in + 1) * c_out, tied=tied)

    for level in SCALE_LEVELS:
        g, q = grids[level], f"scale{level}"
        rows += [LayerSpec(f"{p}.{q}.fuse", "elementwise"),
                 product(f"{q}.project", ch, c, n), product(f"{q}.assembly", ch, n, ch),
                 product(f"{q}.guidance_bias", ch, ch, 1),
                 product(f"{q}.assembly_bias", ch, n, 1),
                 product(f"{q}.guidance", ch, ch, ch),
                 LayerSpec(f"{p}.{q}.conv", "matmul", c_in=ch, c_out=ch,
                           out_h=g[0], out_w=g[1])]
    return rows + _merge_rows(p, grids)


# each pyramid variant's default config: the paper's, and the preset's decoder
FPN_CONFIGS = {"hgd-fpn": FpnConfig(), "hgd-fpn-toy": tiny_run().fpn}


def fpn_spec(variant, config: FpnConfig = None, input_hw=None) -> ArchSpec:
    """Pyramid decoder cost specs for the "hgd-fpn" and "hgd-fpn-toy"
    variants (the baseline detector alone is fpn_baseline_spec).

    `config` is the FpnConfig described, by default the variant's own
    (FPN_CONFIGS). `input_hw` is the input image, by default DETECTION_INPUT
    for hgd-fpn and the preset tiny_run()'s for hgd-fpn-toy, and the levels
    are its fpn.pyramid_grids. hgd-fpn: the paper's decoder stages
    (_decoder_stage_rows) on top of the baseline detector. hgd-fpn-toy: the
    stages alone, as the live pyramid decoder (hgd.fpn) runs them
    (_folded_stage_rows), so its totals are the traced MACs and the
    parameter records of that decoder at the same config and grids.
    """
    if variant not in FPN_CONFIGS:
        raise ConfigError(f"unknown fpn variant {variant!r}")
    paper = variant == "hgd-fpn"
    config = config or FPN_CONFIGS[variant]
    input_hw = input_hw or (DETECTION_INPUT if paper else (tiny_run().input_size,) * 2)
    rows = list(fpn_baseline_spec(input_hw).layers) if paper else []
    grids = pyramid_grids(input_hw)
    stage_rows = _decoder_stage_rows if paper else _folded_stage_rows
    for stage in range(config.k_recurrence):
        rows += stage_rows(stage, grids, config)
    return ArchSpec(name=f"{variant}-k{config.k_recurrence}", layers=tuple(rows))


# ------------------------------------------------------------- toy mirror

def toy_seg_spec() -> ArchSpec:
    """The executable tiny segmentation stack (the toy backbone and
    tiny_run()'s decoder) layer for layer on the preset's images and
    classes, built from the same conv layout and decoder rows as the
    full-scale specs, so its analytic parameter total can be checked
    against the real parameter records exactly."""
    tiny = tiny_run()
    input_hw = (tiny.input_size,) * 2
    h, w = input_hw
    backbone = tiny_backbone_config()
    rows = []
    for i, (c_in, c_out, _) in enumerate(backbone_layout(backbone)):
        h, w = h // 2, w // 2
        rows.append(LayerSpec(f"backbone.conv{i + 1}", "conv", 3, c_in, c_out, h, w))
    rows += _decoder_rows(tiny.hgd, backbone.tap_channels, input_hw, tiny.num_classes)
    return ArchSpec(name="toy-seg", layers=tuple(rows))
