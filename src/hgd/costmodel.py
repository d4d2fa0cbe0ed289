"""Analytic multiply-accumulate and parameter counts for whole networks.

Counts are produced from layer descriptions alone, no tensors are ever
allocated. Conventions, documented once here:

- one multiply-accumulate (MAC) is counted as one FLOP;
- convolutions dominate: resizes, pooling, activations, concatenation,
  and elementwise arithmetic are counted as zero MACs;
- a convolution with kernel k, c_in -> c_out on an h x w output grid
  costs k^2*c_in*c_out*h*w MACs and k^2*c_in*c_out + c_out parameters
  (bias included); dilation changes the output grid a variant runs at,
  never the parameter count;
- the codeword assembly matmul costs c_in*c_out*h*w MACs and owns no
  parameters; learned fusion scalars are a zero-MAC layer kind with an
  explicit parameter count;
- fully connected layers are 1x1 convolutions on a 1x1 grid, with the
  row count (e.g. detection proposals) folded into the grid height.

Detection-scale figures assume an 800x1333 input padded up to 896x1408
(multiples of the coarsest stride); that assumption is loose, so only
relative quantities (per-stage increments, ratios) should be read
tightly from those rows.
"""

from dataclasses import dataclass, replace

from .config import tiny_run
from .decoder import HgdConfig
from .efficientfcn import ToyBackboneConfig, backbone_layout
from .fpn import FUSION_LENGTHS, FpnConfig, level_grids
from .tensor import ConfigError

SEG_INPUT = (512, 512)
SEG_CLASSES = 60
DETECTION_INPUT = (896, 1408)
DETECTION_CLASSES = 81
PROPOSALS = 1000


@dataclass(frozen=True)
class LayerSpec:
    name: str
    kind: str
    kernel: int = 1
    c_in: int = 0
    c_out: int = 0
    out_h: int = 0
    out_w: int = 0
    param_count: int = 0   # used by the "coeffs" kind only
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
    if spec.kind == "assembly":
        return spec.c_in * spec.c_out * spec.out_h * spec.out_w, 0
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
    """Bottleneck-stage backbone; returns (rows, tap grids by output stride)."""
    if depth not in _RESNET_BLOCKS:
        raise ConfigError(f"unsupported resnet depth {depth}")
    h, w = input_hw
    if h % 32 or w % 32:
        raise ConfigError(f"input dims must be divisible by 32, got {input_hw}")
    blocks = _RESNET_BLOCKS[depth]

    rows = [LayerSpec("backbone.conv1", "conv", 7, 3, 64, h // 2, w // 2),
            LayerSpec("backbone.maxpool", "pool", out_h=h // 4, out_w=w // 4)]

    if dilated_last_two:
        strides = (4, 8, 8, 8)      # last two stages hold at stride 8
    else:
        strides = (4, 8, 16, 32)
    in_strides = (4, 4, strides[1], strides[2])

    grids = {}
    c_in = 64
    for idx, (count, stride, in_stride) in enumerate(zip(blocks, strides, in_strides)):
        stage = idx + 2
        mid = 64 * 2 ** idx
        c_out = 256 * 2 ** idx
        out_hw = (h // stride, w // stride)
        first_in_hw = (h // in_stride, w // in_stride)
        for b in range(count):
            name = f"backbone.stage{stage}.block{b:02d}"
            if b == 0:
                _bottleneck(rows, name, c_in, mid, c_out, first_in_hw, out_hw, True)
            else:
                _bottleneck(rows, name, c_out, mid, c_out, out_hw, out_hw, False)
        c_in = c_out
        grids[stage] = out_hw
    return rows, grids


def resnet_spec(depth, input_hw=SEG_INPUT, dilated_last_two=False,
                include_head=True) -> ArchSpec:
    """Bottleneck backbone, optionally with the plain two-conv dense head.

    The headed variant is what the reference GFLOP totals describe; the
    bare backbone is exposed separately for transparency.
    """
    rows, grids = _resnet_rows(depth, input_hw, dilated_last_two)
    variant = "dilated" if dilated_last_two else "standard"
    name = f"resnet{depth}-{variant}"
    if include_head:
        gh, gw = grids[5]
        rows += [LayerSpec("head.conv1", "conv", 3, 2048, 512, gh, gw),
                 LayerSpec("head.conv2", "conv", 3, 512, 512, gh, gw),
                 LayerSpec("head.classifier", "conv", 1, 512, SEG_CLASSES, gh, gw),
                 LayerSpec("head.upsample", "resize", out_h=input_hw[0], out_w=input_hw[1])]
    else:
        name += "-backbone"
    return ArchSpec(name=name, layers=tuple(rows))


# ------------------------------------------------------------ segmentation

def _with(config, **fields):
    """`config` with every field that is not None replaced (and re-checked)."""
    return replace(config, **{k: v for k, v in fields.items() if v is not None})


def _decoder_rows(config: HgdConfig, tap_channels, input_hw, num_classes, refined=False):
    """Codeword decoder and classifier rows, in forward order, on the
    stride-8/16/32 taps of the given widths (`refined`: see efficientfcn_spec)."""
    h, w = input_hw
    grids = [(h // s, w // s) for s in (8, 16, 32)]
    g8, g32 = grids[0], grids[2]
    comp, n, c = config.compressed_channels, config.n_codewords, config.codeword_dim
    guid = config.guidance_channels
    rows = []
    for os_, ch, grid in zip((8, 16, 32), tap_channels, grids):
        rows.append(LayerSpec(f"decoder.compress{os_}", "conv", 1, ch, comp, *grid))
        if refined:
            rows.append(LayerSpec(f"decoder.refine{os_}", "conv", 3, comp, comp, *grid))
    code_in = len(config.fused_scales) * comp
    rows += [
        LayerSpec("decoder.resample_to_coarse", "resize", out_h=g32[0], out_w=g32[1]),
        LayerSpec("decoder.concat_coarse", "elementwise"),
        LayerSpec("decoder.bases", "conv", 1, code_in, c, *g32),
        LayerSpec("decoder.weighting", "conv", 1, code_in, n, *g32),
        LayerSpec("decoder.attention_softmax", "elementwise"),
        LayerSpec("decoder.codeword_matmul", "assembly", c_in=c, c_out=n,
                  out_h=g32[0], out_w=g32[1]),
        LayerSpec("decoder.resample_to_fine", "resize", out_h=g8[0], out_w=g8[1]),
        LayerSpec("decoder.concat_fine", "elementwise"),
        LayerSpec("decoder.guidance", "conv", 1, 3 * comp, guid, *g8),
    ]
    if config.transfer_enabled:
        # the decoder folds the add into the assembly conv's shift; the
        # shift's W mean(B) is per-channel work like the bias
        rows.append(LayerSpec("decoder.transfer_add", "elementwise"))
    rows += [
        LayerSpec("decoder.assembly_conv", "conv", 1, guid, n, *g8),
        LayerSpec("decoder.assembly_matmul", "assembly", c_in=c, c_out=n,
                  out_h=g8[0], out_w=g8[1]),
        LayerSpec("decoder.concat_output", "elementwise"),
        LayerSpec("decoder.classifier", "conv", 1, c + guid, num_classes, *g8),
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
    rows, _ = _resnet_rows(101, input_hw, False)
    rows += _decoder_rows(config, (512, 1024, 2048), input_hw, SEG_CLASSES, refined)
    return ArchSpec(name=f"efficientfcn-n{config.n_codewords}", layers=tuple(rows))


def unet_spec(input_hw=SEG_INPUT) -> ArchSpec:
    """Reference two-merge encoder-decoder with bilinear upsampling on the
    same backbone (no tolerance is claimed for this reconstruction)."""
    rows, grids = _resnet_rows(101, input_hw, False)
    g16, g8 = grids[4], grids[3]
    rows += [LayerSpec("decoder.up1", "resize", out_h=g16[0], out_w=g16[1]),
             LayerSpec("decoder.concat1", "elementwise"),
             LayerSpec("decoder.merge1", "conv", 3, 2048 + 1024, 1024, *g16),
             LayerSpec("decoder.up2", "resize", out_h=g8[0], out_w=g8[1]),
             LayerSpec("decoder.concat2", "elementwise"),
             LayerSpec("decoder.merge2", "conv", 3, 1024 + 512, 512, *g8),
             LayerSpec("decoder.classifier", "conv", 1, 512, SEG_CLASSES, *g8),
             LayerSpec("decoder.upsample", "resize", out_h=input_hw[0], out_w=input_hw[1])]
    return ArchSpec(name="unet-bilinear", layers=tuple(rows))


# --------------------------------------------------------------- detection

def _pyramid_grids(input_hw):
    """Level grids at output strides 4..64, ceil division per halving."""
    return dict(zip(range(3, 8), level_grids(level_grids(input_hw)[2])))


def fpn_baseline_spec(input_hw=DETECTION_INPUT) -> ArchSpec:
    """Two-stage detector with a lateral pyramid (no tolerance claimed)."""
    rows, _ = _resnet_rows(50, input_hw, False)
    grids = _pyramid_grids(input_hw)
    laterals = {3: 256, 4: 512, 5: 1024, 6: 2048}
    for level, c_in in laterals.items():
        rows.append(LayerSpec(f"neck.lateral_p{level}", "conv", 1, c_in, 256,
                              *grids[level]))
    for level in (3, 4, 5, 6):
        rows.append(LayerSpec(f"neck.smooth_p{level}", "conv", 3, 256, 256,
                              *grids[level]))
    rows.append(LayerSpec("neck.p7_pool", "pool", out_h=grids[7][0], out_w=grids[7][1]))
    for level in range(3, 8):
        rows.append(LayerSpec(f"rpn.conv_p{level}", "conv", 3, 256, 256,
                              *grids[level], tied=level > 3))
        rows.append(LayerSpec(f"rpn.head_p{level}", "conv", 1, 256, 18,
                              *grids[level], tied=level > 3))
    rows += [LayerSpec("roi.pool", "pool", out_h=7, out_w=7),
             LayerSpec("roi.fc1", "conv", 1, 256 * 7 * 7, 1024, PROPOSALS, 1),
             LayerSpec("roi.fc2", "conv", 1, 1024, 1024, PROPOSALS, 1),
             LayerSpec("roi.cls", "conv", 1, 1024, DETECTION_CLASSES, PROPOSALS, 1),
             LayerSpec("roi.reg", "conv", 1, 1024, 4 * (DETECTION_CLASSES - 1), PROPOSALS, 1)]
    return ArchSpec(name="fpn-baseline", layers=tuple(rows))


def _decoder_stage_rows(stage, grids, config: FpnConfig, full):
    """One pyramid-decoder stage. `full` uses 3x3 convs plus one smoothing
    conv per fused scale map; otherwise 1x1 convs and no smoothing. Shared
    parameters count once, at stage 0."""
    p = f"stage{stage}"
    kernel = 3 if full else 1
    channels, n, c = config.output_channels, config.n_codewords, config.codeword_dim
    tied = config.share_params and stage > 0
    rows = [LayerSpec(f"{p}.fusion_coeffs", "coeffs",
                      param_count=sum(FUSION_LENGTHS.values()), tied=tied)]
    code = grids[6]
    rows.append(LayerSpec(f"{p}.code_resample", "resize", out_h=code[0], out_w=code[1]))
    rows.append(LayerSpec(f"{p}.bases", "conv", kernel, channels, c, *code, tied=tied))
    rows.append(LayerSpec(f"{p}.weighting", "conv", kernel, channels, n, *code, tied=tied))
    rows.append(LayerSpec(f"{p}.codeword_matmul", "assembly", c_in=c, c_out=n,
                          out_h=code[0], out_w=code[1]))
    for level in (4, 5, 6):
        g = grids[level]
        q = f"{p}.scale{level}"
        rows.append(LayerSpec(f"{q}.fuse", "elementwise"))
        if full:
            rows.append(LayerSpec(f"{q}.smooth", "conv", 3, channels, channels, *g,
                                  tied=tied))
        rows.append(LayerSpec(f"{q}.guidance", "conv", kernel, channels, channels, *g,
                              tied=tied))
        rows.append(LayerSpec(f"{q}.assembly_conv", "conv", kernel, channels, n, *g,
                              tied=tied))
        rows.append(LayerSpec(f"{q}.assembly_matmul", "assembly", c_in=c, c_out=n,
                              out_h=g[0], out_w=g[1]))
        rows.append(LayerSpec(f"{q}.project", "conv", kernel, c + channels, channels,
                              *g, tied=tied))
    rows.append(LayerSpec(f"{p}.p3_upsample", "resize", out_h=grids[3][0],
                          out_w=grids[3][1]))
    rows.append(LayerSpec(f"{p}.p7_pool", "pool", out_h=grids[7][0], out_w=grids[7][1]))
    rows.append(LayerSpec(f"{p}.residual_add", "elementwise"))
    return rows


def fpn_spec(variant, n=None, c=None, k=None, input_hw=None,
             share_params=True) -> ArchSpec:
    """Pyramid decoder cost specs for the "hgd-fpn" and "hgd-fpn-toy"
    variants (the baseline detector alone is fpn_baseline_spec).

    hgd-fpn: full-scale stages on top of the baseline detector, widths
    from FpnConfig(). hgd-fpn-toy: decoder stages alone, the same stage
    builder at tiny_run()'s widths and pyramid size. Both count each scale
    branch in the paper's stack form (guidance, assembly conv, assembly
    matmul, projection of [assembled; G]), while the live pyramid decoder
    (hgd.fpn) runs the folded form, one ch x ch conv per scale plus a
    per-stage product of small matrices. So the toy rows hold the live
    decoder's parameters exactly, not its MACs. Both run
    FpnConfig().k_recurrence stages unless `k` is given.
    """
    if variant == "hgd-fpn":
        input_hw = input_hw or DETECTION_INPUT
        rows = list(fpn_baseline_spec(input_hw).layers)
        grids = _pyramid_grids(input_hw)
        config = FpnConfig()
    elif variant == "hgd-fpn-toy":
        tiny = tiny_run()
        input_hw = input_hw or (tiny.input_size // 4,) * 2
        rows = []
        # toy pyramid levels run from the input size down, not from stride 4
        grids = dict(zip(range(3, 8), level_grids(input_hw)))
        config = tiny.fpn
    else:
        raise ConfigError(f"unknown fpn variant {variant!r}")
    config = _with(config, n_codewords=n, codeword_dim=c,
                   k_recurrence=FpnConfig().k_recurrence if k is None else k,
                   share_params=share_params)
    for stage in range(config.k_recurrence):
        rows += _decoder_stage_rows(stage, grids, config, full=variant == "hgd-fpn")
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
    backbone = ToyBackboneConfig()
    rows = []
    for i, (c_in, c_out, _) in enumerate(backbone_layout(backbone)):
        h, w = h // 2, w // 2
        rows.append(LayerSpec(f"backbone.conv{i + 1}", "conv", 3, c_in, c_out, h, w))
    rows += _decoder_rows(tiny.hgd, backbone.tap_channels, input_hw, tiny.num_classes)
    return ArchSpec(name="toy-seg", layers=tuple(rows))
