"""Pyramid decoder with shared holistic codewords.

Works on a five-level feature pyramid with a constant channel width and a
2x spatial step between levels. One codeword set is computed from a fused
coarse map and re-assembled at three intermediate scales, each with its
own guidance and assembly branch; the outermost levels are produced by
resampling their neighbors, and everything is merged back residually, so
the decoder refines the pyramid rather than replacing it.

The level fusion weights are learned scalars passed through a ReLU, so
the effective combination is non-negative but otherwise unconstrained.
The decoder can be applied repeatedly; with shared parameters the stack
size does not change the parameter count.

A stage runs the segmentation decoder's own codeword generation
(generate_codewords). In the paper's form each scale branch then stacks the
assembled map on its guidance map G and a 1x1 conv projects [assembled; G]
back to the pyramid width. Every step of that branch is affine in the fused
level m, so a stage runs each branch as the one map it equals, A m + beta
(fold_branch): one ch x ch conv per scale in place of three convs, the
codeword product and the stack. A and beta are formed on the tape once per
branch per stage, so every branch parameter and the codewords get their
gradients through them. The map sums in another order than the stack form,
so the two agree to roundoff, not bit for bit. Both fusers take the
one-step max-pool downsamplings (p3->p4, p4->p5, p5->p6), which a stage
computes once. Each fusion is one ops.upsampled_weighted_sum that takes its
coarser neighbor (p5, p6 or p7) on that level's own grid and upsamples it
inside, so the tape keeps the coarse level and not a 4x copy of it; p7
feeds two fusions, the code map's and m6. The nearest upsampling and
ops.maxpool2x2 are an exact up/down pair between levels.

A decode hands one DecodeState from stage to stage. No stage reads p3,
only its pooling. The upsampling is constant on every 2x2 pooling window,
clipped edge windows included, and round-to-nearest fl(a + r) is monotone
in a, so for a finite r, maxpool2x2(p3 + up(r)) equals maxpool2x2(p3) + r
bit for bit, NaN, +-inf and signed zeros in p3 included (a non-finite r
breaks it: -inf + inf is NaN where pooling keeps inf). A later stage
therefore takes its p3->p4 step as the previous stage's pooled p3 plus its
refined p4 (DecodeState.step), and a k-stage decode runs 7 + 6(k - 1)
poolings, not 7k. Nor does a stage form p3: the state carries the input p3
and the stages' refined p4 summed on the p4 grid, and forms p3 as
ops.add_upsampled(p3_in, total) when read, which fpn_decode does once.
Summing before upsampling rounds otherwise than adding each refined p4
upsampled in turn, as a chain of fpn_decode_once (Pyramid to Pyramid)
does, so the two p3 agree to roundoff; their p4-p7 are equal bit for bit.

A k-stage decode's tape keeps what each stage's backward reads (see
hgd.ops): the fused levels and folded weights of the branch convs, the
maps, coarse levels and coefficients of the fusions, the pooling winners
and the attention softmax. Stage 1's six poolings that read only the
input levels (the one-step poolings of p3, p4 and p5, and the three that
pool those further for the code map) keep nothing when the input needs no
grad: maxpool2x2 then forms no winners and no closure, so a k=4 decode
keeps winners for 19 of its 25 poolings. Every other map is freed once the
stage, its FpnTrace and the state it returned are dropped, the branch
conv outputs among them. The adds that sum the refined p4 keep nothing, so
besides its input the decode's only map on the p3 grid is its output p3,
and its backward pair-sums that p3's gradient once, for the sum, whose
adds hand it to every stage's refined p4 as it is.
"""

from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from . import ops
from .decoder import generate_codewords
from .params import ConvParams, conv1x1_params
from .tensor import ConfigError, Tensor

# the five levels, finest first, as Pyramid fields and artifact names
LEVEL_NAMES = ("p3", "p4", "p5", "p6", "p7")
# the levels with a scale branch (FpnParams.scale4..6), finest first
SCALE_LEVELS = (4, 5, 6)


def level_grids(finest):
    """Five level grids (h, w) from the finest, each the last halved rounding up."""
    grids = [tuple(finest)]
    while len(grids) < 5:
        h, w = grids[-1]
        grids.append(((h + 1) // 2, (w + 1) // 2))
    return grids


def pyramid_grids(input_hw):
    """An input image's level grids by level, 3 to 7: p3 is the input at
    stride 4 (halved twice, rounding up), and level_grids gives the rest."""
    return dict(zip(range(3, 8), level_grids(level_grids(input_hw)[2])))


@dataclass
class Pyramid:
    """Five feature maps, finest first, each half the size of the previous."""

    p3: Tensor
    p4: Tensor
    p5: Tensor
    p6: Tensor
    p7: Tensor

    def __post_init__(self):
        maps = self.levels()
        for name, level in zip(LEVEL_NAMES, maps):
            if len(level.dims) != 3:
                raise ConfigError(f"{name} must be rank 3, got dims {level.dims}")
            if 0 in level.dims:
                raise ConfigError(f"{name} must have no zero extent, got dims {level.dims}")
        channels = maps[0].dims[0]
        for name, level in zip(LEVEL_NAMES, maps):
            if level.dims[0] != channels:
                raise ConfigError(
                    f"pyramid channels differ: {name} has {level.dims[0]}, p3 has {channels}")
        for i, (eh, ew) in enumerate(level_grids(maps[0].dims[1:])[1:], 1):
            if maps[i].dims[1:] != (eh, ew):
                raise ConfigError(f"{LEVEL_NAMES[i]} must be {LEVEL_NAMES[i - 1]} "
                                  f"halved to ({eh},{ew}), got {maps[i].dims[1:]}")

    def levels(self):
        return (self.p3, self.p4, self.p5, self.p6, self.p7)


@dataclass(frozen=True)
class DecodeState:
    """What a stage hands the next: the input p3, p4-p7 and, from a stage,
    the refined p4 of the stages so far summed (total), and the stage's
    p3->p4 step (pooled) and refined p4 (refined4)."""

    p3_in: Tensor
    p4: Tensor
    p5: Tensor
    p6: Tensor
    p7: Tensor
    total: Tensor = None
    pooled: Tensor = None
    refined4: Tensor = None

    @classmethod
    def of(cls, pyramid: Pyramid) -> "DecodeState":
        return cls(*pyramid.levels())

    @cached_property
    def p3(self) -> Tensor:
        if self.total is None:
            return self.p3_in
        return ops.add_upsampled(self.p3_in, self.total)

    def step(self) -> Tensor:
        """The p3->p4 step: add(pooled, refined4) when refined4 is finite,
        the chain's pooled p3 bit for bit, else maxpool2x2(p3)."""
        if self.pooled is not None and np.isfinite(self.refined4.data).all():
            return ops.add(self.pooled, self.refined4)
        return ops.maxpool2x2(self.p3)

    def pyramid(self) -> Pyramid:
        return Pyramid(self.p3, self.p4, self.p5, self.p6, self.p7)


@dataclass
class FusionCoeffs:
    """Learned per-level fusion scalars: 5 for the codeword map, 3 per scale."""

    a: Tensor
    r: Tensor
    s: Tensor
    t: Tensor

    def named(self, prefix: str):
        for name in FUSION_LENGTHS:
            yield f"{prefix}.{name}", getattr(self, name)


# each FusionCoeffs field, in order, and its length: named(), activate_coeffs,
# init_fusion_coeffs and the cost model all read them here
FUSION_LENGTHS = {"a": 5, "r": 3, "s": 3, "t": 3}


def init_fusion_coeffs(dtype=np.float64) -> FusionCoeffs:
    return FusionCoeffs(**{name: Tensor(np.ones(k, dtype=dtype), requires_grad=True)
                           for name, k in FUSION_LENGTHS.items()})


@dataclass(frozen=True)
class FpnConfig:
    n_codewords: int = 128
    codeword_dim: int = 512
    k_recurrence: int = 4
    share_params: bool = True
    output_channels: int = 256

    def __post_init__(self):
        if self.k_recurrence < 1:
            raise ConfigError(f"k_recurrence must be >= 1, got {self.k_recurrence}")
        for field in ("n_codewords", "codeword_dim", "output_channels"):
            if getattr(self, field) < 1:
                raise ConfigError(f"{field} must be positive, got {getattr(self, field)}")


def tiny_fpn_config() -> FpnConfig:
    return FpnConfig(n_codewords=4, codeword_dim=8, k_recurrence=2,
                     share_params=True, output_channels=8)


def fpn_layout(config: FpnConfig):
    """The pyramid decoder's 1x1 convs, path in FpnParams -> (c_in, c_out),
    in init order; parameter names and cost rows read it too."""
    ch, n, c = config.output_channels, config.n_codewords, config.codeword_dim
    branch = {"guidance": (ch, ch), "assembly": (ch, n), "project": (c + ch, ch)}
    return {"bases": (ch, c), "weighting": (ch, n),
            **{f"scale{level}.{part}": widths
               for level in SCALE_LEVELS for part, widths in branch.items()}}


@dataclass
class ScaleBranch:
    """Assembly head for one pyramid scale."""

    guidance: ConvParams
    assembly: ConvParams
    project: ConvParams


@dataclass
class FpnParams:
    config: FpnConfig
    coeffs: FusionCoeffs
    bases: ConvParams
    weighting: ConvParams
    scale4: ScaleBranch
    scale5: ScaleBranch
    scale6: ScaleBranch

    def named_parameters(self):
        yield from self.coeffs.named("coeffs")
        for name in fpn_layout(self.config):
            yield from reduce(getattr, name.split("."), self).named(name)

    def branches(self):
        return (self.scale4, self.scale5, self.scale6)


def init_fpn_params(config: FpnConfig, rng, dtype=np.float64) -> FpnParams:
    """A record whose convs are drawn in fpn_layout's order, each set at its path."""
    params = FpnParams(config, init_fusion_coeffs(dtype), None, None,
                       *(ScaleBranch(None, None, None) for _ in SCALE_LEVELS))
    for name, (c_in, c_out) in fpn_layout(config).items():
        *path, field_name = name.split(".")
        setattr(reduce(getattr, path, params), field_name, conv1x1_params(c_in, c_out, rng, dtype))
    return params


def init_fpn_stack(config: FpnConfig, rng, dtype=np.float64):
    """One record every stage reuses with share_params, else k independent ones."""
    if config.share_params:
        return init_fpn_params(config, rng, dtype)
    return tuple(init_fpn_params(config, rng, dtype)
                 for _ in range(config.k_recurrence))


# ------------------------------------------------------------------ fusion

def activate_coeffs(raw: FusionCoeffs) -> FusionCoeffs:
    """ReLU the raw fusion scalars."""
    return FusionCoeffs(**{name: ops.relu(getattr(raw, name)) for name in FUSION_LENGTHS})


def fuse_code_map(state: DecodeState, a: Tensor, steps) -> Tensor:
    """Weighted sum of all five levels on the second-coarsest grid.

    Coefficient order: up(p7), p6, down(p5), down^2(p4), down^3(p3).
    `a` is expected to be non-negative already (see activate_coeffs).
    `steps` are the one-step downsamplings (p3->p4, p4->p5, p5->p6); p7 is
    upsampled inside ops.upsampled_weighted_sum. Of `state` (a Pyramid
    serves too) only p6 and p7 are read.
    """
    d34, d45, d56 = steps
    d4 = ops.maxpool2x2(d45)
    d3 = ops.maxpool2x2(ops.maxpool2x2(d34))
    return ops.upsampled_weighted_sum(a, state.p7, [state.p6, d56, d4, d3])


def fuse_scale_maps(state: DecodeState, r: Tensor, s: Tensor, t: Tensor, steps):
    """Per-scale three-level fusions (coarser neighbor up, self, finer down).

    `steps` are the one-step downsamplings (p3->p4, p4->p5, p5->p6); each
    coarser neighbor is upsampled inside ops.upsampled_weighted_sum. Of
    `state` (a Pyramid serves too) only p4-p7 are read.
    """
    p4, p5, p6, p7 = state.p4, state.p5, state.p6, state.p7
    d34, d45, d56 = steps
    m4 = ops.upsampled_weighted_sum(r, p5, [p4, d34])
    m5 = ops.upsampled_weighted_sum(s, p6, [p5, d45])
    m6 = ops.upsampled_weighted_sum(t, p7, [p6, d56])
    return m4, m5, m6


# ------------------------------------------------------------------ decode

def _matvec(a: Tensor, v: Tensor) -> Tensor:
    return ops.reshape(ops.matmul(a, ops.reshape(v, (v.dims[0], 1))), (a.dims[0],))


def fold_branch(branch: ScaleBranch, codewords: Tensor):
    """The branch as one affine map (A, beta) of its fused level m.

    With G = W_g m + b_g, coeffs = W_as G + b_as, assembled = C coeffs and
    the projection's weight split after the codeword rows, [W_pa | W_pg],
    the branch output W_pa assembled + W_pg G + b_p equals A m + beta for
    M = W_pa C W_as + W_pg, A = M W_g and beta = M b_g + W_pa C b_as + b_p.
    """
    dim = codewords.dims[0]
    project = branch.project.weight
    pc = ops.matmul(ops.columns(project, 0, dim), codewords)
    m = ops.add(ops.matmul(pc, branch.assembly.weight),
                ops.columns(project, dim, project.dims[1]))
    beta = ops.add(ops.add(_matvec(m, branch.guidance.bias), _matvec(pc, branch.assembly.bias)),
                   branch.project.bias)
    return ops.matmul(m, branch.guidance.weight), beta


@dataclass
class FpnTrace:
    """A stage's intermediates: `fused` and `refined` are keyed by level;
    `refined` holds the branch outputs 4-6 and their pooling 7, and has no
    3, since p3 is formed from the input p3 and the summed refined[4]."""

    m_code: Tensor
    attention: Tensor
    codewords: Tensor
    fused: dict
    refined: dict


def fpn_decode_once_full(state: DecodeState, params: FpnParams):
    """One refinement pass: the state the next stage starts from, whose p3
    is formed only when read, and this stage's intermediates (FpnTrace).
    The p3->p4 step is state.step()."""
    cfg = params.config
    channels = state.p4.dims[0]
    if channels != cfg.output_channels:
        raise ConfigError(
            f"residual add needs pyramid channels == output_channels: "
            f"{channels} != {cfg.output_channels}")

    coeffs = activate_coeffs(params.coeffs)
    coarse = (state.p4, state.p5, state.p6, state.p7)
    steps = (state.step(), ops.maxpool2x2(coarse[0]), ops.maxpool2x2(coarse[1]))
    m_code = fuse_code_map(state, coeffs.a, steps)
    codewords, _, attention = generate_codewords(m_code, params)

    fused = fuse_scale_maps(state, coeffs.r, coeffs.s, coeffs.t, steps)
    refined = {level: ops.conv1x1(m, *fold_branch(branch, codewords))
               for level, m, branch in zip(SCALE_LEVELS, fused, params.branches())}
    refined[7] = ops.maxpool2x2(refined[6])

    total = refined[4] if state.total is None else ops.add(state.total, refined[4])
    out = DecodeState(state.p3_in,
                      *[ops.add(level, refined[idx]) for idx, level in zip(range(4, 8), coarse)],
                      total=total, pooled=steps[0], refined4=refined[4])
    return out, FpnTrace(m_code=m_code, attention=attention, codewords=codewords,
                         fused=dict(zip(SCALE_LEVELS, fused)), refined=refined)


def fpn_decode_once(pyramid: Pyramid, params: FpnParams) -> Pyramid:
    """One stage from a pyramid to a pyramid; its p3 is formed here."""
    return fpn_decode_once_full(DecodeState.of(pyramid), params)[0].pyramid()


def fpn_stages(params) -> list:
    """The record of each decode stage: `params` is one record with
    share_params, else a sequence of exactly k (the form init_fpn_stack
    builds); k and the sharing mode come from the (first) record's config."""
    if isinstance(params, FpnParams):
        if not params.config.share_params:
            raise ConfigError("share_params=False expects one parameter record per stage")
        return [params] * params.config.k_recurrence
    stages = list(params)
    if not stages:
        raise ConfigError("expected one parameter record per stage, got none")
    if stages[0].config.share_params:
        raise ConfigError("share_params=True expects a single parameter record")
    if len(stages) != stages[0].config.k_recurrence:
        raise ConfigError(
            f"expected {stages[0].config.k_recurrence} stage records, got {len(stages)}")
    return stages


def fpn_decode(pyramid: Pyramid, params) -> Pyramid:
    """Apply the decoder k times (see fpn_stages for the form of `params`).

    Each stage hands the next a DecodeState; the result's p3 is formed
    once, from the input p3 and the stages' summed refined p4 (see the
    module docstring). A stage's trace is dropped as soon as it returns."""
    state = DecodeState.of(pyramid)
    for stage_params in fpn_stages(params):
        state = fpn_decode_once_full(state, stage_params)[0]
    return state.pyramid()
