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
one-step max-pool downsamplings (p3->p4, p4->p5, p5->p6) and p7 upsampled
to the p6 grid, which a stage computes once. ops.nearest_resize and
ops.maxpool2x2 are an exact up/down pair between levels.

A stage's output p3 is its input p3 plus refined p4 upsampled. The
upsampling is constant on every 2x2 pooling window, clipped edge windows
included, and round-to-nearest fl(a + r) is monotone in a, so for a finite
r, maxpool2x2(p3 + up(r)) equals maxpool2x2(p3) + r bit for bit, NaN,
+-inf and signed zeros in p3 included (a non-finite r breaks it: -inf + inf
is NaN where pooling keeps inf). A later stage therefore takes its p3->p4
step as the previous stage's pooled p3 plus its refined p4
(Pyramid.pooled_p3), and a k-stage decode runs 7 + 6(k - 1) poolings, not
7k.

A k-stage decode's tape keeps what each stage's backward reads (see
hgd.ops): the fused levels and folded weights of the branch convs, the
maps and coefficients of the fusions, the pooling winners and the
attention softmax. Every other map is freed once the stage, its FpnTrace
and the pyramid it returned are dropped, the branch conv outputs and
each stage's output p3 among them. p3 adds refined p4 upsampled inside
ops.add_upsampled, so besides its input the output p3 is the stage's
only map on the p3 grid, and since no pooling reads a stage's output p3,
its gradient is the next stage's, not a copy.
"""

from dataclasses import dataclass, field

import numpy as np

from . import ops
from .decoder import generate_codewords
from .params import ConvParams, conv1x1_params
from .tensor import ConfigError, Tensor

# the five levels, finest first, as Pyramid fields and artifact names
LEVEL_NAMES = ("p3", "p4", "p5", "p6", "p7")


def level_grids(finest):
    """Five level grids (h, w) from the finest, each the last halved rounding up."""
    grids = [tuple(finest)]
    while len(grids) < 5:
        h, w = grids[-1]
        grids.append(((h + 1) // 2, (w + 1) // 2))
    return grids


@dataclass
class Pyramid:
    """Five feature maps, finest first, each half the size of the previous.

    A pyramid that fpn_decode_once_full returns also carries what its
    pooled_p3 needs: the stage's pooled input p3 and its refined p4.
    """

    p3: Tensor
    p4: Tensor
    p5: Tensor
    p6: Tensor
    p7: Tensor
    # (p3, maxpool2x2 of the stage's input p3, refined p4), set by the stage
    # that made this pyramid
    _p3_parts: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        maps = self.levels()
        channels = maps[0].dims[0]
        for name, level in zip(LEVEL_NAMES, maps):
            if len(level.dims) != 3:
                raise ConfigError(f"{name} must be rank 3, got dims {level.dims}")
            if level.dims[0] != channels:
                raise ConfigError(
                    f"pyramid channels differ: {name} has {level.dims[0]}, p3 has {channels}")
        for i, (eh, ew) in enumerate(level_grids(maps[0].dims[1:])[1:], 1):
            if maps[i].dims[1:] != (eh, ew):
                raise ConfigError(f"{LEVEL_NAMES[i]} must be {LEVEL_NAMES[i - 1]} "
                                  f"halved to ({eh},{ew}), got {maps[i].dims[1:]}")

    def levels(self):
        return (self.p3, self.p4, self.p5, self.p6, self.p7)

    def pooled_p3(self) -> Tensor:
        """maxpool2x2(p3), the p3->p4 step.

        For a pyramid a stage made, whose p3 is still the stage's
        add_upsampled(p3_in, r4), this is add(maxpool2x2(p3_in), r4), equal
        bit for bit when r4 is finite (see the module docstring), and formed
        only here, so a last stage builds nothing for it. A pyramid built by
        hand, or one whose refined p4 is not finite, pools p3.
        """
        if self._p3_parts is not None:
            p3, pooled, refined4 = self._p3_parts
            if p3 is self.p3 and np.isfinite(refined4.data).all():
                return ops.add(pooled, refined4)
        return ops.maxpool2x2(self.p3)

    @property
    def channels(self) -> int:
        return self.p3.dims[0]


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


@dataclass
class ScaleBranch:
    """Assembly head for one pyramid scale."""

    guidance: ConvParams
    assembly: ConvParams
    project: ConvParams

    def named(self, prefix: str):
        yield from self.guidance.named(f"{prefix}.guidance")
        yield from self.assembly.named(f"{prefix}.assembly")
        yield from self.project.named(f"{prefix}.project")


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
        yield from self.bases.named("bases")
        yield from self.weighting.named("weighting")
        yield from self.scale4.named("scale4")
        yield from self.scale5.named("scale5")
        yield from self.scale6.named("scale6")

    def branches(self):
        return (self.scale4, self.scale5, self.scale6)


def init_fpn_params(config: FpnConfig, rng, dtype=np.float64) -> FpnParams:
    ch = config.output_channels

    def branch():
        return ScaleBranch(
            guidance=conv1x1_params(ch, ch, rng, dtype),
            assembly=conv1x1_params(ch, config.n_codewords, rng, dtype),
            project=conv1x1_params(config.codeword_dim + ch, ch, rng, dtype))

    return FpnParams(
        config=config,
        coeffs=init_fusion_coeffs(dtype),
        bases=conv1x1_params(ch, config.codeword_dim, rng, dtype),
        weighting=conv1x1_params(ch, config.n_codewords, rng, dtype),
        scale4=branch(), scale5=branch(), scale6=branch())


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


def _up(x: Tensor, target: Tensor) -> Tensor:
    return ops.nearest_resize(x, target.dims[1], target.dims[2])


def fuse_code_map(pyramid: Pyramid, a: Tensor, steps, up7: Tensor) -> Tensor:
    """Weighted sum of all five levels on the second-coarsest grid.

    Coefficient order: up(p7), p6, down(p5), down^2(p4), down^3(p3).
    `a` is expected to be non-negative already (see activate_coeffs).
    `steps` are the one-step downsamplings (p3->p4, p4->p5, p5->p6) and
    `up7` is p7 upsampled to the p6 grid.
    """
    d34, d45, d56 = steps
    d4 = ops.maxpool2x2(d45)
    d3 = ops.maxpool2x2(ops.maxpool2x2(d34))
    return ops.weighted_sum(a, [up7, pyramid.p6, d56, d4, d3])


def fuse_scale_maps(pyramid: Pyramid, r: Tensor, s: Tensor, t: Tensor, steps, up7: Tensor):
    """Per-scale three-level fusions (coarser neighbor up, self, finer down).

    `steps` are the one-step downsamplings (p3->p4, p4->p5, p5->p6) and
    `up7` is p7 upsampled to the p6 grid.
    """
    _, p4, p5, p6, _ = pyramid.levels()
    d34, d45, d56 = steps
    m4 = ops.weighted_sum(r, [_up(p5, p4), p4, d34])
    m5 = ops.weighted_sum(s, [_up(p6, p5), p5, d45])
    m6 = ops.weighted_sum(t, [up7, p6, d56])
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
    3, since p3 adds refined[4] upsampled inside ops.add_upsampled."""

    m_code: Tensor
    attention: Tensor
    codewords: Tensor
    fused: dict
    refined: dict


def fpn_decode_once_full(pyramid: Pyramid, params: FpnParams):
    """One refinement pass; returns the new pyramid plus its intermediates
    (FpnTrace).

    The p3->p4 step is pyramid.pooled_p3(), and the new pyramid carries
    this stage's pooled p3 and refined p4 for the next stage's.
    """
    cfg = params.config
    if pyramid.channels != cfg.output_channels:
        raise ConfigError(
            f"residual add needs pyramid channels == output_channels: "
            f"{pyramid.channels} != {cfg.output_channels}")

    coeffs = activate_coeffs(params.coeffs)
    p3, p4, p5, p6, p7 = pyramid.levels()
    steps = (pyramid.pooled_p3(), ops.maxpool2x2(p4), ops.maxpool2x2(p5))
    up7 = _up(p7, p6)
    m_code = fuse_code_map(pyramid, coeffs.a, steps, up7)
    codewords, _, attention = generate_codewords(m_code, params)

    m4, m5, m6 = fuse_scale_maps(pyramid, coeffs.r, coeffs.s, coeffs.t, steps, up7)
    fused = {4: m4, 5: m5, 6: m6}
    refined = {}
    for level, branch in zip((4, 5, 6), params.branches()):
        refined[level] = ops.conv1x1(fused[level], *fold_branch(branch, codewords))
    refined[7] = ops.maxpool2x2(refined[6])

    out = Pyramid(ops.add_upsampled(p3, refined[4]),
                  *[ops.add(level, refined[idx])
                    for idx, level in zip(range(4, 8), pyramid.levels()[1:])])
    out._p3_parts = (out.p3, steps[0], refined[4])
    return out, FpnTrace(m_code=m_code, attention=attention, codewords=codewords,
                         fused=fused, refined=refined)


def fpn_decode_once(pyramid: Pyramid, params: FpnParams) -> Pyramid:
    out, _ = fpn_decode_once_full(pyramid, params)
    return out


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

    The result holds the last stage's levels only: not its pooled p3 and
    refined p4, which only a further stage would read, so a caller that
    keeps the result keeps no more than the levels (a further stage pools
    its p3)."""
    out = pyramid
    for stage_params in fpn_stages(params):
        out = fpn_decode_once(out, stage_params)
    return Pyramid(*out.levels())
