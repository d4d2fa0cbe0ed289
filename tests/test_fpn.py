import copy
import dataclasses
from functools import reduce

import numpy as np
import pytest

from hgd import fpn as fpn_module
from hgd import ops
from hgd.decoder import ConfigError
from hgd.fpn import (DecodeState, FpnConfig, FusionCoeffs, Pyramid, activate_coeffs,
                     fpn_decode, fpn_decode_once, fpn_decode_once_full,
                     fuse_code_map, fuse_scale_maps, init_fpn_params,
                     init_fpn_stack, init_fusion_coeffs, tiny_fpn_config)
from hgd.gradcheck import gradcheck
from hgd.params import parameter_count
from hgd.tensor import ComputeGraph, Tensor


def chain_dims(h, w, levels=5):
    out = [(h, w)]
    for _ in range(levels - 1):
        h, w = (h + 1) // 2, (w + 1) // 2
        out.append((h, w))
    return out


def rand_pyramid(rng, channels=8, h=16, w=16, requires_grad=False):
    maps = [Tensor(rng.standard_normal((channels, lh, lw)), requires_grad=requires_grad)
            for lh, lw in chain_dims(h, w)]
    return Pyramid(*maps)


def vec(values):
    return Tensor(np.asarray(values, dtype=np.float64))


# ------------------------------------------------------- independent oracles

def nearest_up_oracle(x, oh, ow):
    c, ih, iw = x.shape
    out = np.empty((c, oh, ow), dtype=x.dtype)
    for y in range(oh):
        for q in range(ow):
            out[:, y, q] = x[:, y * ih // oh, q * iw // ow]
    return out


def maxpool_oracle(x, oh, ow):
    c, ih, iw = x.shape
    out = np.empty((c, oh, ow), dtype=x.dtype)
    for y in range(oh):
        for q in range(ow):
            out[:, y, q] = x[:, 2 * y:min(2 * y + 2, ih),
                             2 * q:min(2 * q + 2, iw)].max(axis=(1, 2))
    return out


def to_grid(x, oh, ow):
    if x.shape[1] < oh:
        return nearest_up_oracle(x, oh, ow)
    cur = x
    while cur.shape[1] > oh:
        nh = (cur.shape[1] + 1) // 2
        nw = (cur.shape[2] + 1) // 2
        cur = maxpool_oracle(cur, nh, nw)
    assert cur.shape[1:] == (oh, ow)
    return cur


def one_steps(pyr):
    """The one-step downsamplings p3->p4, p4->p5, p5->p6 the fusers take."""
    return tuple(ops.maxpool2x2(x) for x in pyr.levels()[:3])


# --------------------------------------------------------------- structure

def test_pyramid_rejects_wrong_level_ratio():
    rng = np.random.default_rng(0)
    maps = [Tensor(rng.standard_normal((4, h, w)))
            for h, w in [(16, 16), (8, 8), (4, 4), (2, 2), (2, 2)]]
    with pytest.raises(ConfigError, match="halved"):
        Pyramid(*maps)


def test_pyramid_rejects_channel_mismatch():
    rng = np.random.default_rng(0)
    dims = chain_dims(16, 16)
    maps = [Tensor(rng.standard_normal((4, h, w))) for h, w in dims[:-1]]
    maps.append(Tensor(rng.standard_normal((5,) + dims[-1])))
    with pytest.raises(ConfigError, match="channels"):
        Pyramid(*maps)


@pytest.mark.parametrize("level", [0, 2], ids=["p3", "p5"])
def test_pyramid_checks_each_levels_rank_first(level):
    # a rank-0 level has no channel count to compare
    dims = [(4, h, w) for h, w in chain_dims(16, 16)]
    maps = [Tensor(np.zeros(d)) for d in dims]
    maps[level] = Tensor(np.float64(1.0))
    with pytest.raises(ConfigError, match=f"{fpn_module.LEVEL_NAMES[level]} must be rank 3"):
        Pyramid(*maps)


@pytest.mark.parametrize("dims", [(4, 0, 0), (4, 0, 16), (0, 16, 16)],
                         ids=["0x0", "0-rows", "0-channels"])
def test_pyramid_refuses_zero_extent_levels(dims):
    c, h, w = dims
    maps = [Tensor(np.zeros((c, lh, lw))) for lh, lw in chain_dims(h, w)]
    with pytest.raises(ConfigError, match="p3 must have no zero extent"):
        Pyramid(*maps)


def test_pyramid_accepts_odd_sizes():
    rng = np.random.default_rng(1)
    pyr = rand_pyramid(rng, channels=3, h=25, w=38)
    assert pyr.p7.dims == (3, 2, 3)


def test_config_validation():
    with pytest.raises(ConfigError):
        FpnConfig(k_recurrence=0)
    with pytest.raises(ConfigError):
        FpnConfig(n_codewords=0)
    assert FpnConfig().k_recurrence == 4
    assert FpnConfig().n_codewords == 128
    assert FpnConfig().codeword_dim == 512
    assert FpnConfig().output_channels == 256
    assert FpnConfig().share_params


# ------------------------------------------------------------ coefficients

def test_activate_coeffs_is_elementwise_relu():
    raw = FusionCoeffs(a=vec([-1.0, 2.0, 0.5, 1.0, 1.0]),
                       r=vec([-3.0, 0.0, 1.5]),
                       s=vec([2.0, -0.25, 0.75]),
                       t=vec([1.0, 1.0, -1.0]))
    act = activate_coeffs(raw)
    assert np.array_equal(act.a.data, [0.0, 2.0, 0.5, 1.0, 1.0])
    assert np.array_equal(act.r.data, [0.0, 0.0, 1.5])
    assert np.array_equal(act.s.data, [2.0, 0.0, 0.75])
    assert np.array_equal(act.t.data, [1.0, 1.0, 0.0])


def test_activate_coeffs_keeps_unit_init():
    act = activate_coeffs(init_fusion_coeffs())
    assert np.array_equal(act.a.data, np.ones(5))
    for v in (act.r, act.s, act.t):
        assert np.array_equal(v.data, np.ones(3))


def test_activate_coeffs_gradient():
    rng = np.random.default_rng(3)
    raw = init_fusion_coeffs()
    for v in (raw.a, raw.r, raw.s, raw.t):
        v.data[:] = rng.uniform(0.2, 2.0, v.dims)
    raw.a.data[2] = -0.7  # one inactive entry exercises the zero branch
    weights = {name: Tensor(rng.standard_normal(t.dims))
               for name, t in raw.named("coeffs")}

    def build():
        act = activate_coeffs(raw)
        total = None
        for name, t in act.named("coeffs"):
            term = ops.sum_all(ops.mul(t, weights[name]))
            total = term if total is None else ops.add(total, term)
        return total

    reports = gradcheck(build, list(raw.named("coeffs")), tol=1e-6)
    assert all(r.passed for r in reports)


# ----------------------------------------------------------------- fusion

def test_fuse_code_map_selector_picks_p6():
    pyr = rand_pyramid(np.random.default_rng(5))
    m = fuse_code_map(pyr, vec([0.0, 1.0, 0.0, 0.0, 0.0]), one_steps(pyr))
    assert np.array_equal(m.data, pyr.p6.data)


def test_fuse_code_map_constant_pyramid():
    dims = chain_dims(16, 16)
    pyr = Pyramid(*[Tensor(np.full((2, h, w), 0.5)) for h, w in dims])
    m = fuse_code_map(pyr, vec([1.0] * 5), one_steps(pyr))
    assert np.array_equal(m.data, np.full((2, 2, 2), 2.5))


@pytest.mark.parametrize("h,w", [(16, 16), (25, 38)])
def test_fuse_code_map_matches_loop_oracle(h, w):
    rng = np.random.default_rng(7)
    pyr = rand_pyramid(rng, channels=3, h=h, w=w)
    a = rng.uniform(0.0, 2.0, 5)
    m = fuse_code_map(pyr, vec(a), one_steps(pyr))
    oh, ow = pyr.p6.dims[1:]
    levels = [pyr.p7.data, pyr.p6.data, pyr.p5.data, pyr.p4.data, pyr.p3.data]
    want = sum(coef * to_grid(x, oh, ow) for coef, x in zip(a, levels))
    assert np.max(np.abs(m.data - want)) <= 1e-12


def test_fuse_scale_maps_selectors():
    pyr = rand_pyramid(np.random.default_rng(9))
    one = vec([0.0, 1.0, 0.0])
    m4, m5, m6 = fuse_scale_maps(pyr, one, one, one, one_steps(pyr))
    assert np.array_equal(m4.data, pyr.p4.data)
    assert np.array_equal(m5.data, pyr.p5.data)
    assert np.array_equal(m6.data, pyr.p6.data)


def test_fuse_scale_maps_constant_pyramid():
    dims = chain_dims(16, 16)
    pyr = Pyramid(*[Tensor(np.full((2, h, w), 0.25)) for h, w in dims])
    ones = vec([1.0, 1.0, 1.0])
    maps = fuse_scale_maps(pyr, ones, ones, ones, one_steps(pyr))
    for m, (h, w) in zip(maps, dims[1:4]):
        assert np.array_equal(m.data, np.full((2, h, w), 0.75))


@pytest.mark.parametrize("h,w", [(16, 16), (25, 38)])
def test_fuse_scale_maps_match_loop_oracle(h, w):
    rng = np.random.default_rng(11)
    pyr = rand_pyramid(rng, channels=3, h=h, w=w)
    r, s, t = (rng.uniform(0.0, 2.0, 3) for _ in range(3))
    m4, m5, m6 = fuse_scale_maps(pyr, vec(r), vec(s), vec(t), one_steps(pyr))
    p3, p4, p5, p6, p7 = [lvl.data for lvl in pyr.levels()]

    def fused(coefs, up_src, mid, down_src):
        oh, ow = mid.shape[1:]
        return (coefs[0] * nearest_up_oracle(up_src, oh, ow)
                + coefs[1] * mid
                + coefs[2] * maxpool_oracle(down_src, oh, ow))

    assert np.max(np.abs(m4.data - fused(r, p5, p4, p3))) <= 1e-12
    assert np.max(np.abs(m5.data - fused(s, p6, p5, p4))) <= 1e-12
    assert np.max(np.abs(m6.data - fused(t, p7, p6, p5))) <= 1e-12


def gather_up(x, like):
    """x upsampled onto like's grid by a numpy gather: pixel dst takes source
    dst // 2 per axis."""
    oh, ow = like.shape[1:]
    return x[:, np.arange(oh) // 2][:, :, np.arange(ow) // 2]


def zero_buffer_sum(coefs, terms):
    """A zero buffer plus each coefficient times its term, in order."""
    out = np.zeros_like(terms[1])
    for c, x in zip(coefs, terms):
        out += c * x
    return out


@pytest.mark.parametrize("h,w", [(16, 16), (25, 38)])
def test_fusions_equal_a_zero_buffer_sum_of_gathered_levels_bit_for_bit(h, w):
    """Each fusion upsamples its coarser neighbor inside one op, and its
    bytes equal a zero buffer plus each term in turn, the coarser neighbor
    an upsampled copy: the sum the fusions formed over upsampled maps."""
    rng = np.random.default_rng(8)
    pyr = rand_pyramid(rng, channels=3, h=h, w=w)
    a, r, s, t = rng.uniform(0.0, 2.0, 5), *(rng.uniform(0.0, 2.0, 3) for _ in range(3))
    steps = one_steps(pyr)
    m_code = fuse_code_map(pyr, vec(a), steps)
    m4, m5, m6 = fuse_scale_maps(pyr, vec(r), vec(s), vec(t), steps)
    p3, p4, p5, p6, p7 = [lvl.data for lvl in pyr.levels()]
    d34, d45, d56 = [d.data for d in steps]
    d4 = ops.maxpool2x2(steps[1]).data
    d3 = ops.maxpool2x2(ops.maxpool2x2(steps[0])).data
    want = {"code": zero_buffer_sum(a, [gather_up(p7, p6), p6, d56, d4, d3]),
            4: zero_buffer_sum(r, [gather_up(p5, p4), p4, d34]),
            5: zero_buffer_sum(s, [gather_up(p6, p5), p5, d45]),
            6: zero_buffer_sum(t, [gather_up(p7, p6), p6, d56])}
    for key, got in zip(("code", 4, 5, 6), (m_code, m4, m5, m6)):
        assert got.data.tobytes() == want[key].tobytes(), key


# ----------------------------------------------------------------- decode

def tiny_params(seed=21):
    return init_fpn_params(tiny_fpn_config(), np.random.default_rng(seed))


def test_decode_preserves_shapes_even_and_odd():
    params = tiny_params()
    for h, w in [(16, 16), (25, 38)]:
        pyr = rand_pyramid(np.random.default_rng(13), channels=8, h=h, w=w)
        out = fpn_decode_once(pyr, params)
        for got, src in zip(out.levels(), pyr.levels()):
            assert got.dims == src.dims


def test_decode_rejects_channel_mismatch():
    params = tiny_params()
    pyr = rand_pyramid(np.random.default_rng(14), channels=4)
    with pytest.raises(ConfigError, match="channels"):
        fpn_decode_once(pyr, params)


def test_residual_identity_bit_exact_with_zero_projections():
    params = tiny_params()
    for branch in params.branches():
        branch.project.weight.data[:] = 0.0
        branch.project.bias.data[:] = 0.0
    pyr = rand_pyramid(np.random.default_rng(15), channels=8)
    out = fpn_decode_once(pyr, params)
    for got, src in zip(out.levels(), pyr.levels()):
        assert np.array_equal(got.data, src.data)


def test_outer_levels_are_resampled_inner_refinements():
    params = tiny_params()
    pyr = rand_pyramid(np.random.default_rng(16), channels=8)
    out, trace = fpn_decode_once_full(DecodeState.of(pyr), params)
    hat4 = trace.refined[4].data
    hat6 = trace.refined[6].data
    want3 = nearest_up_oracle(hat4, *pyr.p3.dims[1:])
    want7 = maxpool_oracle(hat6, *pyr.p7.dims[1:])
    assert np.max(np.abs(out.p3.data - (pyr.p3.data + want3))) <= 1e-12
    assert np.max(np.abs(out.p7.data - (pyr.p7.data + want7))) <= 1e-12


def graph_nodes(levels):
    """Every node of the graph that reaches the levels."""
    total = None
    for level in levels:
        s = ops.sum_all(level)
        total = s if total is None else ops.add(total, s)
    return ComputeGraph.trace(total).nodes


def count_ops(levels, op):
    return sum(1 for node in graph_nodes(levels) if node._op == op)


def down(x):
    return ops.maxpool2x2(x)


def unshared_code_map(state, a, steps):
    p3, p4, p5, p6, p7 = state.p3, state.p4, state.p5, state.p6, state.p7
    return ops.upsampled_weighted_sum(a, p7, [p6, down(p5), down(down(p4)),
                                              down(down(down(p3)))])


def unshared_scale_maps(state, r, s, t, steps):
    p3, p4, p5, p6, p7 = state.p3, state.p4, state.p5, state.p6, state.p7
    return (ops.upsampled_weighted_sum(r, p5, [p4, down(p3)]),
            ops.upsampled_weighted_sum(s, p6, [p5, down(p4)]),
            ops.upsampled_weighted_sum(t, p7, [p6, down(p5)]))


def test_stage_pools_each_one_step_downsampling_once(monkeypatch):
    params = tiny_params()
    pyr = rand_pyramid(np.random.default_rng(19), channels=8, h=25, w=38)
    out, trace = fpn_decode_once_full(DecodeState.of(pyr), params)
    # p3->p4, p4->p5, p5->p6 once each, two more steps for p3 and one for
    # p4 on the code-map grid, and refined p6 -> p7; a later stage takes
    # p3->p4 from the previous stage's pooled p3 (DecodeState.step)
    assert count_ops(out.pyramid().levels(), "maxpool2x2") == 7
    params.config = dataclasses.replace(params.config, k_recurrence=4)
    assert count_ops(fpn_decode(pyr, params).levels(), "maxpool2x2") == 25

    monkeypatch.setattr(fpn_module, "fuse_code_map", unshared_code_map)
    monkeypatch.setattr(fpn_module, "fuse_scale_maps", unshared_scale_maps)
    ref_out, ref_trace = fpn_decode_once_full(DecodeState.of(pyr), params)
    assert count_ops(ref_out.pyramid().levels(), "maxpool2x2") == 10
    assert np.array_equal(trace.m_code.data, ref_trace.m_code.data)
    for level in (4, 5, 6):
        assert np.array_equal(trace.fused[level].data, ref_trace.fused[level].data)
    for got, want in zip(out.pyramid().levels(), ref_out.pyramid().levels()):
        assert np.array_equal(got.data, want.data)


def test_stage_keeps_one_map_on_the_p3_grid():
    """p3 takes refined p4 upsampled inside add_upsampled, so the only node
    on the p3 grid besides the input is the output level itself; the other
    levels are upsampled inside the four fusions, on coarser grids, and no
    node holds an upsampled copy."""
    params = tiny_params()
    pyr = rand_pyramid(np.random.default_rng(19), channels=8, h=25, w=38)
    out = fpn_decode_once(pyr, params)
    nodes = graph_nodes(out.levels())
    on_p3 = [node for node in nodes
             if len(node.dims) == 3 and node.dims[1:] == pyr.p3.dims[1:]
             and node is not pyr.p3._node]
    assert len(on_p3) == 1 and on_p3[0] is out.p3._node
    counts = {op: sum(1 for node in nodes if node._op == op)
              for op in ("upsampled_weighted_sum", "add_upsampled", "maxpool2x2")}
    assert counts == {"upsampled_weighted_sum": 4, "add_upsampled": 1, "maxpool2x2": 7}


@pytest.mark.parametrize("shared", [True, False], ids=["shared", "unshared"])
def test_decode_forms_one_map_on_the_p3_grid(shared):
    """A k=4 decode sums the stages' refined p4 on the p4 grid and adds the
    sum upsampled to the input p3 once, so its graph has one add_upsampled
    and, besides the input, one node on the p3 grid: the output p3."""
    cfg = FpnConfig(n_codewords=4, codeword_dim=8, k_recurrence=4, share_params=shared,
                    output_channels=8)
    params = init_fpn_stack(cfg, np.random.default_rng(18))
    pyr = rand_pyramid(np.random.default_rng(19), channels=8, h=25, w=38)
    out = fpn_decode(pyr, params)
    nodes = graph_nodes(out.levels())
    on_p3 = [node for node in nodes
             if len(node.dims) == 3 and node.dims[1:] == pyr.p3.dims[1:]
             and node is not pyr.p3._node]
    assert len(on_p3) == 1 and on_p3[0] is out.p3._node
    assert count_ops(out.levels(), "add_upsampled") == 1
    assert out.p3._parents[0] is pyr.p3._node


def ancestor_ids(t):
    """ids of the nodes t's node reaches, its own included."""
    seen = set()
    stack = [t._node]
    while stack:
        cur = stack.pop()
        if id(cur) in seen:
            continue
        seen.add(id(cur))
        stack.extend(cur._parents)
    return seen


def test_one_codeword_set_feeds_all_three_scales():
    params = tiny_params()
    pyr = rand_pyramid(np.random.default_rng(17), channels=8)
    _, trace = fpn_decode_once_full(DecodeState.of(pyr), params)
    cw = id(trace.codewords._node)
    for level in (4, 5, 6):
        assert cw in ancestor_ids(trace.refined[level])


def test_codeword_permutation_leaves_output_unchanged():
    params = tiny_params()
    pyr = rand_pyramid(np.random.default_rng(19), channels=8)
    base = fpn_decode_once(pyr, params)

    perm = np.random.default_rng(20).permutation(params.config.n_codewords)
    permuted = copy.deepcopy(params)
    permuted.weighting.weight.data[:] = permuted.weighting.weight.data[perm]
    permuted.weighting.bias.data[:] = permuted.weighting.bias.data[perm]
    for branch in permuted.branches():
        branch.assembly.weight.data[:] = branch.assembly.weight.data[perm]
        branch.assembly.bias.data[:] = branch.assembly.bias.data[perm]
    swapped = fpn_decode_once(pyr, permuted)

    for got, want in zip(swapped.levels(), base.levels()):
        assert np.max(np.abs(got.data - want.data)) <= 1e-10


def test_k1_equals_single_pass():
    cfg = FpnConfig(n_codewords=4, codeword_dim=8, k_recurrence=1,
                    output_channels=8)
    params = init_fpn_params(cfg, np.random.default_rng(23))
    pyr = rand_pyramid(np.random.default_rng(24), channels=8)
    out = fpn_decode(pyr, params)
    once = fpn_decode_once(pyr, params)
    for got, want in zip(out.levels(), once.levels()):
        assert np.array_equal(got.data, want.data)


def chain_states(pyr, records):
    """fpn_decode spelled out: fpn_decode_once_full over states."""
    state = DecodeState.of(pyr)
    for record in records:
        state, _ = fpn_decode_once_full(state, record)
    return state.pyramid()


def test_k2_equals_manual_composition():
    """fpn_decode is its stages chained over states, bit for bit; a chain of
    fpn_decode_once pools each stage's p3 afresh and adds each refined p4
    upsampled in turn, so its p4-p7 are equal and its p3 agrees to roundoff."""
    params = tiny_params()
    assert params.config.k_recurrence == 2
    pyr = rand_pyramid(np.random.default_rng(25), channels=8)
    out = fpn_decode(pyr, params)
    manual = chain_states(pyr, [params, params])
    for got, want in zip(out.levels(), manual.levels()):
        assert np.array_equal(got.data, want.data)
    once = fpn_decode_once(fpn_decode_once(pyr, params), params)
    assert np.max(np.abs(once.p3.data - out.p3.data)) <= 1e-15 * np.max(np.abs(out.p3.data))
    for got, want in zip(out.levels()[1:], once.levels()[1:]):
        assert np.array_equal(got.data, want.data)


def fresh_pool_decode(pyr, params, refined4=None):
    """fpn_decode with every stage pooling p3 afresh: fpn_decode_once
    chained, so each stage also adds its refined p4 upsampled to its own p3.
    Each stage's refined p4 is appended to the list `refined4` when one is
    given."""
    out = pyr
    for record in fpn_module.fpn_stages(params):
        stage, _ = fpn_decode_once_full(DecodeState.of(out), record)
        out = stage.pyramid()
        if refined4 is not None:
            refined4.append(stage.refined4)
    return out


def summed_p3_bits(p3, refined4):
    """add_upsampled(p3, the refined p4 summed in stage order), the p3 that
    fpn_decode forms, as int64 bits."""
    return ops.add_upsampled(Tensor(p3), reduce(ops.add, refined4)).data.view(np.int64)


def level_bits(pyr):
    return [level.data.view(np.int64) for level in pyr.levels()]


def input_grads(levels, data):
    """The gradient of every input level of the pyramid built from `data`
    under the mean over `levels(pyramid)`."""
    pyr = Pyramid(*[Tensor(d.copy(), requires_grad=True) for d in data])
    out = levels(pyr)
    total = None
    for level in out.levels():
        term = ops.sum_all(level)
        total = term if total is None else ops.add(total, term)
    ops.scalar_scale(total, 1.0 / sum(d.size for d in data)).backward()
    return out, [level.grad for level in pyr.levels()]


# the benchmark's fpn-decode widths on a quarter of its p3 grid, and the
# tiny config on an odd grid, shared and unshared, each k=4
K4_CASES = {
    "bench-28x44": (dict(n_codewords=32, codeword_dim=64, output_channels=64), 28, 44, True),
    "tiny-25x38-shared": (dict(n_codewords=4, codeword_dim=8, output_channels=8), 25, 38, True),
    "tiny-25x38-unshared": (dict(n_codewords=4, codeword_dim=8, output_channels=8), 25, 38, False),
}


@pytest.mark.parametrize("case", list(K4_CASES))
def test_carried_p3_pool_equals_pooling_afresh(case):
    """A later stage's p3->p4 step is the previous stage's pooled p3 plus its
    refined p4, and p4-p7 equal a decode whose every stage pools p3 bit for
    bit; p3 is the input p3 plus the stages' refined p4, summed, upsampled.
    The gradients only sum in another order: on tie-free (standard normal)
    data every input level's agrees to 1e-12 of its max."""
    widths, h, w, shared = K4_CASES[case]
    cfg = FpnConfig(k_recurrence=4, share_params=shared, **widths)
    params = init_fpn_stack(cfg, np.random.default_rng(41))
    data = [level.data for level in
            rand_pyramid(np.random.default_rng(42), cfg.output_channels, h, w).levels()]

    refined4 = []
    got, got_grads = input_grads(lambda pyr: fpn_decode(pyr, params), data)
    want, want_grads = input_grads(lambda pyr: fresh_pool_decode(pyr, params, refined4), data)
    assert count_ops(got.levels(), "maxpool2x2") == 25
    assert count_ops(want.levels(), "maxpool2x2") == 28
    got_bits, want_bits = level_bits(got), level_bits(want)
    assert np.array_equal(got_bits[0], summed_p3_bits(data[0], refined4))
    for a, b in zip(got_bits[1:], want_bits[1:]):
        assert np.array_equal(a, b)
    for name, a, b in zip(fpn_module.LEVEL_NAMES, got_grads, want_grads):
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b)), name


def test_decode_keeps_winners_only_for_pools_that_need_grad():
    """At the fpn-decode benchmark's config, on an input pyramid that needs
    no grad, stage 1's six pools of the input levels record no closure and
    the other 19 of a k=4 decode's 25 keep only their 1-byte winners."""
    widths = K4_CASES["bench-28x44"][0]
    params = init_fpn_stack(FpnConfig(k_recurrence=4, share_params=True, **widths),
                            np.random.default_rng(41))
    pyr = rand_pyramid(np.random.default_rng(42), widths["output_channels"], 28, 44)
    pools = [node for node in graph_nodes(fpn_decode(pyr, params).levels())
             if node._op == "maxpool2x2"]
    no_grad = [node for node in pools if node._backward_fn is None]
    assert len(pools) == 25 and len(no_grad) == 6
    # each pools an input level or another of the six
    reads_input = {id(level._node) for level in pyr.levels()} | {id(node) for node in no_grad}
    assert all(id(node._parents[0]) in reads_input for node in no_grad)
    for node in pools:
        if node._backward_fn is not None:
            saved = [cell.cell_contents for cell in node._backward_fn.__closure__
                     if isinstance(cell.cell_contents, np.ndarray)]
            assert [(a.dtype, a.shape) for a in saved] == [(np.dtype(np.int8), node.dims)]


def test_non_finite_refined_p4_pools_p3_afresh():
    """-inf + inf is NaN where pooling keeps inf, so a stage whose refined p4
    is not finite hands the next stage a pyramid that pools p3 itself;
    p4-p7 still equal a decode whose every stage pools p3 bit for bit, and
    p3 is the input p3 plus the stages' refined p4, summed, upsampled."""
    params = tiny_params()
    params.config = dataclasses.replace(params.config, k_recurrence=4)
    pyr = rand_pyramid(np.random.default_rng(40), channels=8, h=25, w=38)
    # large enough that part of refined p4 overflows to +-inf in stage 1
    pyr.p4.data[0] *= 1e155
    with np.errstate(all="ignore"):
        out, trace = fpn_decode_once_full(DecodeState.of(pyr), params)
        refined4 = trace.refined[4].data
        assert np.isinf(refined4).any() and np.isfinite(refined4).any()
        assert out.step()._op == "maxpool2x2"
        stages = []
        got, want = fpn_decode(pyr, params), fresh_pool_decode(pyr, params, stages)
        want_p3 = summed_p3_bits(pyr.p3.data, stages)
    got_bits, want_bits = level_bits(got), level_bits(want)
    assert np.array_equal(got_bits[0], want_p3)
    for a, b in zip(got_bits[1:], want_bits[1:]):
        assert np.array_equal(a, b)


def test_step_is_an_add_only_after_a_stage():
    """A decode's first state pools its p3; a stage's state adds its refined
    p4 to its pooled step, and its p3 is the input p3 plus the stages'
    summed refined p4, upsampled."""
    params = tiny_params()
    pyr = rand_pyramid(np.random.default_rng(43), channels=8, h=25, w=38)
    start = DecodeState.of(pyr)
    assert start.step()._op == "maxpool2x2" and start.p3 is pyr.p3
    out, trace = fpn_decode_once_full(start, params)
    carried = out.step()
    assert carried._op == "add" and carried._parents[1] is trace.refined[4]._node
    assert np.array_equal(carried.data, ops.maxpool2x2(out.p3).data)
    last, last_trace = fpn_decode_once_full(out, params)
    assert last.p3._parents[0] is pyr.p3._node
    assert np.array_equal(last.p3.data.view(np.int64), summed_p3_bits(
        pyr.p3.data, [trace.refined[4], last_trace.refined[4]]))


def test_unshared_stack_composes_independent_records():
    cfg = FpnConfig(n_codewords=4, codeword_dim=8, k_recurrence=3,
                    share_params=False, output_channels=8)
    stack = init_fpn_stack(cfg, np.random.default_rng(27))
    assert len(stack) == 3
    pyr = rand_pyramid(np.random.default_rng(28), channels=8)
    out = fpn_decode(pyr, stack)
    manual = chain_states(pyr, stack)
    for got, want in zip(out.levels(), manual.levels()):
        assert np.array_equal(got.data, want.data)


def test_shared_stack_is_one_record_from_one_draw():
    cfg = tiny_fpn_config()
    assert cfg.share_params
    stack = init_fpn_stack(cfg, np.random.default_rng(26))
    single = init_fpn_params(cfg, np.random.default_rng(26))
    assert isinstance(stack, fpn_module.FpnParams)
    for (name, got), (_, want) in zip(stack.named_parameters(), single.named_parameters()):
        assert np.array_equal(got.data, want.data), name


def test_decode_rejects_mismatched_parameter_form():
    params = init_fpn_params(tiny_fpn_config(), np.random.default_rng(29))
    pyr = rand_pyramid(np.random.default_rng(30), channels=8)
    with pytest.raises(ConfigError):
        fpn_decode(pyr, [params, params])
    unshared = FpnConfig(n_codewords=4, codeword_dim=8, k_recurrence=2,
                         share_params=False, output_channels=8)
    record = init_fpn_params(unshared, np.random.default_rng(29))
    with pytest.raises(ConfigError):
        fpn_decode(pyr, record)
    with pytest.raises(ConfigError, match="stage"):
        fpn_decode(pyr, [record])
    with pytest.raises(ConfigError, match="stage"):
        fpn_decode(pyr, [])


def test_shared_parameter_count_is_k_independent():
    counts = []
    for k in (1, 2, 5):
        cfg = FpnConfig(n_codewords=4, codeword_dim=8, k_recurrence=k,
                        output_channels=8)
        params = init_fpn_params(cfg, np.random.default_rng(31))
        counts.append(parameter_count(params.named_parameters()))
    assert counts[0] == counts[1] == counts[2]

    # and the count is exactly what the layer arithmetic says it should be
    ch, n, dim = 8, 4, 8
    expected = (14                       # fusion scalars: 5 + 3 + 3 + 3
                + ch * dim + dim         # bases
                + ch * n + n             # weighting
                + 3 * (ch * ch + ch      # per-scale guidance
                       + ch * n + n      # per-scale assembly
                       + (dim + ch) * ch + ch))  # per-scale projection
    assert counts[0] == expected

    unshared = FpnConfig(n_codewords=4, codeword_dim=8, k_recurrence=3,
                         share_params=False, output_channels=8)
    stack = init_fpn_stack(unshared, np.random.default_rng(32))
    assert sum(parameter_count(p.named_parameters()) for p in stack) == 3 * expected


def test_gradcheck_every_group_through_tiny_decode():
    params = tiny_params(seed=33)
    pyr = rand_pyramid(np.random.default_rng(34), channels=8)
    named = list(params.named_parameters())
    assert {"coeffs.a", "coeffs.r", "coeffs.s", "coeffs.t"} <= {n for n, _ in named}

    count = sum(level.data.size for level in pyr.levels())

    def build():
        # mean, not sum: the weighting bias has an identically-zero gradient
        # (spatial softmax is shift invariant), so its finite difference is
        # pure loss roundoff; an O(1) loss keeps that noise below tolerance
        out = fpn_decode_once(pyr, params)
        total = None
        for level in out.levels():
            term = ops.sum_all(level)
            total = term if total is None else ops.add(total, term)
        return ops.scalar_scale(total, 1.0 / count)

    reports = gradcheck(build, named, max_per_param=6,
                        rng=np.random.default_rng(35))
    failed = [r.name for r in reports if not r.passed]
    assert not failed, failed


@pytest.mark.parametrize("shared", [True, False], ids=["shared", "unshared"])
def test_gradcheck_every_group_through_k2_decode(shared):
    """Finite differences through two stages: the second stage's carried
    pooled p3 and the sum of both stages' refined p4, which forms p3."""
    cfg = FpnConfig(n_codewords=4, codeword_dim=8, k_recurrence=2, share_params=shared,
                    output_channels=8)
    params = init_fpn_stack(cfg, np.random.default_rng(36))
    # small magnitudes: a stage about squares the pyramid's scale, and the
    # loss roundoff, which the zero weighting-bias gradient reads, with it
    pyr = Pyramid(*[Tensor(0.25 * level.data, requires_grad=True)
                    for level in rand_pyramid(np.random.default_rng(37), channels=8).levels()])
    named = [(f"stage{i}.{name}", t) for i, record in enumerate([params] if shared else params)
             for name, t in record.named_parameters()]
    named += list(zip(fpn_module.LEVEL_NAMES, pyr.levels()))
    count = sum(level.data.size for level in pyr.levels())

    def build():
        # a mean, as in the single-stage check above
        total = None
        for level in fpn_decode(pyr, params).levels():
            term = ops.sum_all(level)
            total = term if total is None else ops.add(total, term)
        return ops.scalar_scale(total, 1.0 / count)

    reports = gradcheck(build, named, max_per_param=6, rng=np.random.default_rng(38))
    failed = [r.name for r in reports if not r.passed]
    assert not failed, failed
