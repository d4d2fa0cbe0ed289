"""Command-line entry point.

Subcommands:

  gradcheck   finite-difference verification of every parameter group of
              the tiny segmentation net and the tiny pyramid decoder
  cost        analytic MAC/parameter table for a named architecture, CSV
  demo-seg    train the synthetic segmentation task and dump artifacts
  demo-fpn    decode a random pyramid and dump artifacts
  dump        describe one HGDT tensor file

Exit codes: 0 success, 1 verification failure (or unreadable data, a
demo-seg run whose loss or parameters went non-finite or whose final model
overflows, giving a non-finite decoder output or weighting map on the
rendered sample, a demo-fpn decode with a non-finite level after some
stage, which writes no artifact, or a config whose arrays cannot be
allocated), 2 usage/config error. The HGD_THREADS environment variable
caps BLAS thread pools (applied at package import, default 1 for
determinism). The package import also keeps freed heap pages in the
process under glibc (malloc's mmap and trim thresholds, unless a MALLOC_*
variable is set), which changes no output.

Every command that takes --config runs the RunConfig it names, or the
pinned preset config.tiny_run() without one; the preset is seed 0 of the
same code path. Weighting-map PGMs are min-max normalized per map and
upsampled to the rendering resolution, one file per codeword.
"""

import argparse
import contextlib
import json
import os
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from . import ops, parse_thread_cap
from .config import _FPN_KEYS, dtype_of, load_run_config, tiny_run
from .costmodel import (FPN_CONFIGS, efficientfcn_spec, emit_report, fpn_baseline_spec,
                        fpn_spec, report_csv, resnet_spec, unet_spec)
from .decoder import hgd_forward_full
from .efficientfcn import (backbone_forward, init_seg_params, segment_forward,
                           tiny_backbone_config, train_segmenter)
from .fpn import (LEVEL_NAMES, DecodeState, Pyramid, fpn_decode_once, fpn_decode_once_full,
                  fpn_stages, init_fpn_params, init_fpn_stack, pyramid_grids)
from .gradcheck import broken_relu_gradient, gradcheck
from .hgdt import load_tensor, save_checkpoint, save_pgm, write_atomic
from .synthdata import synth_dataset
from .tensor import ConfigError, GradcheckError, Tensor, precision_of


def _check_thread_cap():
    raw = os.environ.get("HGD_THREADS")
    if raw is not None:
        try:
            parse_thread_cap(raw)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


# ---------------------------------------------------------------- gradcheck

def _report_lines(section, reports):
    lines = [f"[{section}]"]
    for r in reports:
        status = "ok" if r.passed else "FAIL"
        lines.append(f"  {r.name:<42} max rel err {r.max_rel_err:10.3e}  {status}")
    return lines


def cmd_gradcheck(args) -> int:
    run = load_run_config(args.config) if args.config else tiny_run()
    if run.precision != "f64":
        print("gradcheck runs in f64 only; finite differences are meaningless "
              "in f32. Set precision to \"f64\".", file=sys.stderr)
        return 2
    # the nets are the preset's whatever the config says; only the seed varies
    tiny = tiny_run()

    rng = np.random.default_rng(run.seed)
    seg_params = init_seg_params(tiny_backbone_config(), tiny.hgd, tiny.num_classes, rng)
    image = Tensor(rng.standard_normal((3, 32, 32)))
    labels = rng.integers(0, tiny.num_classes, size=(32, 32))

    def seg_loss():
        return ops.cross_entropy_logits(segment_forward(image, seg_params), labels)

    fpn_cfg = tiny.fpn
    fpn_params = init_fpn_params(fpn_cfg, rng)
    # moderate magnitudes keep the central differences well conditioned
    pyramid = Pyramid(*[Tensor(0.5 * rng.standard_normal((fpn_cfg.output_channels, h, w)))
                        for h, w in pyramid_grids((tiny.input_size,) * 2).values()])

    count = sum(lvl.data.size for lvl in pyramid.levels())

    def fpn_loss():
        # mean rather than sum: keeps the loss O(1) so finite differences of
        # identically-zero gradients (softmax shift invariance) stay below
        # tolerance instead of surfacing float roundoff
        total = None
        for lvl in fpn_decode_once(pyramid, fpn_params).levels():
            s = ops.sum_all(lvl)
            total = s if total is None else ops.add(total, s)
        return ops.scalar_scale(total, 1.0 / count)

    suites = [("segmentation-tiny", seg_loss, list(seg_params.named_parameters())),
              ("pyramid-tiny", fpn_loss, list(fpn_params.named_parameters()))]

    reports = []
    with broken_relu_gradient() if args.break_backward else contextlib.nullcontext():
        for i, (section, loss_fn, params) in enumerate(suites):
            section_reports = gradcheck(loss_fn, params, tol=1e-5, max_per_param=6,
                                        rng=np.random.default_rng(run.seed + 100 + i))
            for line in _report_lines(section, section_reports):
                print(line)
            reports.extend(section_reports)

    failed = [r for r in reports if not r.passed]
    if failed:
        worst = max(failed, key=lambda r: r.max_rel_err)
        print(f"FAILED: worst offender {worst.name} "
              f"(max rel err {worst.max_rel_err:.3e})", file=sys.stderr)
        return 1
    print(f"all {len(reports)} parameter groups passed at tol 1e-5")
    return 0


# --------------------------------------------------------------------- cost

def _fpn_cost(variant, input_hw=None, **knobs):
    """fpn_spec at the variant's config, each knob given set on it by the
    run config's `fpn` key map (--n is its `n`, and so on)."""
    config = replace(FPN_CONFIGS[variant], **{_FPN_KEYS[k]: v for k, v in knobs.items()})
    return fpn_spec(variant, config, input_hw)


# each architecture's spec builder and the width/stage knobs it reads; all
# read --input, and every default comes from hgd.costmodel
_ARCHS = {
    "resnet101": (partial(resnet_spec, 101), ()),
    "resnet101-dilated": (partial(resnet_spec, 101, dilated_last_two=True), ()),
    "resnet101-backbone": (partial(resnet_spec, 101, include_head=False), ()),
    "efficientfcn": (efficientfcn_spec, ("n", "c")),
    "unet": (unet_spec, ()),
    "fpn-baseline": (fpn_baseline_spec, ()),
    "hgd-fpn": (partial(_fpn_cost, "hgd-fpn"), ("n", "c", "k")),
    "hgd-fpn-toy": (partial(_fpn_cost, "hgd-fpn-toy"), ("n", "c", "k")),
}


def _parse_input_hw(text):
    try:
        dims = [int(p) for p in text.lower().split("x")]
    except ValueError:
        dims = []
    if len(dims) not in (1, 2):
        raise ConfigError(f"--input expects SIZE or HxW, got {text!r}")
    if min(dims) < 1:
        raise ConfigError(f"--input extents must be at least 1, got {text!r}")
    return (dims[0], dims[-1])


def cmd_cost(args) -> int:
    build, reads = _ARCHS[args.arch]
    knobs = {}
    for knob in ("n", "c", "k"):
        value = getattr(args, knob)
        if value is None:
            continue
        if knob not in reads:
            takes = ", ".join(f"--{k}" for k in (*reads, "input"))
            raise ConfigError(f"--{knob} is not read by {args.arch} (it takes {takes})")
        knobs[knob] = value
    if args.input is not None:
        knobs["input_hw"] = _parse_input_hw(args.input)
    sys.stdout.write(report_csv(emit_report(build(**knobs))))
    return 0


# -------------------------------------------------------------------- demos

def _dump_weighting_maps(out_dir: Path, weights: Tensor, render_h: int, render_w: int):
    """One min-max normalized PGM per codeword, upsampled for rendering."""
    rendered = ops.bilinear_resize(weights, render_h, render_w)
    n = rendered.dims[0]
    for i in range(n):
        save_pgm(out_dir / f"weighting_{i:02d}.pgm", rendered.data[i])
    return n


def _first_non_finite(named_tensors):
    """The name of the first (name, tensor) pair holding a non-finite value, or None."""
    return next((name for name, t in named_tensors if not np.isfinite(t.data).all()), None)


def _divergence(history, params, trace):
    """Where a finished run first went non-finite, or None: its loss, a
    parameter, or the final model's decoder trace of the rendered sample."""
    for row in history:
        if not np.isfinite(row["loss"]):
            return f"loss {row['loss']} at step {row['iter']}"
    bad = _first_non_finite(params.named_parameters())
    if bad:
        return f"parameter {bad} is non-finite after the last step"
    bad = _first_non_finite([("output", trace.fused), ("weighting maps", trace.weights)])
    if bad:
        return f"non-finite decoder {bad} on sample 0 after the last step"
    return None


def cmd_demo_seg(args) -> int:
    run = load_run_config(args.config) if args.config else tiny_run()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dt = dtype_of(run)
    # hgdbench's seed rule; RunConfig has no backbone section, so every
    # run uses the toy backbone at its default (the preset's) widths
    samples = synth_dataset(seed=2024 + run.seed, count=32, size=run.input_size,
                            num_classes=run.num_classes, dtype=dt)
    params = init_seg_params(tiny_backbone_config(), run.hgd, run.num_classes,
                             np.random.default_rng(17 + run.seed), dt)
    order = np.random.default_rng(3 + run.seed)

    result = train_segmenter(samples, params, run.train, run.num_classes, order,
                             log_path=out / "train_log.csv", eval_every=25,
                             target_pixacc=0.99)
    # the rendered sample's trace is checked before anything else is written
    e8, e16, e32 = backbone_forward(samples[0].image, params.backbone)
    trace = hgd_forward_full(e8, e16, e32, params.hgd)
    diverged = _divergence(result.history, params, trace)
    if diverged:
        # train_log.csv stays for diagnosis; nothing else is written
        print(f"error: training diverged: {diverged}", file=sys.stderr)
        return 1

    steps = len(result.history)
    summary = {"pixAcc": result.final_pixacc, "mIoU": result.final_miou, "steps": steps}
    write_atomic(out / "metrics.json", json.dumps(summary, indent=2, sort_keys=True).encode())

    size = samples[0].image.dims[1]
    n = _dump_weighting_maps(out, trace.weights, size, size)

    save_checkpoint(out / "checkpoint", dict(params.named_parameters()),
                    meta=summary)

    print(f"pixAcc {result.final_pixacc:.6f}  mIoU {result.final_miou:.6f}  "
          f"steps {steps}")
    print(f"wrote train_log.csv, metrics.json, {n} weighting maps, and a "
          f"checkpoint under {out}")
    return 0


def cmd_demo_fpn(args) -> int:
    run = load_run_config(args.config) if args.config else tiny_run()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cfg = run.fpn
    dt = dtype_of(run)

    rng = np.random.default_rng(run.seed)
    levels = [Tensor(rng.standard_normal((cfg.output_channels, h, w)).astype(dt))
              for h, w in pyramid_grids((run.input_size,) * 2).values()]
    state = DecodeState.of(Pyramid(*levels))
    params = init_fpn_stack(cfg, np.random.default_rng(run.seed + 1), dt)
    for stage, stage_params in enumerate(fpn_stages(params), 1):
        # fpn_decode's stage loop; the scan names the stage after which a
        # level went non-finite, so it forms each stage's p3, which no later
        # stage reads, and the last stage's pyramid, p3 and all, is saved
        state, trace = fpn_decode_once_full(state, stage_params)
        current = state.pyramid()
        bad = _first_non_finite(zip(LEVEL_NAMES, current.levels()))
        if bad:
            print(f"error: decode diverged: level {bad} is non-finite after stage "
                  f"{stage} of {cfg.k_recurrence}", file=sys.stderr)
            return 1

    # p3 is the input's grid quartered, and each level halves the last
    strides = {name: 4 << i for i, name in enumerate(LEVEL_NAMES)}
    save_checkpoint(out, dict(zip(LEVEL_NAMES, current.levels())),
                    meta={"stages": cfg.k_recurrence, "share_params": cfg.share_params,
                          "strides": strides})

    render_h, render_w = current.p3.dims[1], current.p3.dims[2]
    n = _dump_weighting_maps(out, trace.attention, render_h, render_w)

    print(f"decoded {cfg.k_recurrence} stage(s); wrote 5 level tensors, "
          f"manifest.json, and {n} weighting maps under {out}")
    return 0


# --------------------------------------------------------------------- dump

def cmd_dump(args) -> int:
    arr = load_tensor(args.tensor)
    dims = "x".join(str(d) for d in arr.shape) if arr.ndim else "scalar"
    print(f"HGDT {precision_of(arr.dtype)} rank {arr.ndim} dims {dims}")
    if not arr.size:
        print("empty")
        return 0
    print(f"min {arr.min():.6g}  max {arr.max():.6g}  mean {arr.mean():.6g}")
    if arr.size <= 16:
        print("values " + " ".join(f"{v:.6g}" for v in arr.ravel()))
    return 0


# --------------------------------------------------------------------- main

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hgd", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--config", help="RunConfig JSON path; only seed and precision "
                                    "(which must be f64) are read, the nets are the "
                                    "tiny preset's")
    p.add_argument("--break-backward", action="store_true",
                   help="deliberately corrupt one backward rule to exercise "
                        "the failure path")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("cost", help="analytic MAC/parameter table as CSV")
    p.add_argument("arch", choices=_ARCHS)
    p.add_argument("--n", type=int, help="codeword count")
    p.add_argument("--c", type=int, help="codeword dimension")
    p.add_argument("--k", type=int,
                   help="recurrence stages (pyramid variants: sets k_recurrence of the "
                        "variant's config)")
    p.add_argument("--input", help="input size: SIZE or HxW")
    p.set_defaults(func=cmd_cost)

    p = sub.add_parser("demo-seg", help="train the synthetic segmentation task")
    p.add_argument("--config", help="RunConfig JSON path (omit for the tiny preset)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_demo_seg)

    p = sub.add_parser("demo-fpn", help="decode a random pyramid")
    p.add_argument("--config", help="RunConfig JSON path (omit for the tiny preset)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_demo_fpn)

    p = sub.add_parser("dump", help="describe one HGDT tensor file")
    p.add_argument("--tensor", required=True, help="path to a .hgdt file")
    p.set_defaults(func=cmd_dump)

    return parser


def main(argv=None) -> int:
    try:
        _check_thread_cap()
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:          # argparse: usage errors exit 2, --help 0
        code = exc.code
        return code if isinstance(code, int) else 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except GradcheckError as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
