"""One workload in one fresh process.

Started by run.py with the thread variables already in its environment, so
they are set before numpy loads. The worker reads the effective OpenBLAS
thread count back from numpy's bundled library and refuses to run when it
differs from the request. It prints one JSON object as its last line.

Modes:
  probe    set up, run one operation, report set-up seconds and peak RSS;
           nothing but program work happens in this process until then,
           after which it times the host-speed reference kernel
  measure  set up, verify outputs against references (untimed), run the
           timed closed loop, and with --trace 1 record per-layer spans
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from tracer import NAME, OP

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
THREAD_VARS = ("HGD_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
PROBE_OPS = 1
HOST_PROBES = 7
# cost-model rows of the segmentation network; decode-paper runs the decoder.* ones
SEG_ROWS = tuple(f"backbone.conv{i}" for i in range(1, 6)) + (
    "decoder.compress8", "decoder.compress16", "decoder.compress32", "decoder.bases",
    "decoder.weighting", "decoder.codeword_matmul", "decoder.guidance",
    "decoder.assembly_conv", "decoder.assembly_matmul", "decoder.classifier")

# per-layer metrics, reported with --trace 1 (ms are self time per operation)
OPS_FWD_BWD = ("conv3x3", "conv1x1", "matmul", "cross_entropy_logits", "concat_channels",
               "bilinear_resize", "softmax_spatial", "maxpool2x2", "nearest_resize",
               "weighted_sum", "add", "relu")
OPS_GMACS = ("conv3x3", "conv1x1", "matmul")
OPS_ALL = ("add", "mul", "scalar_scale", "sum_all", "relu", "conv1x1", "conv3x3",
           "bilinear_resize", "nearest_resize", "maxpool2x2", "concat_channels", "reshape",
           "transpose", "matmul", "weighted_sum", "scale_to_sum", "global_avg_spatial",
           "broadcast_add_channel", "softmax_spatial", "cross_entropy_logits")
MODULE_SPANS = ("efficientfcn.sgd_step", "efficientfcn.backbone_forward",
                "efficientfcn.segment_forward", "efficientfcn.evaluate",
                "tensor.backward", "tensor.trace",
                "decoder.fuse_multiscale", "decoder.generate_codewords",
                "decoder.build_guidance", "decoder.assemble_from", "decoder.hgd_forward_full",
                "fpn.activate_coeffs", "fpn.fuse_code_map", "fpn.fuse_scale_maps",
                "fpn.fpn_decode_once_full", "metrics.metrics")


def blas_info():
    """(effective OpenBLAS threads, OpenBLAS config string) from numpy's own copy."""
    import numpy
    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libdir.glob("libscipy_openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for suffix in ("64_", ""):
            get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            if get_threads is not None and get_config is not None:
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                get_config.argtypes, get_config.restype = [], ctypes.c_char_p
                return int(get_threads()), get_config().decode()
    raise RuntimeError(f"no scipy_openblas library under {libdir}")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _per_op(value: float, n: int) -> float:
    return value / n if n else 0.0


def layer_metrics(tracer, loop, setup_tracer) -> dict:
    """Per-layer metrics from the traced operations of one run."""
    traced = [i for i, on in enumerate(loop.traced) if on]
    n = len(traced)
    by_name, by_row = tracer.summary(traced)

    def self_ms(name):
        return 1e3 * _per_op(by_name.get(name, {}).get("self_s", 0.0), n)

    def gmacs(entry, seconds_key):
        seconds = entry.get(seconds_key, 0.0)
        return entry.get("macs", 0) / seconds / 1e9 if seconds > 0 else 0.0

    m = {}
    for op in OPS_FWD_BWD:
        m[f"ops.{op}.fwd_ms"] = self_ms(f"ops.{op}")
        m[f"ops.{op}.bwd_ms"] = self_ms(f"ops.{op}:bwd")
    for op in OPS_GMACS:
        m[f"ops.{op}.gmacs"] = gmacs(by_name.get(f"ops.{op}", {}), "self_s")

    # exact counts over one operation that ran traced and has no evaluation in it
    with_eval = {rec[OP] for rec in tracer.spans if rec[NAME] == "efficientfcn.evaluate"}
    counted = next((i for i in traced if i not in with_eval), None)
    one, _ = tracer.summary([] if counted is None else [counted])
    for op in OPS_ALL:
        m[f"ops.{op}.calls"] = one.get(f"ops.{op}", {}).get("calls", 0)
    m["ops.macs"] = sum(v["macs"] for k, v in one.items() if k.startswith("ops."))
    m["tensor.tape_nodes"] = sum(v["tape"] for k, v in one.items() if k.startswith("ops."))

    for name in MODULE_SPANS:
        m[f"{name}.ms"] = self_ms(name)
    plain_eval = sum(s for s, on, _ in loop.extra if not on)
    plain_ops = sum(s for s, on in zip(loop.samples, loop.traced) if not on)
    m["efficientfcn.evaluate.share"] = _per_op(plain_eval, plain_eval + plain_ops)
    setup_spans, _ = setup_tracer.summary([-1])
    m["synthdata.synth_dataset.ms"] = 1e3 * setup_spans.get(
        "synthdata.synth_dataset", {}).get("incl_s", 0.0)

    plain = [s for s, on in zip(loop.samples, loop.traced) if not on]
    with_trace = [s for s, on in zip(loop.samples, loop.traced) if on]
    m["trace.overhead_ratio"] = (statistics.median(with_trace) / statistics.median(plain)
                                 if plain and with_trace else 0.0)

    rows = {}
    for row in SEG_ROWS:
        entry = by_row.get(row, {})
        m[f"layer.{row}.fwd_ms"] = 1e3 * _per_op(entry.get("fwd_s", 0.0), n)
        m[f"layer.{row}.bwd_ms"] = 1e3 * _per_op(entry.get("bwd_s", 0.0), n)
        m[f"layer.{row}.gmacs"] = gmacs(entry, "fwd_s")
    for row, entry in sorted(by_row.items()):
        rows[row] = {"fwd_ms": 1e3 * _per_op(entry["fwd_s"], n),
                     "bwd_ms": 1e3 * _per_op(entry["bwd_s"], n),
                     "macs_per_op": _per_op(entry["macs"], n),
                     "gmac_per_s": gmacs(entry, "fwd_s")}
    spans = {name: {"self_ms": 1e3 * _per_op(v["self_s"], n),
                    "incl_ms": 1e3 * _per_op(v["incl_s"], n),
                    "calls_per_op": _per_op(v["calls"], n)}
             for name, v in sorted(by_name.items())}
    return {"metrics": m, "rows": rows, "spans": spans, "traced_ops": n,
            "counted_op": counted}


def main(argv) -> int:
    cfg = json.loads(argv[1])
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was loaded before the thread cap was checked")
    requested = int(cfg["threads"])
    for var in THREAD_VARS:
        if os.environ.get(var) != str(requested):
            raise RuntimeError(f"{var} must be {requested} in the worker environment")
    import numpy as np
    threads, blas_config = blas_info()
    if threads != requested:
        print(f"effective OpenBLAS threads {threads} != requested {requested}", file=sys.stderr)
        return 3

    import hostspeed

    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import hgd
    if Path(hgd.__file__).resolve().parent != (SRC / "hgd").resolve():
        raise RuntimeError(f"imported hgd from {hgd.__file__}, not from {SRC}")
    import workloads

    workload = workloads.WORKLOADS[cfg["workload"]](cfg["seed"])
    trace = cfg["mode"] == "measure" and cfg["trace"]
    setup_tracer = workloads.Tracer() if trace else None
    if setup_tracer:
        setup_tracer.enable()
    workload.setup()
    if setup_tracer:
        setup_tracer.disable()
    workload.install_hooks()
    setup_s = time.perf_counter() - t0

    out = {"setup_s": setup_s,
           "meta": {"threads_requested": requested, "threads_effective": threads,
                    "openblas": blas_config, "numpy": np.__version__,
                    "python": platform.python_version(), "dtype": workload.dtype,
                    "seed": cfg["seed"], "op_unit": workload.op_unit,
                    "reference_ms": hostspeed.REFERENCE_MS,
                    "items_per_op": workload.items_per_op}}
    if cfg["mode"] == "probe":
        loop = workloads.Loop(max_ops=PROBE_OPS)
        workload.run(loop)
        out["peak_rss_mb"] = _peak_rss_mb()
        out["probe_s"] = hostspeed.probe_median(HOST_PROBES)
    else:
        t_verify = time.perf_counter()
        checks = workload.verify()
        out["verify_s"] = time.perf_counter() - t_verify
        tracer = workload.tracer() if trace else None
        loop = workload.measure_loop(cfg["seconds"], tracer)
        loop.start()
        workload.run(loop)
        result = workload.result()
        checks.update(result.pop("checks", {}))
        out.update(result)
        out.update({"checks": checks, "samples_s": loop.samples, "traced": loop.traced,
                    "extra": loop.extra, "probes_s": loop.probes, "failed": loop.failed,
                    "peak_rss_mb_with_checks": _peak_rss_mb()})
        if trace:
            out["layers"] = layer_metrics(tracer, loop, setup_tracer)
            tracer.write_spans(cfg["spans_path"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
