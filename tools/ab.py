"""In-process A/B timing of two checkouts of hgd.

    python3 tools/ab.py A_DIR B_DIR [--workload fpn-decode] [--out BENCH.json]

Each checkout's src/hgd is imported as `hgd`, the benchmark's
hgdbench/workloads.py is imported against it, and both names are then taken
out of sys.modules again, so each side keeps its own package and workloads
module and both run in this one process. Each side's Workload(seed 0) runs
its own `setup` and `op`, the inputs and operation hgdbench/run.py times.
Each round times one operation of each side, wall clock, the side that goes
first alternating, after one untimed warm-up operation per side. It prints
the median B/A time ratio, the rounds B won, a bootstrap 95% interval of
that median, and for both sides the median ms and the sha256 of src/hgd (the
benchmark's src_sha256); --out writes the same, with the command, versions
and BLAS threads, as JSON.

It complements hgdbench/run.py and does not replace it: both sides share
one heap and one BLAS pool, so RSS, page faults and set-up time need
separate processes. seg-train is not offered: its operations are the steps
inside one training run, which two sides cannot interleave.
"""

import argparse
import hashlib
import importlib
import importlib.util
import itertools
import json
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "hgdbench"))

from worker import blas_info  # noqa: E402

SEED = 0
ROUNDS = 60
BOOTSTRAP = 2000
# the workloads whose operation is one call
WORKLOADS = ("fpn-decode", "decode-paper", "seg-infer")


def src_sha256(checkout: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((checkout / "src" / "hgd").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _bound_names():
    return [n for n in sys.modules if n in ("hgd", "workloads") or n.startswith("hgd.")]


def load(checkout: Path):
    """hgdbench's workloads module, imported against the checkout's hgd."""
    for name in _bound_names():
        del sys.modules[name]
    pkg = checkout / "src" / "hgd"
    spec = importlib.util.spec_from_file_location(
        "hgd", pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    try:
        sys.modules["hgd"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules["hgd"])
        return importlib.import_module("workloads")
    finally:
        for name in _bound_names():
            del sys.modules[name]


def operation(workloads, name: str):
    """One side's timed operation: the benchmark workload's op(i), i = 0, 1, ..."""
    workload = workloads.WORKLOADS[name](SEED)
    workload.setup()
    workload.install_hooks()
    calls = itertools.count()
    return lambda: workload.op(next(calls))


def timed(op) -> float:
    t0 = time.perf_counter()
    out = op()
    seconds = time.perf_counter() - t0
    del out     # freed outside the timed interval, as run.py does
    return seconds


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": q2, "q3": q3}


def compare(op_a, op_b) -> dict:
    op_a(), op_b()
    a_s, b_s = [], []
    for i in range(ROUNDS):
        if i % 2 == 0:
            a_s.append(timed(op_a))
            b_s.append(timed(op_b))
        else:
            b_s.append(timed(op_b))
            a_s.append(timed(op_a))
    ratios = np.array(b_s) / np.array(a_s)
    rng = np.random.default_rng(0)
    boot = np.median(rng.choice(ratios, size=(BOOTSTRAP, ROUNDS)), axis=1)
    return {"rounds": ROUNDS,
            "median_ratio_b_over_a": float(np.median(ratios)),
            "ratio_ci95": [float(np.percentile(boot, 2.5)), float(np.percentile(boot, 97.5))],
            "b_wins": int((ratios < 1).sum()),
            "a_ms": {k: v * 1e3 for k, v in quartiles(a_s).items()},
            "b_ms": {k: v * 1e3 for k, v in quartiles(b_s).items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a_dir", type=Path)
    parser.add_argument("b_dir", type=Path)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    for d in (args.a_dir, args.b_dir):
        if not (d / "src" / "hgd" / "__init__.py").is_file():
            parser.error(f"no hgd sources under {d / 'src' / 'hgd'}")

    sides = {"a": load(args.a_dir.resolve()), "b": load(args.b_dir.resolve())}
    threads, openblas = blas_info()
    record = {"command": "python3 tools/ab.py " + " ".join(sys.argv[1:] if argv is None else argv),
              "seed": SEED, "units": "wall ms per operation, one process",
              "host": {"python": platform.python_version(), "numpy": np.__version__,
                       "openblas": openblas, "threads_effective": threads},
              "a": {"dir": str(args.a_dir), "src_sha256": src_sha256(args.a_dir)},
              "b": {"dir": str(args.b_dir), "src_sha256": src_sha256(args.b_dir)},
              "workloads": {}}
    print(f"A {args.a_dir} src_sha256 {record['a']['src_sha256']}")
    print(f"B {args.b_dir} src_sha256 {record['b']['src_sha256']}")
    print(f"python {record['host']['python']}, numpy {np.__version__}, "
          f"{threads} BLAS thread(s), {openblas}")
    for name in args.workload or ["fpn-decode"]:
        res = compare(operation(sides["a"], name), operation(sides["b"], name))
        record["workloads"][name] = res
        lo, hi = res["ratio_ci95"]
        print(f"{name}: B/A median {res['median_ratio_b_over_a']:.4f} "
              f"(95% CI {lo:.4f}-{hi:.4f}), B faster in {res['b_wins']} of {res['rounds']}; "
              f"A {res['a_ms']['median']:.2f} ms, B {res['b_ms']['median']:.2f} ms")
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
