"""In-process A/B timing of two checkouts of hgd.

    python3 tools/ab.py A_DIR B_DIR [--workload fpn-decode] [--out BENCH.json]

Each checkout's src/hgd is imported as `hgd`, the benchmark's
hgdbench/workloads.py is imported against it, and both names are then taken
out of sys.modules again, so each side keeps its own package and workloads
module and both run in this one process. Each side's Workload(seed 0) runs
its own `setup` and `op`, the inputs and operation hgdbench/run.py times.
Each round times one operation of each side, wall clock, the side that goes
first alternating, after one untimed warm-up round per side. It prints
the median B/A time ratio, the rounds B won, a bootstrap 95% interval of
that median, and for both sides the median ms and the sha256 of src/hgd (the
benchmark's src_sha256); --out writes the same, with the command, versions
and BLAS threads, as JSON.

seg-train's operations are the steps inside one training run, which two
sides cannot interleave. A seg-train round therefore trains one fresh
SegTrain budget (100 SGD steps) per side, through that side's own `setup`,
`install_hooks` and `run`, and compares the two budgets' median step times;
the hooks are removed again after each budget.

It complements hgdbench/run.py and does not replace it: both sides share
one heap and one BLAS pool, so RSS, page faults and set-up time need
separate processes.
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
# rounds per workload; a seg-train round is two whole budgets, ~7 s
ROUNDS = {"fpn-decode": 60, "decode-paper": 60, "seg-infer": 60, "seg-train": 20}
BOOTSTRAP = 2000


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


def timed(op) -> float:
    t0 = time.perf_counter()
    out = op()
    seconds = time.perf_counter() - t0
    del out     # freed outside the timed interval, as run.py does
    return seconds


def train_budget(workloads) -> float:
    """Median seconds per SGD step of one fresh seg-train budget."""
    ef = workloads.ef
    unhooked = ef.poly_lr, ef.sgd_step, ef.evaluate
    workload = workloads.SegTrain(SEED)
    workload.setup()
    workload.install_hooks()
    loop = workloads.Loop(max_ops=workload.BUDGET)
    try:
        workload.run(loop)
    finally:
        ef.poly_lr, ef.sgd_step, ef.evaluate = unhooked
    return statistics.median(loop.samples)


def round_timer(workloads, name: str):
    """One side's round, returning seconds: the benchmark workload's op(i),
    i = 0, 1, ..., or for seg-train one budget's median step."""
    if name == "seg-train":
        return lambda: train_budget(workloads)
    workload = workloads.WORKLOADS[name](SEED)
    workload.setup()
    workload.install_hooks()
    calls = itertools.count()
    return lambda: timed(lambda: workload.op(next(calls)))


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": q2, "q3": q3}


def compare(round_a, round_b, rounds: int) -> dict:
    round_a(), round_b()
    a_s, b_s = [], []
    for i in range(rounds):
        if i % 2 == 0:
            a_s.append(round_a())
            b_s.append(round_b())
        else:
            b_s.append(round_b())
            a_s.append(round_a())
    ratios = np.array(b_s) / np.array(a_s)
    rng = np.random.default_rng(0)
    boot = np.median(rng.choice(ratios, size=(BOOTSTRAP, rounds)), axis=1)
    return {"rounds": rounds,
            "median_ratio_b_over_a": float(np.median(ratios)),
            "ratio_ci95": [float(np.percentile(boot, 2.5)), float(np.percentile(boot, 97.5))],
            "b_wins": int((ratios < 1).sum()),
            "a_ms": {k: v * 1e3 for k, v in quartiles(a_s).items()},
            "b_ms": {k: v * 1e3 for k, v in quartiles(b_s).items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a_dir", type=Path)
    parser.add_argument("b_dir", type=Path)
    parser.add_argument("--workload", action="append", choices=tuple(ROUNDS))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    for d in (args.a_dir, args.b_dir):
        if not (d / "src" / "hgd" / "__init__.py").is_file():
            parser.error(f"no hgd sources under {d / 'src' / 'hgd'}")

    sides = {"a": load(args.a_dir.resolve()), "b": load(args.b_dir.resolve())}
    threads, openblas = blas_info()
    record = {"command": "python3 tools/ab.py " + " ".join(sys.argv[1:] if argv is None else argv),
              "seed": SEED, "units": "wall ms per operation, one process; for seg-train "
                                     "the median SGD step of each round's budget",
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
        res = compare(round_timer(sides["a"], name), round_timer(sides["b"], name), ROUNDS[name])
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
