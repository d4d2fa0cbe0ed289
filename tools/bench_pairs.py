"""Alternating parent/change pairs of the hgd benchmark, as one JSON record.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR OUT.json

PARENT_DIR and CHANGE_DIR are checkouts of the repository, each in its own
directory (say, `git archive REV | tar -x -C DIR`). Every run is
`python3 hgdbench/run.py --workload W --seed S --seconds 25 --trace T` in
one checkout, one process at a time. Pair i of a workload runs at seed
FIRST_SEED + i, the parent first when i is even and the change first when
i is odd: PAIRS[W] untraced pairs per workload, then one traced pair per
workload at FIRST_SEED. Then tools/ab.py times both checkouts in one
process on each of AB_WORKLOADS.

The record holds each run's end-to-end metrics, in reference and wall
time, with its peak RSS probes and operation counts; per workload and
metric, each side's median and quartiles (numpy.percentile, linear), the
change's median over the parent's and the pairs the change won; the
traced pairs' per-layer metrics; the tools/ab.py results; and the host:
BLAS threads, dtypes, numpy and BLAS versions. It is rewritten after every
run, so an interrupted series leaves the runs made so far.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

from ab import src_sha256  # noqa: E402

SECONDS = 25
FIRST_SEED = 70
PAIRS = {"fpn-decode": 10, "seg-train": 3, "seg-infer": 3, "decode-paper": 10}
AB_WORKLOADS = ("fpn-decode", "decode-paper", "seg-infer", "seg-train")
# end-to-end metrics (hgdbench/run.py) and whether a higher value is better
METRICS = {"latency_ms_p50": False, "latency_ms_tail": False, "items_per_s": True,
           "setup_s": False, "peak_rss_mb": False}
META = ("threads_requested", "threads_effective", "dtype", "numpy", "python", "openblas",
        "nproc", "cpu_model", "reference_ms")


def run(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    """One hgdbench/run.py run in checkout, summarized from its record."""
    cmd = [sys.executable, "hgdbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True).stdout
    record = json.loads((checkout / re.search(r"record: (\S+)", out)[1]).read_text())
    result = {"correct": record["correct"], "attempted": record["attempted"],
              "failed": record["failed"], "meta": {k: record["meta"][k] for k in META}}
    if trace:
        result["layers"] = record["layers"]["metrics"]
    else:
        result.update(record["end_to_end"], wall=record["wall"],
                      peak_rss_mb_probes=[p["peak_rss_mb"] for p in record["probes"]])
    return result


def summarize(pairs: list) -> dict:
    """Per metric: each side's median and quartiles, change / parent of the
    medians, and the pairs whose change read better (ties count for neither)."""
    out = {}
    for name, higher in METRICS.items():
        sides = {side: np.array([p[side][name] for p in pairs]) for side in ("parent", "change")}
        q = {side: np.percentile(v, [25, 50, 75]) for side, v in sides.items()}
        diff = sides["change"] - sides["parent"]
        out[name] = {
            **{side: {"q1": q[side][0], "median": q[side][1], "q3": q[side][2]} for side in q},
            "ratio_of_medians": q["change"][1] / q["parent"][1],
            "change_better": int(np.sum(diff > 0 if higher else diff < 0)),
            "pairs": len(pairs),
            "parent_iqr": q["parent"][2] - q["parent"][0],
            "gap_of_medians": abs(q["change"][1] - q["parent"][1])}
    return out


def pair(sides: dict, workload: str, seed: int, i: int, trace: int) -> dict:
    order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
    result = {"seed": seed, "first": order[0]}
    for side in order:
        print(f"{workload} seed {seed} trace {trace}: {side}", file=sys.stderr, flush=True)
        result[side] = run(sides[side], workload, seed, trace)
    return result


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    sides = {"parent": Path(argv[0]).resolve(), "change": Path(argv[1]).resolve()}
    path = Path(argv[2])
    record = {
        "command": f"python3 tools/bench_pairs.py PARENT CHANGE {path.name}",
        "run_command": f"python3 hgdbench/run.py --workload W --seed S --seconds {SECONDS} "
                       "--trace T",
        "checkouts": {side: {"src_sha256": src_sha256(d)} for side, d in sides.items()},
        "order": f"pair i of a workload at seed {FIRST_SEED} + i, the parent first when i is "
                 "even; untraced pairs first, then one traced pair per workload",
        "units": "end-to-end metrics in reference time (hgdbench README), the wall figures "
                 "beside them; peak_rss_mb in MiB; quartiles by numpy.percentile (linear)",
        "host": {}, "workloads": {}, "traced": {}, "in_process_ab": {}}

    def save():
        metas = {w: e["pairs"][0]["parent"]["meta"] for w, e in record["workloads"].items()}
        host = dict(next(iter(metas.values())))
        del host["dtype"]
        record["host"] = dict(host, dtypes={w: m["dtype"] for w, m in metas.items()})
        path.write_text(json.dumps(record, indent=1) + "\n")

    for workload, n in PAIRS.items():
        entry = record["workloads"][workload] = {"pairs": []}
        for i in range(n):
            entry["pairs"].append(pair(sides, workload, FIRST_SEED + i, i, 0))
            entry["summary"] = summarize(entry["pairs"])
            save()
    for workload in PAIRS:
        record["traced"][workload] = pair(sides, workload, FIRST_SEED, 0, 1)
        save()
    for workload in AB_WORKLOADS:
        print(f"tools/ab.py {workload}", file=sys.stderr, flush=True)
        out = path.with_name(f"{path.stem}-ab-{workload}.json")
        subprocess.run([sys.executable, str(ROOT / "tools" / "ab.py"), str(sides["parent"]),
                        str(sides["change"]), "--workload", workload, "--out", str(out)],
                       check=True, stdout=subprocess.DEVNULL)
        result = json.loads(out.read_text())
        out.unlink()
        # the checkouts by role, not by where they sat
        result["command"] = f"python3 tools/ab.py PARENT CHANGE --workload {workload}"
        result["a"]["dir"], result["b"]["dir"] = "PARENT", "CHANGE"
        record["in_process_ab"][workload] = result
        save()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
