"""Print what one benchmark operation's reverse-mode tape holds, by op.

    python3 tools/tape_bytes.py WORKLOAD

Run from a checkout. The workload (seed 0) is built by the benchmark's own
hgdbench/workloads.py, read as output_digest.py reads it, and then runs one
operation with hgd.tensor.backward wrapped. At the operation's first
backward sweep the wrapper accounts every node of the graph it is given:
the MB of data of the node's tensor, if that tensor is still alive (a node
holds no data, and a tensor the forward and its caller have dropped is
freed), and the MB of arrays its backward closure keeps, one row per op
that made the node (`leaf` for parameters and inputs); then the MB of
grads on those nodes once the sweep is done. The sweep drops an
intermediate's grad once its closure has run, so only the `leaf` row should
hold grads. The last line also gives the sweep's peak live adjoint MB: the
tracemalloc peak over the wrapped sweep minus its start, which counts the
adjoints and the closures' temporaries alive at once. An array counts once,
under the first node that holds it, node data before closures, and a view
counts as the array it views, so a grad passed on unchanged and
concatenated parts are not counted twice. MB are 2**20 bytes, the unit of
the benchmark's peak_rss_mb.

A workload whose operation runs no backward pass (seg-infer, decode-paper)
still records a graph, since the parameters require grad. For it the
command accounts, in the same data and saved columns and with no grads
column, the graph of the operation's output once the operation has
returned: the Tensor it returns, or for seg-infer, whose operation returns
labels, the logits it predicts them from. seg-train's operation is one SGD
step, a sweep per sample; the figures are those of the first sample.
"""

import gc
import sys
import tracemalloc
from collections import defaultdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "hgdbench")]

import workloads as wl  # noqa: E402
from hgd import tensor as hgd_tensor  # noqa: E402

SEED = 0
MB = 2 ** 20


def _owner(a: np.ndarray) -> np.ndarray:
    """The array that owns a's memory."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def _saved(fn):
    """The arrays a backward closure keeps, also inside list or tuple cells."""
    for cell in fn.__closure__ or ():
        value = cell.cell_contents
        for item in value if isinstance(value, (list, tuple)) else (value,):
            if isinstance(item, np.ndarray):
                yield item


def _add(rows, op, column, arrays, seen):
    for a in arrays:
        a = _owner(a)
        if id(a) not in seen:
            seen.add(id(a))
            rows[op][column] += a.nbytes


def tape_rows(nodes) -> dict:
    """Per op that made a node of nodes: the node count, the bytes of data
    of the nodes' live tensors and of the arrays their closures keep, and 0
    grads bytes (see the module docstring)."""
    rows = defaultdict(lambda: {"nodes": 0, "data": 0, "saved": 0, "grads": 0})
    held = set()
    alive = {id(t._node): t.data for t in gc.get_objects()
             if isinstance(t, hgd_tensor.Tensor)}
    for node in nodes:
        rows[node._op or "leaf"]["nodes"] += 1
        _add(rows, node._op or "leaf", "data",
             [alive[id(node)]] if id(node) in alive else [], held)
    for node in nodes:
        if node._backward_fn is not None:
            _add(rows, node._op or "leaf", "saved", _saved(node._backward_fn), held)
    return rows


class Account:
    """Wraps hgd.tensor.backward; accounts the graph of its first call."""

    def __init__(self, backward):
        self.backward = backward
        self.sweeps = 0
        self.rows = None
        self.sweep_peak = None

    def __call__(self, graph, loss):
        self.sweeps += 1
        if self.rows is not None:
            return self.backward(graph, loss)
        rows = tape_rows(graph.nodes)
        tracemalloc.start()
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        try:
            self.backward(graph, loss)
            self.sweep_peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        grads = set()
        for node in graph.nodes:
            if node.grad is not None:
                _add(rows, node._op or "leaf", "grads", [node.grad], grads)
        self.rows = dict(rows)


def run_one(name: str):
    w = wl.WORKLOADS[name](SEED)
    w.setup()
    account = Account(hgd_tensor.backward)
    hgd_tensor.backward = account
    hooked = wl.ef.poly_lr, wl.ef.sgd_step, wl.ef.evaluate, wl.ef.predict_labels
    logits = []

    def predict_labels(t):
        logits.append(t)
        return hooked[3](t)

    try:
        if isinstance(w, wl.SegTrain):
            w.install_hooks()
            with np.errstate(all="ignore"):
                w.run(wl.Loop(max_ops=1))
        else:
            wl.ef.predict_labels = predict_labels
            out = w.op(0)
    finally:
        hgd_tensor.backward = account.backward
        wl.ef.poly_lr, wl.ef.sgd_step, wl.ef.evaluate, wl.ef.predict_labels = hooked
    if account.rows is None:
        root = logits[-1] if logits else out
        account.rows = dict(tape_rows(hgd_tensor.ComputeGraph.trace(root).nodes))
    return account


def report(name: str, account: Account) -> str:
    swept = account.sweeps > 0
    columns = ("nodes", "data", "saved", "grads") if swept else ("nodes", "data", "saved")
    if swept:
        head = f"the first of {account.sweeps} backward sweep(s) in one operation"
    else:
        head = "one operation runs no backward pass; the graph of its output"
    lines = [f"{name} seed {SEED}: {head}; MB = 2**20 bytes",
             f"{'op':<24}{'nodes':>7}" + "".join(f"{c + ' MB':>10}" for c in columns[1:])]
    total = {"nodes": 0, "data": 0, "saved": 0, "grads": 0}
    rows = sorted(account.rows.items(),
                  key=lambda kv: (-(kv[1]["data"] + kv[1]["saved"]), kv[0]))
    for op, row in rows + [("total", total)]:
        if op != "total":
            for key in total:
                total[key] += row[key]
        lines.append(f"{op:<24}{row['nodes']:>7}"
                     + "".join(f"{row[c] / MB:>10.2f}" for c in columns[1:]))
    tape = total["data"] + total["saved"]
    if swept:
        lines.append(f"tape (data + saved) {tape / MB:.2f} MB, "
                     f"with grads {(tape + total['grads']) / MB:.2f} MB, "
                     f"sweep peak live adjoints {account.sweep_peak / MB:.2f} MB")
    else:
        lines.append(f"graph (data + saved) {tape / MB:.2f} MB")
    return "\n".join(lines) + "\n"


def main(argv):
    if len(argv) != 1 or argv[0] not in wl.WORKLOADS:
        print(f"usage: python3 tools/tape_bytes.py {{{','.join(wl.WORKLOADS)}}}", file=sys.stderr)
        return 2
    sys.stdout.write(report(argv[0], run_one(argv[0])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
