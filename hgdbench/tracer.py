"""Per-layer tracing of the hgd package from outside it.

A Tracer wraps every public function of the traced hgd modules (and every
other hgd module's `from ... import` binding of the same function object).
Each call records a span: name, start, end, parent span and operation id.
Each tensor that an `ops` function returns also gets its backward closure
wrapped, so the reverse sweep records one `<op>:bwd` span per node.

Spans stay in memory; `summary()` turns them into self times (a span's
duration minus the part its child spans cover) once the run is over.
Installing and removing the wrappers is a loop of setattr calls, so a
run can switch tracing on and off between operations.
"""

from __future__ import annotations

import gzip
import inspect
import sys
import time
import types
from collections import defaultdict

TRACED_MODULES = ("ops", "efficientfcn", "decoder", "fpn", "tensor", "synthdata", "metrics")
# a context manager, not a layer call
_SKIP = {"ops.broken_relu_gradient"}

# span record fields
NAME, START, END, PARENT, OP, CHILD, ROW, MACS, TAPE = range(9)


def _conv_macs(args, out):
    weight = args[1]
    _, h, w = out.data.shape
    return weight.data.size * h * w


def _matmul_macs(args, out):
    a, b = args[0], args[1]
    return a.data.shape[0] * a.data.shape[1] * b.data.shape[1]


# the ops whose multiply-accumulates the cost model counts; all others are 0 MACs
_MAC_FN = {"ops.conv1x1": _conv_macs, "ops.conv3x3": _conv_macs, "ops.matmul": _matmul_macs}


def _discover(package: str):
    """(name, module, attribute, function) for every traced public function."""
    found = []
    for short in TRACED_MODULES:
        mod = sys.modules[f"{package}.{short}"]
        for attr, obj in sorted(vars(mod).items()):
            name = f"{short}.{attr}"
            if (attr.startswith("_") or name in _SKIP
                    or not isinstance(obj, types.FunctionType)
                    or obj.__module__ != mod.__name__
                    or inspect.isgeneratorfunction(obj)):
                continue
            found.append((name, mod, attr, obj))
    return found


class Tracer:
    """Span recorder over the hgd package.

    `rows` maps id(weight tensor) to a cost-model layer name so conv calls
    are keyed like `costmodel` rows; `matmul_rows` maps the name of the span
    enclosing a matmul call to its cost-model row.
    """

    def __init__(self, package: str = "hgd", rows=None, matmul_rows=None):
        self.spans: list = []
        self.op_id = -1
        self.rows = dict(rows or {})
        self.matmul_rows = dict(matmul_rows or {})
        self._stack: list = []
        self._patches = []
        self.enabled = False
        modules = [m for n, m in sys.modules.items()
                   if (n == package or n.startswith(package + ".")) and m is not None]
        for name, mod, attr, fn in _discover(package):
            wrapper = self._wrap(name, fn, name.startswith("ops."))
            for other in modules:
                for other_attr, obj in list(vars(other).items()):
                    if obj is fn:
                        self._patches.append((other, other_attr, fn, wrapper))
        graph = sys.modules[f"{package}.tensor"].ComputeGraph
        original = graph.__dict__["trace"]
        self._patches.append((graph, "trace", original,
                              classmethod(self._wrap_plain("tensor.trace", original.__func__))))

    # ------------------------------------------------------------ switching

    def enable(self):
        if not self.enabled:
            for owner, attr, _, wrapper in self._patches:
                setattr(owner, attr, wrapper)
            self.enabled = True

    def disable(self):
        if self.enabled:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)
            self.enabled = False

    def __enter__(self):
        self.enable()
        return self

    def __exit__(self, *exc):
        self.disable()

    # ------------------------------------------------------------- wrappers

    def _open(self, name, row=None):
        spans = self.spans
        parent = self._stack[-1] if self._stack else -1
        rec = [name, 0.0, 0.0, parent, self.op_id, 0.0, row, 0, 0]
        self._stack.append(len(spans))
        spans.append(rec)
        return rec

    def _close(self, rec, start):
        end = time.perf_counter()
        rec[START] = start
        rec[END] = end
        self._stack.pop()
        if rec[PARENT] >= 0:
            self.spans[rec[PARENT]][CHILD] += end - start

    def _wrap(self, name, fn, is_op):
        mac_fn = _MAC_FN.get(name)
        bwd_name = name + ":bwd"
        clock = time.perf_counter

        def traced(*args, **kwargs):
            rec = self._open(name)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec, start)
            if is_op:
                if mac_fn is not None:
                    rec[MACS] = mac_fn(args, out)
                    rec[ROW] = self._row(name, args, rec)
                if out._parents:
                    rec[TAPE] = 1
                if out._backward_fn is not None:
                    out._backward_fn = self._wrap_plain(bwd_name, out._backward_fn, rec[ROW])
            return out

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__module__ = fn.__module__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def _row(self, name, args, rec):
        if name == "ops.matmul":
            parent = rec[PARENT]
            return self.matmul_rows.get(self.spans[parent][NAME]) if parent >= 0 else None
        return self.rows.get(id(args[1]))

    def _wrap_plain(self, name, fn, row=None):
        clock = time.perf_counter

        def traced(*args):
            rec = self._open(name, row)
            start = clock()
            try:
                return fn(*args)
            finally:
                self._close(rec, start)

        return traced

    # -------------------------------------------------------------- results

    def summary(self, op_ids):
        """Self and inclusive seconds, call counts and MACs per span name and
        per cost-model row, over the spans whose operation id is in op_ids."""
        op_ids = set(op_ids)
        by_name = defaultdict(lambda: {"self_s": 0.0, "incl_s": 0.0, "calls": 0, "macs": 0,
                                       "tape": 0})
        by_row = defaultdict(lambda: {"fwd_s": 0.0, "bwd_s": 0.0, "macs": 0})
        for rec in self.spans:
            if rec[OP] not in op_ids:
                continue
            dur = rec[END] - rec[START]
            own = dur - rec[CHILD]
            entry = by_name[rec[NAME]]
            entry["self_s"] += own
            entry["incl_s"] += dur
            entry["calls"] += 1
            entry["macs"] += rec[MACS]
            entry["tape"] += rec[TAPE]
            if rec[ROW] is not None:
                row = by_row[rec[ROW]]
                if rec[NAME].endswith(":bwd"):
                    row["bwd_s"] += own
                else:
                    row["fwd_s"] += own
                    row["macs"] += rec[MACS]
        return dict(by_name), dict(by_row)

    def write_spans(self, path):
        """One tab-separated line per span: op id, name, start and end in
        microseconds, parent span index, cost-model row."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("op\tname\tstart_us\tend_us\tparent\trow\n")
            for rec in self.spans:
                fh.write(f"{rec[OP]}\t{rec[NAME]}\t{rec[START] * 1e6:.1f}\t"
                         f"{rec[END] * 1e6:.1f}\t{rec[PARENT]}\t{rec[ROW] or ''}\n")
