"""The four benchmark workloads.

Each workload is a closed loop with one caller: the next operation starts
only when the previous one has returned. A workload builds its inputs from
the seed alone (`setup`), checks them once against independent references
(`verify`, untimed), then runs operations until its Loop says stop (`run`),
checking every output outside the timed interval.

Seeds: data uses 2024 + s, initialization 17 + s and batch order 3 + s, so
s = 0 is the `hgd demo-seg` preset.
"""

from __future__ import annotations

import functools
import math
import time

import numpy as np

from hgd import costmodel, decoder, efficientfcn as ef, fpn, ops, synthdata
from hgd.tensor import Tensor

import hostspeed
import reference
from tracer import Tracer

clock = time.perf_counter

# cost-model rows of one segmentation forward and of one paper-width decoder
# forward; the benchmark fails when the traced MACs differ from them
SEG_FORWARD_MACS = 710_144
DECODE_PAPER_MACS = 11_039_408_128
# |library - float64 reference| <= DECODE_TOL * max |reference| for the f32 decoder
DECODE_TOL = 1e-4

MATMUL_ROWS = {"decoder.codewords_from": "decoder.codeword_matmul",
               "decoder.assemble_from": "decoder.assembly_matmul"}


class Loop:
    """Times operations one at a time until a deadline or an operation count.

    With a tracer, odd-numbered operations run traced and even ones
    untraced, so the traced/untraced latency ratio is measured on
    interleaved operations of one run. With `host_probe`, the reference
    kernel of hostspeed.py runs once at the start and once after every
    operation, outside the timed interval: operation i lies between
    probes[i] and probes[i + 1].
    """

    def __init__(self, seconds=None, max_ops=None, tracer=None, host_probe=False):
        self.seconds = seconds
        self.max_ops = max_ops
        self.tracer = tracer
        self.host_probe = host_probe
        self.samples: list = []     # seconds per operation
        self.traced: list = []      # whether that operation ran traced
        self.extra: list = []       # (seconds, traced, operations before it) between operations
        self.probes: list = []      # seconds per reference-kernel run
        self.failed = 0
        self.deadline = math.inf
        self._on = False
        self._t0 = 0.0

    def start(self):
        if self.host_probe:
            hostspeed.probe()       # makes the kernel's inputs
            self.probes.append(hostspeed.probe())
        if self.seconds is not None:
            self.deadline = clock() + self.seconds

    def expired(self) -> bool:
        return clock() >= self.deadline

    def exhausted(self) -> bool:
        return self.max_ops is not None and len(self.samples) >= self.max_ops

    def begin(self):
        if self.tracer is not None:
            i = len(self.samples)
            self._on = i % 2 == 1
            self.tracer.op_id = i
            if self._on:
                self.tracer.enable()
            else:
                self.tracer.disable()
        self._t0 = clock()

    def end(self):
        self.samples.append(clock() - self._t0)
        self.traced.append(self._on)
        if self.host_probe:
            self.probes.append(hostspeed.probe())

    def add_extra(self, seconds: float):
        self.extra.append((seconds, self._on, len(self.samples)))

    def fail(self):
        self.failed += 1

    def pause_trace(self):
        if self.tracer is not None:
            self.tracer.disable()
        self._on = False


def _reconcile(traced_rows: dict, traced_total: int, spec: costmodel.ArchSpec,
               keep, expected_total: int) -> dict:
    """Compare traced MACs per cost-model row and in total with the spec."""
    report = costmodel.emit_report(spec)
    analytic = {name: macs for name, macs, _ in report.rows if keep(name) and macs}
    rows = {}
    for name in sorted(set(analytic) | set(traced_rows)):
        a = analytic.get(name, 0)
        t = traced_rows.get(name, {}).get("macs", 0)
        rows[name] = {"analytic_macs": a, "traced_macs": t, "match": a == t}
    analytic_total = sum(analytic.values())
    ok = (all(r["match"] for r in rows.values()) and traced_total == analytic_total
          == expected_total)
    return {"ok": ok, "spec": spec.name, "analytic_total": analytic_total,
            "traced_total": traced_total, "expected_total": expected_total, "rows": rows}


def _traced_macs(tracer: Tracer, fn):
    """Run fn once under the tracer; return (result, rows, total forward MACs)."""
    tracer.op_id = 0
    with tracer:
        result = fn()
    by_name, by_row = tracer.summary([0])
    total = sum(v["macs"] for k, v in by_name.items() if k.startswith("ops."))
    return result, by_row, total


class Workload:
    name = ""
    dtype = "f64"
    op_unit = ""
    items_per_op = 1
    matmul_rows: dict = {}

    def __init__(self, seed: int):
        self.seed = seed

    def rows(self) -> dict:
        """id(weight) -> cost-model row name, for the tracer."""
        return {}

    def tracer(self) -> Tracer:
        return Tracer(rows=self.rows(), matmul_rows=self.matmul_rows)

    def result(self) -> dict:
        return {}

    def measure_loop(self, seconds: int, tracer) -> Loop:
        """The timed loop of a measure run: operations until `seconds` pass."""
        return Loop(seconds=seconds, tracer=tracer, host_probe=True)

    def install_hooks(self):
        """Runs after setup, outside any set-up tracing, so that tracers
        built later wrap the hooks and restoring a tracer keeps them."""

    # simple workloads: one call per operation
    def op(self, i):
        raise NotImplementedError

    def check(self, i, out) -> bool:
        return True

    def run(self, loop: Loop):
        i = 0
        while not (loop.expired() or loop.exhausted()):
            loop.begin()
            out = self.op(i)
            loop.end()
            if not self.check(i, out):
                loop.fail()
            del out
            i += 1
        loop.pause_trace()


def _seg_rows(params) -> dict:
    rows = {id(layer.conv.weight): f"backbone.conv{i + 1}"
            for i, layer in enumerate(params.backbone.layers)}
    rows.update(_decoder_rows(params.hgd))
    rows[id(params.classifier.weight)] = "decoder.classifier"
    return rows


def _decoder_rows(p) -> dict:
    return {id(p.compress8.weight): "decoder.compress8",
            id(p.compress16.weight): "decoder.compress16",
            id(p.compress32.weight): "decoder.compress32",
            id(p.bases.weight): "decoder.bases",
            id(p.weighting.weight): "decoder.weighting",
            id(p.guidance.weight): "decoder.guidance",
            id(p.assembly.weight): "decoder.assembly_conv"}


class _SegBase(Workload):
    matmul_rows = MATMUL_ROWS
    num_classes = 5

    def _data(self):
        self.samples = synthdata.synth_dataset(seed=2024 + self.seed, count=32, size=64,
                                               num_classes=self.num_classes)

    def _init_params(self):
        return ef.init_seg_params(ef.tiny_backbone_config(), ef.tiny_hgd_config(),
                                  self.num_classes, np.random.default_rng(17 + self.seed))

    def rows(self):
        return _seg_rows(self.params)

    def _reconcile_forward(self) -> dict:
        image = self.samples[0].image
        _, rows, total = _traced_macs(self.tracer(),
                                      lambda: ef.segment_forward(image, self.params))
        return _reconcile(rows, total, costmodel.toy_seg_spec(), lambda name: True,
                          SEG_FORWARD_MACS)


class _Stop(Exception):
    """Raised from the step hook to end a training run at a step boundary."""


class SegTrain(_SegBase):
    """The demo-seg preset trained for a fixed step budget, no early stop.

    The library's own `train_segmenter` runs the loop. Hooks on the names
    it calls (`poly_lr` opens a step, `sgd_step` closes it, `evaluate` is
    the periodic full-set scoring) time each step and end the run after
    BUDGET steps; an unreachable accuracy target keeps the evaluation every
    25 steps on without an early stop. Each further budget restarts training
    from the same initialization.

    A measure run trains a fixed number of whole budgets, about as many as
    `seconds` holds at NOMINAL_BUDGET_S each, rather than until a deadline:
    the preset diverges at some seeds (ROADMAP item 4), and a fixed step
    count makes its failed-step count the same on every run of a seed.
    """

    name = "seg-train"
    op_unit = "SGD step of batch 16"
    items_per_op = 16
    BUDGET = 100
    NOMINAL_BUDGET_S = 8.0

    def measure_loop(self, seconds, tracer):
        budgets = max(1, round(seconds / self.NOMINAL_BUDGET_S))
        return Loop(max_ops=budgets * self.BUDGET, tracer=tracer, host_probe=True)

    def setup(self):
        self._data()
        self.params = self._init_params()
        self.cfg = ef.tiny_train_config()
        self.loop = None
        self.last_acc = None
        self.final_accs = []
        ef.segment_forward(self.samples[0].image, self.params)    # warm the resize caches

    def install_hooks(self):
        poly_lr, sgd_step, evaluate = ef.poly_lr, ef.sgd_step, ef.evaluate

        @functools.wraps(poly_lr)
        def step_start(it, cfg):
            self._step_start(it)
            return poly_lr(it, cfg)

        @functools.wraps(sgd_step)
        def step_end(*args, **kwargs):
            state = sgd_step(*args, **kwargs)
            self.loop.end()
            return state

        @functools.wraps(evaluate)
        def timed_evaluate(*args, **kwargs):
            t0 = clock()
            acc, miou = evaluate(*args, **kwargs)
            self.loop.add_extra(clock() - t0)
            self.last_acc = acc
            return acc, miou

        ef.poly_lr, ef.sgd_step, ef.evaluate = step_start, step_end, timed_evaluate

    def _step_start(self, it):
        loop = self.loop
        if it > 0 and not self._finite():
            loop.fail()
        if it == self.BUDGET:
            self.final_accs.append(self.last_acc)
            raise _Stop
        if loop.exhausted():
            raise _Stop
        loop.begin()

    def _finite(self) -> bool:
        for _, t in self.params.named_parameters():
            if not np.isfinite(t.data).all():
                return False
            if t.grad is not None and not np.isfinite(t.grad).all():
                return False
        return True

    def verify(self) -> dict:
        return {"macs": self._reconcile_forward()}

    def run(self, loop: Loop):
        self.loop = loop
        while True:
            try:
                ef.train_segmenter(self.samples, self.params, self.cfg, self.num_classes,
                                   np.random.default_rng(3 + self.seed), eval_every=25,
                                   target_pixacc=math.inf)
            except _Stop:
                pass
            else:
                raise RuntimeError("train_segmenter returned before the step budget")
            if loop.exhausted():
                break
            loop.pause_trace()
            self.params = self._init_params()
        loop.pause_trace()

    def result(self) -> dict:
        accs = self.final_accs
        return {"final_pixacc": accs[0] if accs else None,
                "budget_steps": self.BUDGET, "budgets_completed": len(accs),
                "checks": {"budget_reruns_identical": {"ok": len(set(accs)) <= 1,
                                                   "final_pixacc": accs}}}


class SegInfer(_SegBase):
    """Forward plus label prediction of one 64x64 image per call, at the
    seed's initialization (untrained), cycling through the 32 images."""

    name = "seg-infer"
    op_unit = "image"

    def setup(self):
        self._data()
        self.params = self._init_params()
        self.expected = None
        self.op(0)      # warm the resize caches

    def op(self, i):
        image = self.samples[i % len(self.samples)].image
        return ef.predict_labels(ef.segment_forward(image, self.params))

    def check(self, i, labels) -> bool:
        return self.expected is None or np.array_equal(labels, self.expected[i % len(self.expected)])

    def verify(self) -> dict:
        stored = [reference.segment_logits(s.image.data, self.params).argmax(axis=0)
                  for s in self.samples]
        mismatched = sum(int((self.op(i) != ref).sum()) for i, ref in enumerate(stored))
        self.expected = stored
        return {"macs": self._reconcile_forward(),
                "reference_labels": {"ok": mismatched == 0, "mismatched_pixels": mismatched}}


class DecodePaper(Workload):
    """hgd_forward at paper width, forward only, in f32."""

    name = "decode-paper"
    dtype = "f32"
    op_unit = "decoder forward"
    matmul_rows = MATMUL_ROWS
    CONFIG = dict(n_codewords=256, codeword_dim=1024, compressed_channels=512,
                  guidance_channels=1024, transfer_enabled=True)
    TAPS = ((512, 64), (1024, 32), (2048, 16))

    def setup(self):
        rng = np.random.default_rng(2024 + self.seed)
        self.taps = [Tensor(rng.standard_normal((c, g, g), dtype=np.float32))
                     for c, g in self.TAPS]
        self.params = decoder.init_hgd_params(
            tuple(c for c, _ in self.TAPS), decoder.HgdConfig(**self.CONFIG),
            np.random.default_rng(17 + self.seed), np.float32)
        self.first = None
        self.op(0)

    def rows(self):
        return _decoder_rows(self.params)

    def op(self, i):
        return decoder.hgd_forward(*self.taps, self.params)

    def check(self, i, out) -> bool:
        return self.first is None or np.array_equal(out.data, self.first)

    def verify(self) -> dict:
        out, rows, total = _traced_macs(self.tracer(), lambda: self.op(0))
        spec = costmodel.efficientfcn_spec(n=self.CONFIG["n_codewords"],
                                           c=self.CONFIG["codeword_dim"], refined=False)
        macs = _reconcile(rows, total, spec,
                          lambda name: name.startswith("decoder.") and name != "decoder.classifier",
                          DECODE_PAPER_MACS)
        ref = reference.decoder(*(t.data for t in self.taps), self.params)
        err = float(np.abs(out.data - ref).max())
        scale = float(np.abs(ref).max())
        self.first = out.data
        return {"macs": macs,
                "reference_output": {"ok": out.data.dtype == np.float32 and err <= DECODE_TOL * scale,
                                     "max_abs_err": err, "max_abs_ref": scale,
                                     "tolerance": f"{DECODE_TOL} * max|ref|"}}


class FpnDecode(Workload):
    """fpn_decode with k=4 shared stages, forward plus the backward pass of
    the mean over all output levels, in f64."""

    name = "fpn-decode"
    op_unit = "decode (forward + backward)"
    CONFIG = dict(n_codewords=32, codeword_dim=64, k_recurrence=4, share_params=True,
                  output_channels=64)
    LEVELS = ((56, 88), (28, 44), (14, 22), (7, 11), (4, 6))

    def setup(self):
        rng = np.random.default_rng(2024 + self.seed)
        ch = self.CONFIG["output_channels"]
        self.pyramid = fpn.Pyramid(*[Tensor(rng.standard_normal((ch, h, w)))
                                     for h, w in self.LEVELS])
        self.count = sum(t.data.size for t in self.pyramid.levels())
        self.params = fpn.init_fpn_params(fpn.FpnConfig(**self.CONFIG),
                                          np.random.default_rng(17 + self.seed))
        self.tensors = [t for _, t in self.params.named_parameters()]
        self.first = None
        self.op(0)

    def op(self, i):
        for t in self.tensors:
            t.zero_grad()
        out = fpn.fpn_decode(self.pyramid, self.params)
        total = None
        for level in out.levels():
            s = ops.sum_all(level)
            total = s if total is None else ops.add(total, s)
        ops.scalar_scale(total, 1.0 / self.count).backward()
        return [level.data for level in out.levels()] + [t.grad for t in self.tensors]

    def check(self, i, arrays) -> bool:
        if not all(a is not None and np.isfinite(a).all() for a in arrays):
            return False
        return self.first is None or all(np.array_equal(a, b) for a, b in zip(arrays, self.first))

    def verify(self) -> dict:
        arrays, _, total = _traced_macs(self.tracer(), lambda: self.op(0))
        finite = self.check(0, arrays)
        self.first = arrays
        return {"finite_outputs_and_grads": {"ok": finite},
                "macs": {"traced_total": total}}


WORKLOADS = {w.name: w for w in (SegTrain, SegInfer, DecodePaper, FpnDecode)}
