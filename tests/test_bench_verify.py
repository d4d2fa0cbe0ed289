"""The benchmark's own correctness checks, run as tests.

Each hgdbench workload at seed 0 is set up and verified the way a
benchmark run does before it times anything, without its timing hooks, so
a change that breaks a library name or figure the benchmark relies on
fails here as well as in the benchmark. Two workloads also run a few
operations under the benchmark's tracer, as a `--trace 1` run does, and
their per-layer metrics are read back. `hgd demo-seg` must also build
the benchmark's seg-train run for the same seed.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

import hgd.cli
from hgd.efficientfcn import TrainResult

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "hgdbench"))
import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_benchmark_workload_verifies(name):
    workload = workloads.WORKLOADS[name](0)
    workload.setup()
    checks = workload.verify()
    # as in hgdbench/run.py, a check without "ok" is information only
    gated = {key: check["ok"] for key, check in checks.items() if "ok" in check}
    assert gated, checks
    assert all(gated.values()), gated


@pytest.mark.parametrize("name", ["fpn-decode", "seg-infer", "seg-train"])
def test_traced_loop_reports_finite_layer_metrics(name, monkeypatch):
    """The path of a measure run with --trace 1: set up, verify, then four
    operations in the benchmark's Loop, every other one traced, and the
    per-layer metrics the worker reports from them."""
    workload = workloads.WORKLOADS[name](0)
    workload.setup()
    # seg-train's hooks replace these library names; restore them afterwards
    for hooked in ("poly_lr", "sgd_step", "evaluate"):
        monkeypatch.setattr(workloads.ef, hooked, getattr(workloads.ef, hooked))
    workload.install_hooks()
    workload.verify()
    tracer = workload.tracer()
    loop = workloads.Loop(max_ops=4, tracer=tracer)
    loop.start()
    try:
        workload.run(loop)
    finally:
        tracer.disable()
    reported = worker.layer_metrics(tracer, loop, workloads.Tracer())
    metrics, spans = reported["metrics"], reported["spans"]
    assert loop.failed == 0
    assert loop.traced == [False, True, False, True]
    assert all(np.isfinite(value) for value in metrics.values()), metrics
    if name == "fpn-decode":
        assert metrics["ops.maxpool2x2.calls"] == 25
        assert metrics["ops.macs"] == 35_381_248
        # the decode runs each stage through the public stage function, and
        # forms p3 once
        assert spans["fpn.fpn_decode_once_full"]["calls_per_op"] == 4
        assert spans["ops.add_upsampled"]["calls_per_op"] == 1
    elif name == "seg-train":
        # one SGD step of batch 16 runs 16 segmentation forwards
        assert metrics["ops.macs"] == 16 * workloads.SEG_FORWARD_MACS == 11_362_304
    else:
        # the decoder forward runs once through each function whose span the
        # benchmark reports or keys rows on
        for span in ("decoder.fuse_multiscale", "decoder.generate_codewords",
                     "decoder.codewords_from", "decoder.assemble_from",
                     "decoder.hgd_forward_full"):
            assert spans[span]["calls_per_op"] == 1, span


# the preset's seg values as a config file; the train keys left out take
# TrainConfig defaults equal to tiny_train_config's
PRESET_SEG = {"input_size": 64, "num_classes": 5, "precision": "f64",
              "hgd": {"n": 8, "codeword_dim": 32, "compressed": 16, "guidance": 32,
                      "transfer": True},
              "train": {"base_lr": 0.05, "batch": 16}}


@pytest.mark.parametrize("seed, use_config", [(0, False), (2, True)],
                         ids=["preset", "config-seed-2"])
def test_demo_seg_builds_the_benchmark_seg_run(tmp_path, monkeypatch, seed, use_config):
    seen = {}

    def record(samples, params, cfg, num_classes, rng, **kwargs):
        seen["images"] = [s.image.data.copy() for s in samples]
        seen["labels"] = [s.label.copy() for s in samples]
        seen["params"] = [(name, t.data.copy()) for name, t in params.named_parameters()]
        seen["cfg"] = cfg
        seen["rng"] = rng.bit_generator.state
        return TrainResult(history=[], final_pixacc=0.0, final_miou=0.0)

    monkeypatch.setattr(hgd.cli, "train_segmenter", record)
    argv = ["demo-seg", "--out", str(tmp_path / "run")]
    if use_config:
        path = tmp_path / "run.json"
        path.write_text(json.dumps({**PRESET_SEG, "seed": seed}))
        argv += ["--config", str(path)]
    assert hgd.cli.main(argv) == 0

    bench = workloads.SegTrain(seed)
    bench.setup()
    assert len(seen["images"]) == len(bench.samples)
    for image, label, sample in zip(seen["images"], seen["labels"], bench.samples):
        assert np.array_equal(image, sample.image.data)
        assert np.array_equal(label, sample.label)
    want = [(name, t.data) for name, t in bench.params.named_parameters()]
    assert [name for name, _ in seen["params"]] == [name for name, _ in want]
    assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(seen["params"], want))
    assert seen["cfg"] == bench.cfg
    assert seen["rng"] == np.random.default_rng(3 + seed).bit_generator.state
