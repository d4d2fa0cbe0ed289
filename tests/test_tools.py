"""Smoke tests of the measurement scripts under tools/."""

import importlib.util
import types
from pathlib import Path

import numpy as np
import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tape_bytes_fpn_decode_keeps_leaf_grads_only():
    tape_bytes = _load("tape_bytes")
    account = tape_bytes.run_one("fpn-decode")
    rows = account.rows
    assert rows["leaf"]["grads"] > 0
    assert sum(row["grads"] for row in rows.values()) == rows["leaf"]["grads"]
    assert account.sweep_peak > 0
    assert "sweep peak live adjoints" in tape_bytes.report("fpn-decode", account)


def test_tape_bytes_fpn_decode_counts_only_live_data_and_saved_arrays():
    # an op output's data counts only while its tensor is alive: the
    # upsamplings and the fusions are read by the fusions' and branch
    # convs' closures (saved), never held as tensors by the caller; the
    # tape read 32.01 MB while every op output held its parents
    tape_bytes = _load("tape_bytes")
    rows = tape_bytes.run_one("fpn-decode").rows
    for op in ("nearest_resize", "weighted_sum", "maxpool2x2", "matmul"):
        assert rows[op]["data"] == 0, op
    assert rows["weighted_sum"]["saved"] > 0
    tape = sum(row["data"] + row["saved"] for row in rows.values())
    assert tape <= 21 * tape_bytes.MB


def test_tape_bytes_decode_paper_accounts_the_forward_graph():
    # decode-paper runs no sweep, so its output's graph is accounted: the
    # assembly conv takes the mean bases vector as its shift and keeps G, a
    # view of the output stack, not a 16 MiB G plus mean map; conv1x1 kept
    # 41.50 MB while the transfer add was a map of its own
    tape_bytes = _load("tape_bytes")
    account = tape_bytes.run_one("decode-paper")
    rows = account.rows
    assert account.sweeps == 0
    assert "broadcast_add_channel" not in rows
    assert 0 < rows["conv1x1"]["saved"] <= 26 * tape_bytes.MB
    assert sum(row["grads"] for row in rows.values()) == 0
    text = tape_bytes.report("decode-paper", account)
    assert "no backward pass" in text and "grads MB" not in text


def test_ab_hooks_installed_restores_every_efficientfcn_name():
    # a hook left installed would wrap the next workload run in the process
    ab = _load("ab")
    import workloads as wl
    own = dict(vars(wl.ef))
    workload = wl.SegTrain(0)
    workload.setup()
    with ab.hooks_installed(wl.ef, workload):
        assert wl.ef.sgd_step is not own["sgd_step"]
        wl.ef.predict_labels = lambda logits: own["predict_labels"](logits)
        with np.errstate(all="ignore"):
            workload.run(wl.Loop(max_ops=1))
    assert vars(wl.ef).keys() == own.keys()
    for name, value in vars(wl.ef).items():
        assert value is own[name], name
        if isinstance(value, types.FunctionType):
            assert not hasattr(value, "__wrapped__"), name


LINES = ["decode-paper " + "a" * 64,
         "fpn-decode levels " + "b" * 64,
         "seg-train seed 2 " + "c" * 64 + " failed 70"]


@pytest.mark.parametrize("saved, names", [
    (LINES, []),
    ([LINES[0], "fpn-decode levels " + "d" * 64, LINES[2]], ["fpn-decode levels"]),
    ([LINES[0], LINES[2].replace("failed 70", "failed 69"), "seg-infer " + "e" * 64],
     ["fpn-decode levels", "seg-train seed 2", "seg-infer"]),
])
def test_output_digest_check_names_each_differing_line(tmp_path, monkeypatch, capsys,
                                                       saved, names):
    output_digest = _load("output_digest")
    monkeypatch.setattr(output_digest, "digest_lines", lambda: iter(LINES))
    path = tmp_path / "digest.txt"
    path.write_text("\n".join(saved) + "\n")
    assert output_digest.main(["--check", str(path)]) == (1 if names else 0)
    out, err = capsys.readouterr()
    assert out.splitlines() == LINES
    assert err.splitlines() == [f"differs: {name}" for name in names]
