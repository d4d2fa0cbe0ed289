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
    # fusions are read by the branch convs' closures (saved), never held as
    # tensors by the caller, and they keep each coarse level, not its 4x
    # upsampled copy; the tape read 32.01 MB while every op output held its
    # parents, and 20.48 MB while the fusions kept upsampled copies
    tape_bytes = _load("tape_bytes")
    rows = tape_bytes.run_one("fpn-decode").rows
    for op in ("upsampled_weighted_sum", "maxpool2x2", "matmul"):
        assert rows[op]["data"] == 0, op
    assert rows["upsampled_weighted_sum"]["saved"] > 0
    tape = sum(row["data"] + row["saved"] for row in rows.values())
    assert tape <= 17.5 * tape_bytes.MB


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


@pytest.mark.parametrize("saved_threads, code", [(None, 0), (1, 0), (2, 2)])
def test_output_digest_check_refuses_another_thread_count(tmp_path, monkeypatch, capsys,
                                                          saved_threads, code):
    # a digest taken at another BLAS thread count is not compared: exit 2,
    # naming both counts, right after the threads line; one saved without a
    # threads line is compared as it is
    output_digest = _load("output_digest")
    monkeypatch.setattr(output_digest, "digest_lines", lambda: iter(["threads 1", *LINES]))
    path = tmp_path / "digest.txt"
    head = [] if saved_threads is None else [f"threads {saved_threads}"]
    path.write_text("\n".join(head + LINES) + "\n")
    assert output_digest.main(["--check", str(path)]) == code
    out, err = capsys.readouterr()
    if code == 2:
        assert out.splitlines() == ["threads 1"]
        assert err.splitlines() == [f"threads differ: 1 here, 2 in {path}; "
                                    "digests at different counts are not compared"]
    else:
        assert out.splitlines() == ["threads 1", *LINES] and err == ""


def test_output_digest_first_line_is_the_effective_blas_thread_count():
    output_digest = _load("output_digest")
    from worker import blas_info
    first = next(output_digest.workload_lines())
    assert first == f"threads {blas_info()[0]}"
    assert output_digest.threads_of(first) == blas_info()[0]


def test_output_digest_hashes_each_cost_arch_and_gradcheck(monkeypatch):
    # the workload lines are the slow part; the CLI lines follow them
    output_digest = _load("output_digest")
    monkeypatch.setattr(output_digest, "workload_lines", lambda: iter(()))
    lines = list(output_digest.digest_lines())
    assert [output_digest.line_name(line) for line in lines] == \
        [f"cost {arch}" for arch in output_digest.cli._ARCHS] + ["gradcheck"]
    assert len(set(lines)) == len(lines)


def test_output_digest_tree_sha_covers_each_file_path_and_bytes(tmp_path):
    output_digest = _load("output_digest")

    def tree(files):
        root = tmp_path / str(len(list(tmp_path.iterdir())))
        for name, data in files.items():
            (root / name).parent.mkdir(parents=True, exist_ok=True)
            (root / name).write_bytes(data)
        return output_digest.tree_sha(root)

    base = tree({"a.hgdt": b"xy", "sub/b.pgm": b"z"})
    assert tree({"sub/b.pgm": b"z", "a.hgdt": b"xy"}) == base
    changed = [tree({"a.hgdt": b"xY", "sub/b.pgm": b"z"}),     # a byte
               tree({"c.hgdt": b"xy", "sub/b.pgm": b"z"}),     # a name
               tree({"a.hgdt": b"x", "sub/b.pgm": b"yz"}),     # a boundary
               tree({"a.hgdt": b"xy"})]                        # a file
    assert len({base, *changed}) == 1 + len(changed)


def test_bench_pairs_summarize_counts_wins_and_gaps():
    bench_pairs = _load("bench_pairs")
    parent, change = [10.0, 11.0, 12.0, 13.0], [9.0, 11.0, 10.0, 14.0]
    pairs = [{"parent": dict.fromkeys(bench_pairs.METRICS, a),
              "change": dict.fromkeys(bench_pairs.METRICS, b)} for a, b in zip(parent, change)]
    summary = bench_pairs.summarize(pairs)
    assert set(summary) == set(bench_pairs.METRICS)
    for name, higher in bench_pairs.METRICS.items():
        row = summary[name]
        # the change reads lower in pairs 0 and 2, higher in pair 3 and ties in pair 1
        assert row["change_better"] == (1 if higher else 2), name
        assert row["pairs"] == 4
        assert round(row["ratio_of_medians"], 3) == 0.913
        assert row["parent_iqr"] == pytest.approx(1.5)
        assert row["gap_of_medians"] == pytest.approx(1.0)
        assert row["parent"]["median"] == pytest.approx(11.5)
        assert row["change"]["median"] == pytest.approx(10.5)
