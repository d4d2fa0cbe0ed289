import copy
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hgd import fpn
from hgd.cli import _ARCHS, main
from hgd.config import dtype_of, load_run_config, tiny_run
from hgd.hgdt import load_checkpoint, load_tensor, save_checkpoint, save_tensor
from hgd.tensor import PRECISIONS, Tensor

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def total_from_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["layer", "macs", "params"]
    assert rows[-1][0] == "total"
    return int(rows[-1][1]), int(rows[-1][2])


TINY_SEG = {"seed": 5, "input_size": 32, "num_classes": 4,
            "hgd": {"n": 4, "codeword_dim": 16, "compressed": 8, "guidance": 16,
                    "transfer": True},
            "train": {"base_lr": 0.02, "max_iter": 8, "batch": 4},
            "precision": "f64"}

TINY_FPN = {"seed": 3, "input_size": 64,
            "fpn": {"n": 4, "c": 8, "k": 2, "share_params": True},
            "precision": "f64"}


def write_config(tmp_path, doc, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# --------------------------------------------------------------------- cost

def test_cost_resnet_total(capsys):
    code, out, _ = run_cli(capsys, "cost", "resnet101", "--input", "512")
    assert code == 0
    macs, params = total_from_csv(out)
    assert abs(macs - 44.6e9) <= 0.10 * 44.6e9
    assert params > 50e6


def test_cost_dilation_ratio(capsys):
    _, std_out, _ = run_cli(capsys, "cost", "resnet101")
    _, dil_out, _ = run_cli(capsys, "cost", "resnet101-dilated")
    std, _ = total_from_csv(std_out)
    dil, _ = total_from_csv(dil_out)
    assert abs(dil / std - 5.01) <= 0.05 * 5.01


def test_cost_unknown_arch_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "cost", "lenet")
    assert code == 2
    assert "invalid choice" in err


def test_cost_output_is_deterministic(capsys):
    _, a, _ = run_cli(capsys, "cost", "efficientfcn")
    _, b, _ = run_cli(capsys, "cost", "efficientfcn")
    assert a == b


def test_cost_k_flag_shifts_total_linearly(capsys):
    totals = []
    for k in ("1", "2", "3"):
        _, out, _ = run_cli(capsys, "cost", "hgd-fpn", "--k", k)
        totals.append(total_from_csv(out)[0])
    assert totals[1] - totals[0] == totals[2] - totals[1]


def test_cost_rectangular_input(capsys):
    code, out, _ = run_cli(capsys, "cost", "fpn-baseline", "--input", "896x1408")
    assert code == 0
    assert total_from_csv(out)[0] > 0


@pytest.mark.parametrize("argv, named", [
    (("resnet101", "--input", "tiny"), "--input"),
    (("resnet101", "--input", "0"), "--input"),
    (("unet", "--input", "32x-32"), "--input"),
    (("efficientfcn", "--n", "-5"), "n_codewords"),
    (("hgd-fpn-toy", "--c", "-2"), "codeword_dim"),
    (("resnet101", "--n", "-5"), "--n"),
    (("efficientfcn", "--k", "0"), "--k"),
    (("fpn-baseline", "--c", "-3"), "--c"),
    (("unet", "--k", "2"), "--k"),
], ids=["input-word", "input-zero", "input-negative", "efficientfcn-n", "toy-c",
        "resnet-unread-n", "efficientfcn-unread-k", "fpn-baseline-unread-c", "unet-unread-k"])
def test_cost_bad_input_flag(capsys, argv, named):
    code, out, err = run_cli(capsys, "cost", *argv)
    assert code == 2
    assert err.startswith("config error:") and named in err
    assert out == ""


DEFAULT_TOTALS = [
    ("resnet101", 43775426560, 54275772),
    ("resnet101-dilated", 225691303936, 54275772),
    ("resnet101-backbone", 40747663360, 42447488),
    ("efficientfcn", 64973963264, 55290044),
    ("unet", 98855550976, 77869244),
    ("fpn-baseline", 250953754624, 41727267),
    ("hgd-fpn", 601043920896, 52937265),
    ("hgd-fpn-toy", 18496, 854),
]


@pytest.mark.parametrize("arch, macs, params", DEFAULT_TOTALS)
def test_cost_totals_at_defaults(capsys, arch, macs, params):
    # a new architecture must pin its default totals here
    assert {a for a, _, _ in DEFAULT_TOTALS} == set(_ARCHS)
    code, out, _ = run_cli(capsys, "cost", arch)
    assert code == 0
    assert total_from_csv(out) == (macs, params)


def test_cost_toy_input_is_the_input_image(capsys):
    """--input is the input image for every architecture: the preset's
    64x64 image is hgd-fpn-toy's default, a 16x16 p3."""
    code, out, _ = run_cli(capsys, "cost", "hgd-fpn-toy", "--input", "64")
    assert code == 0
    assert out == run_cli(capsys, "cost", "hgd-fpn-toy")[1]


@pytest.mark.parametrize("arch", list(_ARCHS))
def test_cost_knobs_follow_the_arch_table(capsys, arch):
    """Every knob an architecture reads reaches its builder; every other
    one is a config error. 3 is no architecture's default width or stage
    count."""
    _, reads = _ARCHS[arch]
    default = run_cli(capsys, "cost", arch)[1]
    for knob in ("n", "c", "k"):
        code, out, err = run_cli(capsys, "cost", arch, f"--{knob}", "3")
        if knob in reads:
            assert (code, err) == (0, "")
            assert total_from_csv(out) != total_from_csv(default)
        else:
            assert code == 2
            assert err.startswith(f"config error: --{knob} is not read by {arch}")
            assert out == ""


# --------------------------------------------------------------------- dump

def test_dump_describes_tensor(tmp_path, capsys):
    path = tmp_path / "t.hgdt"
    save_tensor(path, np.arange(6, dtype=np.float64).reshape(2, 3))
    code, out, _ = run_cli(capsys, "dump", "--tensor", str(path))
    assert code == 0
    assert "HGDT f64 rank 2 dims 2x3" in out
    assert "values 0 1 2 3 4 5" in out


def test_manifest_and_dump_name_each_precision_from_the_table(tmp_path, capsys):
    save_checkpoint(tmp_path, {name: np.zeros(2, dtype) for name, dtype in PRECISIONS.items()})
    entries = json.loads((tmp_path / "manifest.json").read_text())["tensors"]
    assert {name: e["dtype"] for name, e in entries.items()} == {"f32": "f32", "f64": "f64"}
    for name, entry in entries.items():
        code, out, _ = run_cli(capsys, "dump", "--tensor", str(tmp_path / entry["file"]))
        assert (code, out.splitlines()[0]) == (0, f"HGDT {name} rank 1 dims 2")


def test_dump_empty_tensor(tmp_path, capsys):
    path = tmp_path / "empty.hgdt"
    save_tensor(path, np.zeros((0, 3)))
    code, out, err = run_cli(capsys, "dump", "--tensor", str(path))
    assert (code, err) == (0, "")
    assert out == "HGDT f64 rank 2 dims 0x3\nempty\n"


def test_dump_missing_file(tmp_path, capsys):
    code, _, err = run_cli(capsys, "dump", "--tensor", str(tmp_path / "no.hgdt"))
    assert code == 1
    assert "no.hgdt" in err


def test_dump_corrupt_file(tmp_path, capsys):
    path = tmp_path / "bad.hgdt"
    path.write_bytes(b"not a tensor at all")
    code, _, err = run_cli(capsys, "dump", "--tensor", str(path))
    assert code == 1
    assert "magic" in err


# ---------------------------------------------------------------- gradcheck

def test_gradcheck_default_passes(capsys):
    code, out, _ = run_cli(capsys, "gradcheck")
    assert code == 0
    assert "all 52 parameter groups passed" in out
    assert "[segmentation-tiny]" in out
    assert "[pyramid-tiny]" in out


def test_gradcheck_broken_backward_fails(capsys):
    code, _, err = run_cli(capsys, "gradcheck", "--break-backward")
    assert code == 1
    assert "worst offender" in err


def test_gradcheck_refuses_f32(tmp_path, capsys):
    cfg = write_config(tmp_path, {"precision": "f32"})
    code, _, err = run_cli(capsys, "gradcheck", "--config", cfg)
    assert code == 2
    assert "f64" in err


# ----------------------------------------------------------------- demo-seg

def test_demo_seg_with_config_writes_artifacts(tmp_path, capsys):
    cfg = write_config(tmp_path, TINY_SEG)
    out_dir = tmp_path / "run1"
    code, _, _ = run_cli(capsys, "demo-seg", "--config", cfg, "--out", str(out_dir))
    assert code == 0

    log = (out_dir / "train_log.csv").read_text()
    assert log.splitlines()[0] == "iter,lr,loss,pixAcc"
    assert len(log.splitlines()) == 1 + TINY_SEG["train"]["max_iter"]

    summary = json.loads((out_dir / "metrics.json").read_text())
    assert set(summary) == {"pixAcc", "mIoU", "steps"}

    pgms = sorted(out_dir.glob("*.pgm"))
    assert len(pgms) == TINY_SEG["hgd"]["n"]
    header = pgms[0].read_bytes()[:15]
    assert header.startswith(b"P5\n32 32\n255\n")

    tensors = load_checkpoint(out_dir / "checkpoint")
    assert "classifier.weight" in tensors
    assert any(name.startswith("hgd.") for name in tensors)


def test_demo_seg_rerun_is_identical(tmp_path, capsys):
    cfg = write_config(tmp_path, TINY_SEG)
    outs = []
    for name in ("a", "b"):
        out_dir = tmp_path / name
        assert run_cli(capsys, "demo-seg", "--config", cfg, "--out", str(out_dir))[0] == 0
        outs.append(out_dir)
    assert (outs[0] / "metrics.json").read_bytes() == (outs[1] / "metrics.json").read_bytes()
    assert (outs[0] / "train_log.csv").read_bytes() == (outs[1] / "train_log.csv").read_bytes()
    assert (outs[0] / "weighting_00.pgm").read_bytes() == (outs[1] / "weighting_00.pgm").read_bytes()


def test_demo_seg_default_preset_overfits(tmp_path, capsys):
    """The pinned preset must clear 99% pixel accuracy on its train set."""
    out_dir = tmp_path / "demo"
    code, out, _ = run_cli(capsys, "demo-seg", "--out", str(out_dir))
    assert code == 0
    summary = json.loads((out_dir / "metrics.json").read_text())
    assert summary["pixAcc"] >= 0.99
    assert summary["steps"] <= 500
    assert len(list(out_dir.glob("*.pgm"))) == 8


def test_demo_seg_diverged_run_exits_one(tmp_path, capsys):
    """A run whose loss goes non-finite is an error: exit 1 naming the first
    NaN step, the training log kept and no metrics, maps or checkpoint."""
    cfg = write_config(tmp_path, {**TINY_SEG, "train": {"base_lr": 1e6, "max_iter": 6,
                                                        "batch": 2}})
    out_dir = tmp_path / "diverged"
    with np.errstate(all="ignore"):
        code, out, err = run_cli(capsys, "demo-seg", "--config", cfg, "--out", str(out_dir))
    assert code == 1
    assert "error: training diverged: loss nan at step 2" in err
    log = (out_dir / "train_log.csv").read_text().splitlines()
    assert log[3].split(",")[2] == "nan"
    assert sorted(p.name for p in out_dir.iterdir()) == ["train_log.csv"]
    assert out == ""


def test_demo_seg_overflowing_final_model_exits_one(tmp_path, capsys):
    """One step at a huge rate leaves every loss and parameter finite but the
    final model's decoder overflows: that too is a diverged run, reported
    before metrics.json or any map is written."""
    cfg = write_config(tmp_path, {"input_size": 64, "num_classes": 5, "precision": "f64",
                                  "hgd": {"n": 8, "codeword_dim": 32, "compressed": 16,
                                          "guidance": 32},
                                  "train": {"base_lr": 1e308, "max_iter": 1, "batch": 16}})
    out_dir = tmp_path / "overflow"
    with np.errstate(all="ignore"):
        code, out, err = run_cli(capsys, "demo-seg", "--config", cfg, "--out", str(out_dir))
    assert code == 1
    assert "error: training diverged: non-finite decoder output on sample 0" in err
    log = (out_dir / "train_log.csv").read_text().splitlines()
    assert np.isfinite(float(log[1].split(",")[2]))
    assert sorted(p.name for p in out_dir.iterdir()) == ["train_log.csv"]
    assert out == ""


# ----------------------------------------------------------------- demo-fpn

def test_demo_fpn_writes_levels_and_manifest(tmp_path, capsys):
    """The output directory is a checkpoint of the five levels, with the
    strides, stage count and sharing mode in its meta."""
    out_dir = tmp_path / "fpn"
    code, _, _ = run_cli(capsys, "demo-fpn", "--out", str(out_dir))
    assert code == 0

    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["meta"] == {"stages": 2, "share_params": True,
                                "strides": {"p3": 4, "p4": 8, "p5": 16, "p6": 32, "p7": 64}}

    # load_checkpoint checks each file's dims and dtype against its entry
    levels = load_checkpoint(out_dir)
    assert list(levels) == ["p3", "p4", "p5", "p6", "p7"]
    for name, arr in levels.items():
        assert list(arr.shape) == manifest["tensors"][name]["dims"]
        assert arr.dtype == np.float64

    # tiny preset: 4 codewords, 16x16 top level
    assert len(list(out_dir.glob("*.pgm"))) == 4
    assert levels["p3"].shape == (8, 16, 16)
    assert levels["p7"].shape == (8, 1, 1)


def test_demo_fpn_round_trips_bit_exactly(tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert run_cli(capsys, "demo-fpn", "--out", str(a))[0] == 0
    assert run_cli(capsys, "demo-fpn", "--out", str(b))[0] == 0
    for name in ("p3", "p4", "p5", "p6", "p7"):
        assert (a / f"{name}.hgdt").read_bytes() == (b / f"{name}.hgdt").read_bytes()


@pytest.mark.parametrize("config", [None, {"seed": 4, "input_size": 32, "precision": "f32",
                                             "fpn": {"n": 4, "c": 8, "k": 3,
                                                     "share_params": False}}],
                         ids=["preset", "f32-unshared-k3"])
def test_demo_fpn_levels_equal_fpn_decode(tmp_path, capsys, config):
    """The levels demo-fpn writes, read back, are fpn_decode's of the same
    pyramid and parameters bit for bit: the CLI's stage loop and the
    library's are one computation."""
    path = config and write_config(tmp_path, config)
    argv = ["--config", path] if path else []
    assert run_cli(capsys, "demo-fpn", "--out", str(tmp_path / "fpn"), *argv)[0] == 0
    run = load_run_config(path) if path else tiny_run()
    dt = dtype_of(run)
    rng = np.random.default_rng(run.seed)
    pyramid = fpn.Pyramid(*[
        Tensor(rng.standard_normal((run.fpn.output_channels, h, w)).astype(dt))
        for h, w in fpn.pyramid_grids((run.input_size,) * 2).values()])
    params = fpn.init_fpn_stack(run.fpn, np.random.default_rng(run.seed + 1), dt)
    got = load_checkpoint(tmp_path / "fpn")
    for name, want in zip(fpn.LEVEL_NAMES, fpn.fpn_decode(pyramid, params).levels()):
        assert got[name].dtype == want.data.dtype, name
        assert got[name].tobytes() == want.data.tobytes(), name


def test_demo_fpn_with_config(tmp_path, capsys):
    cfg = write_config(tmp_path, TINY_FPN)
    out_dir = tmp_path / "fpn"
    code, _, _ = run_cli(capsys, "demo-fpn", "--config", cfg, "--out", str(out_dir))
    assert code == 0
    arr = load_tensor(out_dir / "p3.hgdt")
    assert arr.shape == (256, 16, 16)
    assert arr.dtype == np.float64
    assert len(list(out_dir.glob("*.pgm"))) == TINY_FPN["fpn"]["n"]


def test_demo_fpn_non_finite_levels_exit_one_before_writing(tmp_path, capsys):
    """Eight f32 stages overflow the levels: exit 1 naming the first stage
    and level that went non-finite, with no level, manifest or map written."""
    cfg = write_config(tmp_path, {"input_size": 64, "precision": "f32",
                                  "fpn": {"n": 4, "c": 8, "k": 8}})
    out_dir = tmp_path / "overflow"
    with np.errstate(all="ignore"):
        code, out, err = run_cli(capsys, "demo-fpn", "--config", cfg, "--out", str(out_dir))
    assert code == 1
    assert "error: decode diverged: level p3 is non-finite after stage 7 of 8" in err
    assert list(out_dir.iterdir()) == []
    assert out == ""


# ------------------------------------------------------------------- plumbing

def test_help_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert "gradcheck" in out and "demo-seg" in out


def test_bad_thread_cap_is_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("HGD_THREADS", "many")
    code, _, err = run_cli(capsys, "cost", "resnet101")
    assert code == 2
    assert "HGD_THREADS" in err


def test_zero_thread_cap_rejected(monkeypatch, capsys):
    monkeypatch.setenv("HGD_THREADS", "0")
    code, _, err = run_cli(capsys, "cost", "resnet101")
    assert code == 2
    assert "HGD_THREADS" in err


def test_invalid_thread_cap_sets_no_blas_variable():
    env = {k: v for k, v in os.environ.items() if not k.endswith("_THREADS")}
    env["PYTHONPATH"] = SRC
    probe = "import os, hgd; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    for raw, want in (("abc", "None"), ("0", "None"), ("3", "3")):
        env["HGD_THREADS"] = raw
        done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, check=True)
        assert done.stdout.strip() == want, raw


@pytest.mark.parametrize("order", ["hgd, numpy", "numpy, hgd"])
def test_default_thread_cap_reaches_openblas_in_either_import_order(order):
    # OpenBLAS reads its variable once, when numpy loads; when numpy is
    # already loaded, importing hgd resizes the pool itself
    env = {k: v for k, v in os.environ.items() if not k.endswith("_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join([SRC, str(Path(SRC).parent / "hgdbench")])
    probe = f"import {order}; from worker import blas_info; print(blas_info()[0])"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "1"


def _glibc():
    import ctypes
    try:
        libc = ctypes.CDLL(None)
    except (OSError, TypeError):
        return None
    return libc if hasattr(libc, "gnu_get_libc_version") else None


# mallinfo2() through ctypes around a 24 MiB array made after both imports:
# hblkhd (bytes in mmapped chunks) before and while it lives, arena (heap
# bytes) after it is freed
MALLINFO_PROBE = """
import ctypes, json
class Info(ctypes.Structure):
    _fields_ = [(f, ctypes.c_size_t) for f in ("arena", "ordblks", "smblks", "hblks",
                "hblkhd", "usmblks", "fsmblks", "uordblks", "fordblks", "keepcost")]
libc = ctypes.CDLL(None)
libc.mallinfo2.restype = Info
import {order}
before = libc.mallinfo2().hblkhd
array = numpy.ones(24 << 20, dtype=numpy.uint8)
during = libc.mallinfo2().hblkhd
del array
print(json.dumps([before, during, libc.mallinfo2().arena]))
"""


@pytest.mark.skipif(_glibc() is None, reason="libc is not glibc")
@pytest.mark.parametrize("order,user_threshold", [("hgd, numpy", None),
                                                  ("numpy, hgd", None),
                                                  ("numpy, hgd", "131072")],
                         ids=["hgd-first", "numpy-first", "user-mmap-threshold"])
def test_import_keeps_arrays_below_32mib_on_the_heap(order, user_threshold):
    # importing hgd has glibc serve a 24 MiB array from the heap and keep its
    # pages after it is freed; a MALLOC_* variable the user set wins
    if not hasattr(_glibc(), "mallinfo2"):
        pytest.skip("glibc older than 2.33 has no mallinfo2")
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
    env["PYTHONPATH"] = SRC
    if user_threshold is not None:
        env["MALLOC_MMAP_THRESHOLD_"] = user_threshold
    done = subprocess.run([sys.executable, "-c", MALLINFO_PROBE.format(order=order)],
                          env=env, capture_output=True, text=True, check=True)
    before, during, arena_after = json.loads(done.stdout)
    if user_threshold is None:
        assert during == before
        assert arena_after >= 24 << 20
    else:
        assert during >= before + (24 << 20)


@pytest.mark.parametrize("raw", [b"\xff\xfe{}", b'{"seed": ' + b"1" * 5000 + b"}"],
                         ids=["not-utf8", "huge-integer"])
def test_unreadable_config_is_exit_two(tmp_path, capsys, raw):
    path = tmp_path / "run.json"
    path.write_bytes(raw)
    code, out, err = run_cli(capsys, "gradcheck", "--config", str(path))
    assert code == 2
    assert err.startswith("config error:")
    assert out == ""


def test_config_error_surfaces_as_exit_two(tmp_path, capsys):
    cfg = write_config(tmp_path, {"hgd": {"codewords": 9}})
    code, _, err = run_cli(capsys, "demo-seg", "--config", cfg, "--out", str(tmp_path / "x"))
    assert code == 2
    assert "unknown keys" in err


@pytest.mark.parametrize("doc, code", [({"seed": -1}, 2), (None, 1)],
                         ids=["rejected-config", "missing-config"])
@pytest.mark.parametrize("command", ["demo-seg", "demo-fpn"])
def test_bad_config_creates_no_output_directory(tmp_path, capsys, command, doc, code):
    cfg = write_config(tmp_path, doc) if doc else str(tmp_path / "missing.json")
    out_dir = tmp_path / "out"
    got, out, _ = run_cli(capsys, command, "--config", cfg, "--out", str(out_dir))
    assert got == code
    assert out == ""
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["demo-seg", "demo-fpn"])
def test_unallocatable_config_exits_one_without_traceback(tmp_path, command):
    # a 2**24-pixel side needs petabytes, beyond any address space, so the
    # first large allocation fails at once without reserving anything
    cfg = write_config(tmp_path, {"input_size": 2**24})
    out_dir = tmp_path / "out"
    done = subprocess.run([sys.executable, "-m", "hgd", command, "--config", cfg,
                           "--out", str(out_dir)],
                          env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True)
    assert done.returncode == 1
    assert done.stderr.startswith("error: Unable to allocate")
    assert "Traceback" not in done.stderr
    assert done.stdout == ""
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize("path,value", [("precision", {}),
                                        ("train.base_lr", float("nan")),
                                        ("train.base_lr", -1),
                                        ("train.weight_decay", -1e-4)],
                         ids=["precision-object", "lr-nan", "lr-negative",
                              "decay-negative"])
@pytest.mark.parametrize("command", ["demo-seg", "gradcheck"])
def test_malformed_config_value_is_exit_two(tmp_path, capsys, command, path, value):
    doc = copy.deepcopy(TINY_SEG)
    *sections, key = path.split(".")
    target = doc
    for section in sections:
        target = target[section]
    target[key] = value
    argv = [command, "--config", write_config(tmp_path, doc)]
    if command == "demo-seg":
        argv += ["--out", str(tmp_path / "x")]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert f"config error: config.{path.split('.')[0]}" in err
    assert out == ""
