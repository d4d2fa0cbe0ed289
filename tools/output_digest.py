"""Print one sha256 per benchmark workload over the arrays it computes, and
one per deterministic CLI output.

Run from a checkout: `python3 tools/output_digest.py`. Two checkouts that
print the same lines compute the same bytes for: the decode-paper forward's
HgdTrace intermediates named in TRACE_FIELDS at seeds 0-2, the fpn-decode
output levels at seeds 0-4 and, on a line of their own, its parameter
gradients (so a change that only reorders the gradients' sums shows its
levels unchanged), the seg-infer labels of all 32 images (seed 0), every
seg-train parameter and gradient after 40 SGD steps at seed 0, and the same
after one whole 100-step budget at seed 2, where the preset diverges; that
line also prints the budget's failed-step count, the steps that seg-train
counts as failures for a non-finite parameter or gradient. The lines
`demo-seg` and `demo-fpn`, last of the workload lines (workload_lines),
hash the directory that the preset's `hgd demo-seg` and `hgd demo-fpn`
write: every file's relative path, size and bytes. The two checkouts also
print the same `hgd cost ARCH` CSV at defaults for every architecture (a
line `cost ARCH` each) and the same `hgd gradcheck` stdout (`gradcheck`). The
first line, `threads N`, is the effective OpenBLAS thread count the arrays
were computed at (read as tools/ab.py reads it); some fpn-decode products
take another summation path at another count, so digests from two counts
need not agree.

    python3 tools/output_digest.py --check FILE

prints the same lines and compares them with FILE, the output saved from
another checkout. It names each line that differs on stderr and exits 1,
or exits 0 when every line is the same. When FILE records another thread
count it compares nothing: it names both counts on stderr and exits 2 as
soon as its own count is printed. A FILE without a `threads` line, saved
before the line existed, is compared as it is.
"""

import argparse
import contextlib
import hashlib
import io
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "hgdbench"), str(ROOT / "tools")]

import workloads as wl  # noqa: E402
from ab import hooks_installed  # noqa: E402
from hgd import cli, decoder, fpn  # noqa: E402
from worker import blas_info  # noqa: E402


def sha(arrays):
    h = hashlib.sha256()
    for a in map(np.asarray, arrays):
        h.update(f"{a.dtype.str}{a.shape}".encode() + np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def ready(cls, seed):
    w = cls(seed)
    w.setup()
    return w


# the HgdTrace intermediates hashed, in this order; guidance_fused is built
# when read, so it is named here rather than found among the fields
TRACE_FIELDS = ("fused", "assembled", "guidance", "guidance_fused", "coeffs", "codewords",
                "bases", "weights", "m8", "m32")


def decode_paper_trace(w):
    trace = decoder.hgd_forward_full(*w.taps, w.params)
    return [getattr(trace, name).data for name in TRACE_FIELDS]


def seg_train_state(seed, steps):
    """Every parameter and gradient after `steps` SGD steps, and the failed
    steps; the step hooks are removed again afterwards."""
    w = ready(wl.SegTrain, seed)
    loop = wl.Loop(max_ops=steps)
    with hooks_installed(wl.ef, w), np.errstate(all="ignore"):
        w.run(loop)
    return [a for _, t in w.params.named_parameters() for a in (t.data, t.grad)], loop.failed


def cli_stdout(*argv) -> str:
    """What `hgd *argv` prints on stdout; the command must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    if code:
        raise RuntimeError(f"hgd {' '.join(argv)} exited {code}")
    return out.getvalue()


def tree_sha(directory) -> str:
    """sha256 over the relative path, size and bytes of every file under
    directory, in path order."""
    h = hashlib.sha256()
    root = Path(directory)
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        h.update(f"{path.relative_to(root).as_posix()} {len(data)}\n".encode() + data)
    return h.hexdigest()


def demo_sha(command) -> str:
    """tree_sha of what the preset `hgd COMMAND --out DIR` writes to DIR."""
    with tempfile.TemporaryDirectory() as out:
        cli_stdout(command, "--out", out)
        return tree_sha(out)


def cli_lines():
    for arch in cli._ARCHS:
        yield f"cost {arch} " + hashlib.sha256(cli_stdout("cost", arch).encode()).hexdigest()
    yield "gradcheck " + hashlib.sha256(cli_stdout("gradcheck").encode()).hexdigest()


def workload_lines():
    yield f"threads {blas_info()[0]}"
    yield "decode-paper " + sha(a for s in range(3) for a in decode_paper_trace(ready(wl.DecodePaper, s)))
    # each op returns the output levels, then the parameter gradients
    fpn_arrays = [ready(wl.FpnDecode, s).op(0) for s in range(5)]
    n_levels = len(fpn.LEVEL_NAMES)
    yield "fpn-decode levels " + sha(a for out in fpn_arrays for a in out[:n_levels])
    yield "fpn-decode grads " + sha(a for out in fpn_arrays for a in out[n_levels:])
    infer = ready(wl.SegInfer, 0)
    yield "seg-infer " + sha(infer.op(i) for i in range(len(infer.samples)))
    yield "seg-train " + sha(seg_train_state(0, 40)[0])
    state, failed = seg_train_state(2, wl.SegTrain.BUDGET)
    yield f"seg-train seed 2 {sha(state)} failed {failed}"
    for command in ("demo-seg", "demo-fpn"):
        yield f"{command} {demo_sha(command)}"


def digest_lines():
    yield from workload_lines()
    yield from cli_lines()


def threads_of(line: str):
    """N of a `threads N` line, or None for any other line."""
    match = re.fullmatch(r"threads (\d+)", line.strip())
    return int(match[1]) if match else None


def line_name(line: str) -> str:
    """The words before a line's sha256, which name what it hashes."""
    return re.split(r"\s[0-9a-f]{64}(?:\s|$)", line.strip(), maxsplit=1)[0]


def differing(lines, saved) -> list:
    """The name of every line that is not the same in lines and saved, in
    the order of lines and then of saved; the threads line is no digest and
    is left out."""
    ours = {line_name(line): line for line in lines if threads_of(line) is None}
    theirs = {line_name(line): line.strip() for line in saved
              if line.strip() and threads_of(line) is None}
    return [name for name in dict.fromkeys([*ours, *theirs])
            if ours.get(name) != theirs.get(name)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", type=Path, metavar="FILE",
                        help="compare the lines with FILE, saved from another checkout")
    args = parser.parse_args(argv)
    saved = None
    if args.check is not None:
        try:
            saved = args.check.read_text().splitlines()
        except OSError as exc:
            parser.error(f"cannot read {args.check}: {exc.strerror}")
    theirs = None
    if saved is not None:
        theirs = next((n for n in map(threads_of, saved) if n is not None), None)
    lines = []
    for line in digest_lines():
        print(line, flush=True)
        lines.append(line)
        ours = threads_of(line)
        if None not in (ours, theirs) and ours != theirs:
            print(f"threads differ: {ours} here, {theirs} in {args.check}; "
                  f"digests at different counts are not compared", file=sys.stderr)
            return 2
    if saved is None:
        return 0
    names = differing(lines, saved)
    for name in names:
        print(f"differs: {name}", file=sys.stderr)
    return 1 if names else 0


if __name__ == "__main__":
    sys.exit(main())
