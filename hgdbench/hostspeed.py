"""A fixed reference kernel that measures how fast the host runs right now.

The benchmark runs on a shared host whose speed drifts by up to 1.7x for
seconds to minutes at a time, in thread CPU time as much as in wall time.
No statistic taken inside a 25 s run averages that out, so the workloads
run `probe()` after every operation, outside the timed interval, and
report every time in reference milliseconds: the measured time scaled by
REFERENCE_MS over the probe time around it. A program change cannot move
the probe, which uses only numpy and this file.

The probe mixes the three kinds of work the workloads do, in about equal
shares: small f64 tensordots with Python loop overhead (the toy
segmenter), one f32 GEMM (the paper-width decoder) and strided
reductions over a 0.6 MB map (max pooling in the pyramid decoder).
"""

from __future__ import annotations

import functools
import statistics
import time

import numpy as np

# the probe's median on the host the baseline was measured on (README.md);
# a time in reference ms is what the host would have read at that speed
REFERENCE_MS = 7.5


@functools.lru_cache(maxsize=None)
def _inputs():
    # made on first use, so that a process's peak RSS before it probes
    # holds none of them
    rng = np.random.default_rng(12345)
    return (rng.standard_normal((16, 34, 34)), rng.standard_normal((9, 32, 16)),
            rng.standard_normal((256, 512)).astype(np.float32),
            rng.standard_normal((512, 1024)).astype(np.float32),
            rng.standard_normal((16, 56, 88)))


def _work():
    x, w, a32, b32, m = _inputs()
    for _ in range(3):
        out = np.zeros((32, 32, 32))
        for k in range(9):
            dy, dx = divmod(k, 3)
            out += np.tensordot(w[k], x[:, dy:dy + 32, dx:dx + 32], axes=([1], [0]))
        np.maximum(out, 0.0, out=out)
        acc = 0
        for i in range(2000):
            acc += i
    a32 @ b32
    blocks = m.reshape(16, 28, 2, 44, 2)
    peak = blocks.max(axis=(2, 4))
    (blocks == peak[:, :, None, :, None]).sum()


def probe() -> float:
    """Seconds one run of the reference kernel takes now."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


def probe_median(runs: int) -> float:
    """Median seconds over `runs` probes, after one untimed warm-up run."""
    _work()
    return statistics.median(probe() for _ in range(runs))
