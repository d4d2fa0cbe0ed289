"""The benchmark's own correctness checks, run as tests.

Each hgdbench workload at seed 0 is set up and verified the way a
benchmark run does before it times anything, without its timing hooks, so
a change that breaks a library name or figure the benchmark relies on
fails here as well as in the benchmark.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "hgdbench"))
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
