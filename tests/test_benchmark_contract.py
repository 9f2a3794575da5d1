"""The frozen benchmark's own calls, run through its own checks.

Every workload in ``perfbench/workloads.py`` is built at seed 7 and its
operations go through ``worker.run_ops``, the accounting the benchmark
uses, so a change to an argument, a CLI flag or a result field that the
benchmark reads fails here before it fails a benchmark run.  The benchmark
files are read, never changed.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 7


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_passes_its_checks(workload, tmp_path):
    ops = WORKLOADS[workload](SEED, tmp_path, {"mc_pool_workers": 0})
    assert ops
    _, failed, _, failures = worker.run_ops(ops, None)
    assert failed == 0, "\n".join(failures)
