"""One round of a workload in a fresh process; prints one JSON line.

Started by run.py with ``--started`` set to the CLOCK_MONOTONIC reading
taken just before the process was spawned, so that set-up time covers
interpreter start, imports and input generation.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import chslab  # noqa: E402
import chslab.locc  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def observe_pool_size(notes: dict) -> None:
    """Record the worker count of every Monte Carlo pool chslab.locc opens."""
    base = getattr(chslab.locc, "ProcessPoolExecutor", None)
    if base is None:
        return

    class RecordingPool(base):
        def __init__(self, max_workers=None, *args, **kwargs):
            notes["mc_pool_workers"] = max(notes["mc_pool_workers"], max_workers or 0)
            super().__init__(max_workers, *args, **kwargs)

    chslab.locc.ProcessPoolExecutor = RecordingPool


def environment(seed: int, notes: dict) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "mc_pool_workers": notes["mc_pool_workers"],
        "seed": seed,
    }


def run_ops(ops, tracer) -> tuple[float, int, int, list[str]]:
    """Time each call, then check its output untimed.

    Returns the summed call time and the counts of failed operations (the
    call raised or a check failed) and wrong ones (a check failed), with
    the failure messages.
    """
    wall = 0.0
    failed, wrong, failures = 0, 0, []
    for op in ops:
        start = time.perf_counter()
        if tracer is not None:
            tracer.active = True
        try:
            result = op.call()
        except Exception:
            result, problems = None, [traceback.format_exc(limit=3)]
        else:
            problems = []
        finally:
            wall += time.perf_counter() - start
            if tracer is not None:
                tracer.active = False
        if problems:
            failed += 1
        else:
            try:
                problems = op.check(result)
            except Exception:
                problems = ["check raised: " + traceback.format_exc(limit=3)]
            if problems:
                failed += 1
                wrong += 1
        failures += [f"{op.name}: {p}" for p in problems]
        del result
    return wall, failed, wrong, failures


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--started", type=float, required=True)
    parser.add_argument("--tmp", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop where the first call would start")
    args = parser.parse_args()

    if Path(chslab.__file__).resolve().parent != SRC / "chslab":
        print(f"imported chslab from {chslab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    notes = {"mc_pool_workers": 0}
    observe_pool_size(notes)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    ops = WORKLOADS[args.workload](args.seed, args.tmp, notes)

    first_call = time.monotonic()
    if args.setup_only:
        print(json.dumps({"setup_s": first_call - args.started}))
        return 0
    wall, failed, wrong, failures = run_ops(ops, tracer)

    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    record = {
        "ops": len(ops),
        "failed": failed,
        "wrong": wrong,
        "failures": failures,
        "setup_s": first_call - args.started,
        "wall_s": wall,
        "peak_rss_mb": kib / 1024.0,
        "notes": notes,
        "env": environment(args.seed, notes),
    }
    if tracer is not None:
        record["layers"] = tracer.metrics(wall)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
