"""Run one suite over a range of suite seeds in one process.

    python3 tools/seed_sweep.py [--suite all] [--start 0] [--stop 200]

Each suite seed in ``[start, stop)`` runs ``registry.run_suite`` with the
default caps and the check tolerances fixed in ``registry.py``, exactly as
``chslab --seed S suite SUITE`` does, but without a new process or a report
file per seed.  Every failing check row is printed as one tab-separated
line: experiment, check, suite seed, value and reference (``None`` for an
error row).  The last line counts the seeds and the failing rows; the tool
exits 1 when any row failed and 0 otherwise.  ``chslab`` is imported from
this checkout's ``src``.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from chslab.registry import SUITES, run_suite  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--suite", choices=SUITES, default="all")
    parser.add_argument("--start", type=int, default=0)
    parser.add_argument("--stop", type=int, default=200)
    args = parser.parse_args(argv)
    start = time.perf_counter()
    failures = 0
    print("experiment\tcheck\tseed\tvalue\treference")
    for seed in range(args.start, args.stop):
        for report in run_suite(args.suite, seed):
            for check in report.checks:
                if not check.passed:
                    failures += 1
                    print(f"{report.experiment}\t{check.name}\t{seed}\t"
                          f"{check.value!r}\t{check.reference!r}", flush=True)
    seeds = max(args.stop - args.start, 0)
    print(f"suite {args.suite}, seeds {args.start}..{args.stop - 1}: {seeds} seeds, "
          f"{failures} failing rows, {time.perf_counter() - start:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
