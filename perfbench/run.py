"""chslab benchmark: python3 perfbench/run.py --workload W --seed S --seconds N --trace 0|1

Runs whole rounds of one workload, each round in a fresh process with BLAS
and OpenMP threads pinned to 1, until the next round would end after
``--seconds`` (at least MIN_ROUNDS rounds).  Each untraced round is followed
by SETUP_PROBES processes that only set up, so set-up time is a median over
several samples even when rounds are long.  Prints one line per round, the
environment, and as its last line a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end medians over rounds; with ``--trace 1`` each round is an
untraced and a traced process, and the metrics are per-layer medians over
the traced ones.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("exact-hybrids", "collision-mc", "suite-all")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_ROUNDS = 2
SETUP_PROBES = 3
ROUND_TIMEOUT_S = 150
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    return "count"


class RoundFailed(RuntimeError):
    pass


def run_round(workload: str, seed: int, trace: int, tmp: Path, *extra: str) -> dict:
    """Run one round in a fresh process group and return its record."""
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace), "--started", repr(started),
         "--tmp", str(tmp), *extra],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RoundFailed(f"{workload} round exceeded {ROUND_TIMEOUT_S} s")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RoundFailed(f"{workload} round exited with {proc.returncode}:\n{err[-4000:]}")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "chslab" / "__init__.py").is_file():
        print(f"no chslab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    tmp = ROOT / ".perfbench_tmp" / f"run-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    untraced, traced, setups = [], [], []
    begin = time.monotonic()
    try:
        while True:
            round_records = [run_round(args.workload, args.seed, 0, tmp)]
            if args.trace:
                round_records.append(run_round(args.workload, args.seed, 1, tmp))
                traced.append(round_records[-1])
            else:
                setups += [run_round(args.workload, args.seed, 0, tmp, "--setup-only")["setup_s"]
                           for _ in range(SETUP_PROBES)]
            untraced.append(round_records[0])
            setups.append(round_records[0]["setup_s"])
            rounds = len(untraced)
            print(f"round {rounds}: wall_s={untraced[-1]['wall_s']:.4f} "
                  f"setup_s={untraced[-1]['setup_s']:.4f} "
                  f"peak_rss_mb={untraced[-1]['peak_rss_mb']:.1f} "
                  f"ops={untraced[-1]['ops']} failed={untraced[-1]['failed']}", flush=True)
            for failure in (f for r in round_records for f in r["failures"]):
                print(f"  FAILED {failure}", flush=True)
            elapsed = time.monotonic() - begin
            if rounds >= MIN_ROUNDS and elapsed * (rounds + 1) / rounds > args.seconds:
                break
    except RoundFailed as exc:
        print(exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass

    records = untraced + traced
    attempted = sum(r["ops"] for r in records)
    failed = sum(r["failed"] for r in records)
    wrong = sum(r["wrong"] for r in records)
    # the same seed must record the same suite values in every process
    prints = [r["notes"]["suite_fingerprint"] for r in records
              if "suite_fingerprint" in r["notes"]]
    for later in prints[1:]:
        if later != prints[0]:
            print("  FAILED suite report differs from the first run at this seed")
            failed += 1
            wrong += 1

    if args.trace:
        names = traced[0]["layers"]
        metrics = {name: statistics.median(r["layers"][name] for r in traced)
                   for name in names}
        metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                       - statistics.median(r["wall_s"] for r in untraced))
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics = {"setup_s": statistics.median(setups),
                   "wall_s": statistics.median(r["wall_s"] for r in untraced),
                   "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced)}
        units = END_TO_END
    env = dict(untraced[0]["env"], workload=args.workload, rounds=len(untraced),
               setup_samples=len(setups),
               mc_pool_workers=max(r["env"]["mc_pool_workers"] for r in records))
    print("environment " + json.dumps(env))
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
