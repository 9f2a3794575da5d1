"""Alternating benchmark pairs between a parent and a change checkout.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload W \
        --seed S --pairs N --pr P [--trace]
    python3 tools/bench_pairs.py --parent DIR --change DIR --walls \
        --pairs N --pr P

Each run is one ``python3 perfbench/run.py`` invocation inside one checkout
(for example two ``git clone``s in a scratch directory), so both sides run
their own benchmark files with the same settings.  Every run lasts the
benchmark's own ``run_seconds`` from the change checkout's
``BENCHMARK.json``, so all entries of one ``BENCH_<P>.json`` share one run
length.  Before the first pair both checkouts' ``src`` and ``perfbench``
are compiled to bytecode, so neither side compiles its modules in every
fresh process: with ``PYTHONDONTWRITEBYTECODE`` set, a checkout without
``__pycache__`` would pay that in every round's ``setup_s`` (about 34 ms
for chslab on a 2-vCPU machine) and the other side might not.  Pair i runs
the parent first when i is even and the change first otherwise.  The pairs
and their summary go under the key ``<workload>_seed<S>`` (``..._traced``
with ``--trace``) of ``BENCH_<P>.json`` at the root of this repository; the
file is created or updated in place, so one file collects several workloads
and seeds.  The summary gives, per metric, each side's median and inclusive
quartiles, the number of pairs the change won (ties count for neither
side), the median difference (parent minus change, signed so that positive
is better for the change) and the parent's interquartile range; next to
the metrics it counts, per side, the runs whose checks were not all correct
(``runs_incorrect``) and the failed operations (``ops_failed``).  After
writing the file the tool exits 1 when any change run was incorrect or the
change failed more operations than the parent.  The
environment records the CPU count, numpy and its BLAS build
(``np.show_config(mode="dicts")``, install directories left out) and the
thread variables, both as the benchmark pins them and as this shell had
them.

With ``--walls`` no benchmark runs; each side instead times the three
end-to-end walls of the project's performance goal, each in a fresh
process with the thread variables pinned to 1 and ``PYTHONPATH=src``: the
whole Tier-1 test run (``python -m pytest -q
--continue-on-collection-errors``), ``chslab --seed 7 suite all`` (report
written to a temporary file) and acceptance criterion 7 alone.  Each wall
records its seconds, exit code and outcome line (pytest's summary, or the
suite's count of failed checks), and goes under the key ``walls`` with
per-wall medians, quartiles and wins as above.  The tool exits 1 when the
change's ``suite all`` exits nonzero or its Tier-1 or criterion-7 exit
code differs from the parent's.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SIDES = ("parent", "change")
PYTEST = (sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider")
WALLS = {
    "tier1_s": PYTEST + ("--continue-on-collection-errors",),
    "suite_all_s": (sys.executable, "-m", "chslab.cli", "--seed", "7", "--out", "{out}",
                    "suite", "all"),
    "criterion7_s": PYTEST + ("tests/test_acceptance.py::test_criterion_07_locc_distinguisher",),
}


def run_once(checkout: Path, workload: str, seed: int, seconds: int,
             trace: bool) -> tuple[dict, dict]:
    """One benchmark invocation; returns its run record and environment line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} in {checkout} exited with "
                         f"{proc.returncode}:\n{proc.stderr[-4000:]}")
    result = json.loads(lines[-1])
    env = next(json.loads(line.split(" ", 1)[1]) for line in lines
               if line.startswith("environment "))
    record = {key: result[key] for key in ("correct", "attempted", "failed")}
    record["rounds"] = env["rounds"]
    record["metrics"] = {name: m["value"] for name, m in result["metrics"].items()}
    return record, env


def spread(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def compare(parent: list[float], change: list[float], sign: float) -> dict:
    p, c = spread(parent), spread(change)
    return {
        "parent": p,
        "change": c,
        "change_wins": sum(sign * (a - b) > 0 for a, b in zip(parent, change)),
        "median_difference": sign * (p["median"] - c["median"]),
        "parent_iqr": p["q3"] - p["q1"],
    }


def summarise(pairs: list[dict], higher_better: set[str]) -> dict:
    summary = {}
    for name in pairs[0]["parent"]["metrics"]:
        summary[name] = compare([p["parent"]["metrics"][name] for p in pairs],
                                [p["change"]["metrics"][name] for p in pairs],
                                -1.0 if name in higher_better else 1.0)
    summary["runs_incorrect"] = {side: sum(not pair[side]["correct"] for pair in pairs)
                                 for side in SIDES}
    summary["ops_failed"] = {side: sum(pair[side]["failed"] for pair in pairs)
                             for side in SIDES}
    return summary


def time_walls(checkout: Path) -> dict:
    """The three end-to-end walls of one checkout, each in a fresh process."""
    env = {**os.environ, "PYTHONPATH": "src", **{var: "1" for var in THREAD_VARS}}
    record = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, cmd in WALLS.items():
            cmd = [part.format(out=Path(tmp) / "report.json") for part in cmd]
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
            elapsed = time.perf_counter() - start
            lines = proc.stdout.strip().splitlines() or [proc.stderr[-400:]]
            # pytest's summary line, or suite all's "N checks, M failed"
            outcome = next((line for line in reversed(lines)
                            if "passed" in line or "failed" in line), lines[-1])
            record[name] = {"s": elapsed, "exit": proc.returncode, "outcome": outcome}
    return record


def run_walls(checkouts: dict, npairs: int) -> tuple[dict, int]:
    pairs = []
    for i in range(npairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"pair": i, "first": order[0]}
        for side in order:
            pair[side] = time_walls(checkouts[side])
            print(f"pair {i} {side}: " + ", ".join(
                f"{name} {w['s']:.2f} (exit {w['exit']}: {w['outcome']})"
                for name, w in pair[side].items()), flush=True)
        pairs.append(pair)
    summary = {name: compare([p["parent"][name]["s"] for p in pairs],
                             [p["change"][name]["s"] for p in pairs], 1.0)
               for name in WALLS}
    bad = [(p["pair"], name) for p in pairs for name in WALLS
           if (p["change"][name]["exit"] != 0 if name == "suite_all_s"
               else p["change"][name]["exit"] != p["parent"][name]["exit"])]
    if bad:
        print(f"change walls with a bad exit code (pair, wall): {bad}", file=sys.stderr)
    return {"pairs": pairs, "summary": summary}, int(bool(bad))


def git_head(checkout: Path) -> str | None:
    """The checkout's commit when it is a clone of its own, else None."""
    if not (checkout / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=checkout,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_workload(checkouts: dict, args, bench: dict) -> tuple[str, int, dict, int]:
    """Alternating perfbench pairs of one workload and seed, stored in ``bench``."""
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    higher_better = {m["name"] for m in spec["end_to_end"] + spec.get("per_layer", [])
                     if m["better"] == "higher"}

    pairs, env = [], None
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"pair": i, "first": order[0]}
        for side in order:
            pair[side], env = run_once(checkouts[side], args.workload, args.seed,
                                       seconds, args.trace)
            metrics = pair[side]["metrics"]
            shown = {k: metrics[k] for k in ("wall_s", "setup_s", "peak_rss_mb")
                     if k in metrics}
            print(f"pair {i} {side}: correct={pair[side]['correct']} "
                  f"failed={pair[side]['failed']} {shown}", flush=True)
        pairs.append(pair)

    key = f"{args.workload}_seed{args.seed}" + ("_traced" if args.trace else "")
    summary = summarise(pairs, higher_better)
    bench[key] = {"pairs": pairs, "summary": summary}
    incorrect, failed = summary["runs_incorrect"], summary["ops_failed"]
    status = 0
    if incorrect["change"] or failed["change"] > failed["parent"]:
        print(f"change failed its checks: runs incorrect {incorrect}, "
              f"operations failed {failed}", file=sys.stderr)
        status = 1
    return key, status, env["threads"], seconds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--walls", action="store_true",
                        help="time Tier-1, suite all and criterion 7 instead of a workload")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if args.walls == (args.workload is not None) or (args.workload and args.seed is None):
        parser.error("give either --walls or both --workload and --seed")
    if args.walls and args.trace:
        parser.error("--trace applies to a workload, not to --walls")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, path in checkouts.items():
        if not (path / "perfbench" / "run.py").is_file():
            parser.error(f"--{side} {path} has no perfbench/run.py")
        for part in ("src", "perfbench"):
            compileall.compile_dir(path / part, quiet=1)

    out = ROOT / f"BENCH_{args.pr}.json"
    bench = json.loads(out.read_text()) if out.is_file() else {}
    if args.walls:
        key = "walls"
        bench[key], status = run_walls(checkouts, args.pairs)
        bench["walls_commands"] = {name: " ".join(["python"] + list(cmd[1:]))
                                   for name, cmd in WALLS.items()}
        threads = {var: "1" for var in THREAD_VARS}
    else:
        key, status, threads, seconds = run_workload(checkouts, args, bench)
        bench["command"] = ("python3 perfbench/run.py --workload W --seed S "
                            f"--seconds {seconds} --trace 0|1")
    bench.update({
        "parent_commit": git_head(checkouts["parent"]),
        "method": "each run is one process tree on its own checkout of one "
                  "side, both compiled to bytecode before the first pair; "
                  "pairs alternate which side runs first; quartiles "
                  "are inclusive; median_difference is parent minus change, "
                  "signed so that positive favours the change",
        "environment": {
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": {key: value for key, value
                     in np.show_config(mode="dicts")["Build Dependencies"]["blas"].items()
                     if "directory" not in key},
            "threads": threads,
            "threads_invoking_shell": {var: os.environ.get(var) for var in THREAD_VARS},
        },
    })
    out.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"wrote {key} to {out}")
    return status


if __name__ == "__main__":
    sys.exit(main())
