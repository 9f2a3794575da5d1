"""Every value ``chslab suite all`` records is the same whatever CPU
features numpy dispatches its loops to.

numpy picks a SIMD variant of each ufunc loop at import, and may be told to
skip the variants above its compiled baseline with
``NPY_DISABLE_CPU_FEATURES``.  A loop that fuses a multiply and an add
(complex multiply, complex abs) rounds differently in such a variant, so a
value built on one would change in its last bits from host to host.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

SRC = Path(__file__).resolve().parent.parent / "src"

# the dispatch targets above numpy's baseline that this host runs
ABOVE_BASELINE = [name for name in __cpu_dispatch__ if __cpu_features__.get(name)]


def run(args: list[str], disabled: list[str]) -> str:
    """Standard output of ``python args`` with the listed dispatch targets
    disabled (none: numpy's default dispatch)."""
    env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    env.update(PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    if disabled:
        env["NPY_DISABLE_CPU_FEATURES"] = " ".join(disabled)
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


def suite_values(out: Path, disabled: list[str]) -> list:
    run(["-m", "chslab.cli", "--seed", "7", "--out", str(out), "suite", "all"], disabled)
    reports = json.loads(out.read_text())
    return [(report["experiment"], check["name"], check["value"], check["reference"],
             check["mode"], check["passed"])
            for report in reports for check in report["checks"]]


needs_dispatch = pytest.mark.skipif(
    not ABOVE_BASELINE, reason="numpy dispatches to no loop above its baseline here")


@needs_dispatch
def test_haar_block_does_not_depend_on_cpu_dispatch():
    # the draws pinned in tests/test_typespace.py::TestSampleHaar
    draw = ("import hashlib, numpy as np; from chslab.typespace import haar_states_block; "
            "print(hashlib.sha256(haar_states_block(4, 20000, "
            "np.random.Generator(np.random.Philox(7))).tobytes()).hexdigest())")
    pinned = "07f45122497d9e6ad771b708f3f97b9e9907e7577ac43c2f3d4078168e8a78ac"
    assert run(["-c", draw], []).strip() == run(["-c", draw], ABOVE_BASELINE).strip() == pinned


@needs_dispatch
def test_suite_values_do_not_depend_on_cpu_dispatch(tmp_path):
    default = suite_values(tmp_path / "default.json", [])
    baseline = suite_values(tmp_path / "baseline.json", ABOVE_BASELINE)
    assert default and baseline == default
