"""tools/seed_sweep.py: one suite over a range of suite seeds, in process."""

import importlib.util
import sys
from pathlib import Path

import pytest

from chslab import registry

TOOL = Path(__file__).resolve().parent.parent / "tools" / "seed_sweep.py"


@pytest.fixture
def sweep(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool prepends src
    spec = importlib.util.spec_from_file_location("seed_sweep", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


def test_passing_seeds_exit_zero(sweep, capsys):
    assert sweep(["--suite", "lemmas", "--start", "0", "--stop", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "experiment\tcheck\tseed\tvalue\treference"
    assert "2 seeds, 0 failing rows" in lines[-1]


def test_failing_row_is_printed(sweep, capsys, monkeypatch):
    monkeypatch.setattr(registry, "_ENTRY_TOL", -1.0)
    assert sweep(["--suite", "lemmas", "--start", "0", "--stop", "2"]) == 1
    out = capsys.readouterr().out
    assert "haar-moment-identity\tprojector-vs-type-average\t0\t0.0\t0.0" in out
    assert "haar-moment-identity\tprojector-vs-type-average\t1\t0.0\t0.0" in out
    # five rows per seed are held to _ENTRY_TOL in the lemmas suite
    assert "2 seeds, 10 failing rows" in out.splitlines()[-1]
