"""Every benchmark check can fail: each is fed a correct output, then a
perturbed one, and the perturbed one must be counted as a failed operation.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import Op  # noqa: E402

from chslab import commitment as cm  # noqa: E402
from chslab import locc as lc  # noqa: E402
from chslab import pseudo as ps  # noqa: E402
from chslab import typespace as ts  # noqa: E402


def counted_failed(result, check) -> bool:
    """Run one operation through the worker's accounting; True if it failed."""
    _, failed, wrong, failures = worker.run_ops([Op("op", lambda: result, check)], None)
    assert failed == wrong and bool(failures) == bool(failed)
    return failed == 1


def test_collision_advantage_matches_hand_value():
    # (4, 1): independent 3/4 minus identical 12/20
    assert checks.collision_advantage(4, 1) == Fraction(3, 20)
    for d, t in ((16, 4), (64, 2), (1024, 4)):
        assert float(checks.collision_advantage(d, t)) == lc.locc_advantage_closed_form(d, t)


def test_mc_cell_check():
    d, t = 16, 2
    exact = float(checks.collision_advantage(d, t))
    stderr = 1e-3

    def check(res):
        return checks.check_mc_cell(d, t, res[0], res[1], lc.locc_advantage_closed_form(d, t))

    assert not counted_failed((exact + 3.9 * stderr, stderr), check)
    assert counted_failed((exact + 5 * stderr, stderr), check)
    assert counted_failed((exact, 0.0), check)
    assert checks.check_mc_cell(d, t, exact, stderr, math.nextafter(exact, 1.0))


@pytest.fixture(scope="module")
def hybrid():
    return ps.prs_hybrids(ps.PseudoParams(2, 2, 1, 1))


def _hybrid_check(res):
    return checks.check_hybrid(res, 4, 2, 2, [[0]], 1,
                               expected_td=checks.single_copy_distance(4))


def _with_keyed(res, entries):
    return SimpleNamespace(keyed=SimpleNamespace(entries=entries), ideal=res.ideal, td=res.td)


def test_single_copy_distance(hybrid):
    assert checks.single_copy_distance(4) == pytest.approx(0.15)
    assert not counted_failed(hybrid, _hybrid_check)
    assert counted_failed(replace(hybrid, td=hybrid.td + 1e-6), _hybrid_check)


def test_hybrid_reference_distance():
    res = ps.prs_hybrids(ps.PseudoParams(1, 2, 2, 1))
    check = lambda r: checks.check_hybrid(r, 4, 2, 1, [[0, 1]], 1)  # noqa: E731
    assert not counted_failed(res, check)
    assert counted_failed(replace(res, td=res.td - 1e-6), check)


def test_keyed_state_properties(hybrid):
    rho = np.array(hybrid.keyed.entries)
    failures = _hybrid_check(_with_keyed(hybrid, rho * (1 + 1e-6)))
    assert any(f.startswith("trace") for f in failures)

    skew = rho.copy()
    skew[0, 1] += 1e-6
    assert any("hermitian" in f for f in _hybrid_check(_with_keyed(hybrid, skew)))

    vals, vecs = np.linalg.eigh(rho)
    low, top = vecs[:, 0], vecs[:, -1]
    shift = vals[0] + 1e-6  # lowest eigenvalue to -1e-6, trace unchanged
    tilted = rho - shift * np.outer(low, low.conj()) + shift * np.outer(top, top.conj())
    assert any("min eigenvalue" in f for f in _hybrid_check(_with_keyed(hybrid, tilted)))

    # flat indices 0 and 1 differ only on the shared register
    coherent = rho.copy()
    coherent[0, 1] += 1e-6
    coherent[1, 0] += 1e-6
    failures = _hybrid_check(_with_keyed(hybrid, coherent))
    assert any("marginal on registers (1,)" in f for f in failures)
    assert counted_failed(_with_keyed(hybrid, coherent), _hybrid_check)


def test_hiding_check():
    for (lam, n), want in checks.HIDING_KNOWN.items():
        assert checks.check_hiding(float(want), 2**n, n, lam, 1, 1) == []
    cp = cm.CommitmentParams(1, 2, 2, 1)
    td = cm.hiding_distance(cp)
    check = lambda r: checks.check_hiding(r, 4, 2, 1, 2, 1)  # noqa: E731
    assert not counted_failed(td, check)
    assert counted_failed(td + 1e-6, check)


def test_ppt_chain_check():
    chain = lc.ppt_diff_norm(6, 2)
    assert not counted_failed(chain, checks.check_ppt_chain)
    assert counted_failed(replace(chain, kneser_sum=chain.kneser_sum + 1e-6),
                          checks.check_ppt_chain)
    assert counted_failed(replace(chain, exact=chain.kneser_sum + 1e-6),
                          checks.check_ppt_chain)


def test_rank_attack_check():
    res = ps.rank_attack(ps.PseudoParams(2, 2, 1, 1))
    check = lambda r: checks.check_rank_attack(r, 4, 1, 1)  # noqa: E731
    assert not counted_failed(res, check)
    assert counted_failed(replace(res, rank1=res.rank1 + 1), check)
    assert counted_failed(replace(res, accept_pseudo=1.0 - 1e-6), check)


def test_good_type_fraction_matches_hand_count():
    # good iff the four prefixes are distinct with nonzero XOR: 16 suffix
    # choices times (C(16,4) - 140) prefix sets, over C(35,4) multisets
    assert checks.good_type_fraction(4, 1, 2, 4) == Fraction(16 * (1820 - 140), 52360)
    p = ts.PrefixParams(2, 0, 1, 2)
    assert checks.good_type_fraction(2, 0, 1, 2) == ts.prob_good_type(p).exact


def test_good_type_check():
    exact = checks.good_type_fraction(2, 0, 1, 2)
    trials = 10000
    sigma = math.sqrt(float(exact) * (1 - float(exact)) / trials)
    check = lambda r: checks.check_good_type(r, exact, trials)  # noqa: E731
    ok = SimpleNamespace(exact=exact, mc_estimate=float(exact) + 3 * sigma)
    assert not counted_failed(ok, check)
    assert counted_failed(replace_ns(ok, mc_estimate=float(exact) + 5 * sigma), check)
    assert counted_failed(replace_ns(ok, exact=exact + Fraction(1, 10**6)), check)


def replace_ns(ns, **changes):
    return SimpleNamespace(**(vars(ns) | changes))


def test_sampled_moment_check():
    d, samples = 4, 200000
    exact = checks.sym_moment(d, 2).astype(complex)
    check = lambda r: checks.check_sampled_moment(r, d, samples)  # noqa: E731
    assert not counted_failed(exact, check)
    stderr = np.sqrt(checks.moment_entry_second_moments(d) / samples)
    off = exact.copy()
    off[3, 5] += 6 * stderr[3, 5]
    assert counted_failed(off, check)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(1)))
    block = ts.haar_states_block(d, samples, rng)
    lifted = np.einsum("na,nb->nab", block, block).reshape(samples, -1)
    assert check(lifted.T @ lifted.conj() / samples) == []


def _report(value=0.25, runtime=1.0, passed=True):
    return json.dumps([{"experiment": "x", "params": {}, "seed": 7, "toolchain": {},
                        "passed": passed,
                        "checks": [{"name": "c", "value": value, "reference": None,
                                    "mode": "exact", "passed": passed,
                                    "runtime_ms": runtime}]}])


def test_suite_checks():
    assert checks.suite_fingerprint(_report()) == checks.suite_fingerprint(_report(runtime=9.0))
    assert checks.suite_fingerprint(_report()) != checks.suite_fingerprint(_report(0.25 + 1e-12))
    assert not counted_failed(0, lambda code: checks.check_suite(code, _report()))
    assert counted_failed(1, lambda code: checks.check_suite(code, _report()))
    assert counted_failed(0, lambda code: checks.check_suite(code, _report(passed=False)))


def test_raising_call_is_failed_but_not_wrong():
    def boom():
        raise RuntimeError("boom")

    _, failed, wrong, failures = worker.run_ops([Op("op", boom, lambda r: [])], None)
    assert (failed, wrong) == (1, 0) and "boom" in failures[0]


def test_tracer_attributes_layers():
    from chslab import linalg

    originals = (ps.prs_hybrids, ts.haar_moment, ps.haar_moment, np.linalg.eigvalsh,
                 linalg.Operator.__post_init__)
    tracer = Tracer()
    tracer.install()
    try:
        assert ps.haar_moment is ts.haar_moment is not originals[1]
        start = time.perf_counter()
        tracer.active = True
        ps.prs_hybrids(ps.PseudoParams(2, 2, 1, 1))
        tracer.active = False
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    assert (ps.prs_hybrids, ts.haar_moment, ps.haar_moment, np.linalg.eigvalsh,
            linalg.Operator.__post_init__) == originals
    m = tracer.metrics(wall)
    assert m["pseudo.keys_averaged"] == 4
    assert m["typespace.haar_moment_calls"] == 3
    assert m["spectral.calls"] >= 1 and m["spectral.max_dim"] == 16
    assert m["linalg.max_operator_mb"] == 16 * 16 * 16 / 2**20
    layers = ("typespace", "pseudo", "linalg", "commitment", "locc", "registry", "cli", "rng")
    total = sum(m[f"{layer}.self_s"] for layer in layers) + m["spectral.s"]
    assert all(m[f"{layer}.self_s"] >= 0 for layer in layers)
    assert total + m["trace.unattributed_s"] == pytest.approx(wall, rel=1e-9)
    assert m["locc.mc_s"] == 0.0 and m["locc.mc_trials"] == 0


def test_refuses_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "suite-all",
                           "--seed", "7", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_names_what_is_printed():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    printed = list(Tracer().metrics(0.0)) + ["trace.overhead_s"]
    assert [m["name"] for m in spec["per_layer"]] == printed
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in spec["per_layer"])
