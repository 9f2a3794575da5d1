"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
PASS/FAIL lines as they complete.  Every tolerance is fixed here, not
calibrated.  Criterion 7 includes the scaled-ratio bracket assertion exactly
as specified; the exact closed form at (d=16, t=4) gives a ratio of ~0.034,
outside the stated [0.2, 3] bracket, so that sub-check fails by exact
arithmetic and the criterion reports FAIL (see notes in the repository
README; all other sub-checks of criterion 7 pass).
"""

import itertools
import json
import time
from math import comb

import numpy as np

from chslab import commitment as cm
from chslab import locc as lc
from chslab import pseudo as ps
from chslab import typespace as ts
from chslab.cli import main
from chslab.rng import stream_rng
from chslab.typespace import PrefixParams, TypeVector
from senders import random_strategy


def _verdict(num: int, label: str, failures: list[str], started: float) -> None:
    ok = not failures
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num:02d}: {label} "
          f"({time.perf_counter() - started:.1f}s)")
    assert ok, f"criterion {num}: " + "; ".join(failures)


def test_criterion_01_haar_moment_identity():
    started = time.perf_counter()
    failures = []
    for d, t in [(2, 2), (2, 3), (4, 2)]:
        lifted = ts.haar_moment(d, t).entries
        independent = ts.permutation_symmetrizer(d, t).entries / comb(d + t - 1, t)
        gap = float(np.abs(lifted - independent).max())
        if gap > 1e-12:
            failures.append(f"(d={d},t={t}) route gap {gap:.2e} > 1e-12")
    rng = stream_rng(101)
    block = ts.haar_states_block(2, 100000, rng)
    lifted = np.einsum("na,nb->nab", block, block).reshape(len(block), -1)
    mc = np.einsum("na,nb->ab", lifted, lifted.conj()) / len(block)
    gap = float(np.abs(mc - ts.haar_moment(2, 2).entries).max())
    if gap > 5e-3:
        failures.append(f"monte-carlo max-entry {gap:.2e} > 5e-3")
    _verdict(1, "exact Haar moment identity + sampled agreement", failures, started)


def test_criterion_02_disentangling_lemmas():
    started = time.perf_counter()
    failures = []
    for m, spectators in itertools.product((0, 1), (1, 2)):
        total = spectators + 1
        p = PrefixParams(2, m, 1, total)
        d = p.alphabet_dim
        good = [T for T in ts.enumerate_types(d, total)
                if ts.is_l_fold_prefix_collision_free(T, p)]
        if not good:
            failures.append(f"no good types at m={m}, t={spectators}")
            continue
        worst = max(ps.lemma_nice_T_check(T, p) for T in good)
        if worst > 1e-12:
            failures.append(
                f"nice-type gap {worst:.2e} > 1e-12 at m={m}, t={spectators}")
        for T in good:
            for v in ts.arrangements(T.elements()):
                for sigma in itertools.permutations(range(total)):
                    if not ps.check_perm_split(v, sigma, p):
                        failures.append(f"perm-split failed at {v}, {sigma}")
    # two-query generator lemma; the stated parameter point has a 4-element
    # key space (2^(2 m lam')), and the 16-key reading (lam'=2) is run too
    pt = PrefixParams(1, 1, 2, 2)
    res = ps.lemma_prfs_type_check(TypeVector.from_elements(4, (0b00, 0b10)),
                                   [(0,), (1,)], (1, 1), pt)
    if not res.exact_keys or res.discrepancy > 1e-12:
        failures.append(f"two-query gap {res.discrepancy:.2e} at lam'=1")
    pt16 = PrefixParams(2, 0, 2, 2)
    res16 = ps.lemma_prfs_type_check(TypeVector.from_elements(4, (0, 1)),
                                     [(0,), (1,)], (1, 1), pt16)
    if res16.keys_used != 16 or res16.discrepancy > 1e-12:
        failures.append(f"two-query gap {res16.discrepancy:.2e} at 16 keys")
    _verdict(2, "disentangling identities on every good type", failures, started)


def test_criterion_03_hybrid_distances():
    started = time.perf_counter()
    failures = []
    res2 = ps.prs_hybrids(ps.PseudoParams(2, 2, 1, 1))
    res3 = ps.prs_hybrids(ps.PseudoParams(3, 3, 1, 1))
    if not res3.td < res2.td:
        failures.append(f"distance did not decrease: {res2.td} -> {res3.td}")
    rho = res2.keyed.entries
    if np.abs(rho - rho.conj().T).max() > 1e-10:
        failures.append("keyed state not Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-10:
        failures.append("keyed state trace off")
    if np.linalg.eigvalsh(rho).min() < -1e-9:
        failures.append("keyed state not PSD")
    if ps.prs_hybrids(ps.PseudoParams(2, 2, 0, 1)).td != 0.0:
        failures.append("zero-copy distance not exactly 0")
    _verdict(3, "hybrid distance decay and state contracts", failures, started)


def test_criterion_04_rank_attack():
    started = time.perf_counter()
    failures = []
    res = ps.rank_attack(ps.PseudoParams(2, 2, 1, 2))
    if res.rank1 != 40:
        failures.append(f"ideal rank {res.rank1} != 40")
    if abs(res.accept_pseudo - 1.0) > 1e-9:
        failures.append(f"keyed acceptance {res.accept_pseudo} != 1")
    if res.accept_haar > res.rank0 / res.rank1 + 1e-9:
        failures.append(
            f"ideal acceptance {res.accept_haar} > {res.rank0}/{res.rank1}")
    _verdict(4, "support-projector attack rank accounting", failures, started)


def test_criterion_05_commitment():
    started = time.perf_counter()
    failures = []
    cp = cm.CommitmentParams(1, 2, 1)
    common = ts.sample_haar(4, seed=500)
    for b in (0, 1):
        claimed = cm.commit_state(b, common, cp).density()
        prob = cm.receiver_accept_prob(b, claimed, common, cp)
        if abs(prob - 1.0) > 1e-10:
            failures.append(f"honest acceptance for b={b} is {prob}")
    for lam, n in [(1, 2), (2, 3)]:
        bound = 2.0 ** -(n - lam)
        for s in range(100):
            F, _ = cm.fidelity_bound_check(lam, n, ts.sample_haar(2**n, 501,
                                                                  stream=s))
            if F > bound + 1e-9:
                failures.append(f"fidelity {F} > {bound} at (lam={lam},n={n})")
                break
    for n, p in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        cp = cm.CommitmentParams(1, n, p)
        shared = ts.sample_haar(2**n, seed=502)
        bound = 1.0 + ((1.0 + 2.0 ** (-(n - 1) / 2.0)) / 2.0) ** p
        strategies = [
            cm.honest_strategy(0, shared, cp),
            cm.honest_strategy(1, shared, cp),
            cm.honest_strategy(1, shared, cp),
        ] + [random_strategy(shared, cp, seed=503 + s) for s in range(20)]
        for i, strat in enumerate(strategies):
            p0, p1 = cm.binding_sum(strat, shared, cp)
            if p0 + p1 > bound + 1e-9:
                failures.append(
                    f"p0+p1 = {p0 + p1} > {bound} at (n={n},p={p}), strategy {i}")
    _verdict(5, "commitment completeness, fidelity bound, sum binding",
             failures, started)


def test_criterion_06_kneser_closed_form():
    started = time.perf_counter()
    failures = []
    seen = set()
    for v in range(3, 201):
        for k in range(1, v // 2 + 1):
            if v < 2 * k + 1 or comb(v, k) > 200:
                continue
            exact, formula = lc.kneser_one_norm(lc.KneserParams(v, k))
            seen.add((v, k))
            if abs(exact - formula) > 1e-8:
                failures.append(f"K({v},{k}): {exact} vs {formula}")
    if (5, 2) not in seen or (7, 3) not in seen:
        failures.append("required points (5,2), (7,3) not covered")
    exact52, _ = lc.kneser_one_norm(lc.KneserParams(5, 2))
    exact73, _ = lc.kneser_one_norm(lc.KneserParams(7, 3))
    if abs(exact52 - 16.0) > 1e-8 or abs(exact73 - 64.0) > 1e-8:
        failures.append(f"anchor values off: {exact52}, {exact73}")
    _verdict(6, "disjointness-graph 1-norm closed form", failures, started)


def test_criterion_07_locc_distinguisher():
    started = time.perf_counter()
    failures = []
    if lc.locc_advantage_closed_form(4, 1) != 0.15:
        failures.append("closed form at (4,1) != 0.15")
    ratios = {}
    for d in (16, 64, 1024):
        for t in (1, 2, 4):
            closed = lc.locc_advantage_closed_form(d, t)
            ratios[(d, t)] = closed * d / (t * t)
            est, stderr = lc.locc_advantage_mc(
                lc.LoccParams(d, t, trials=1000000, seed=700 + d + t))
            if abs(est - closed) > 4 * stderr:
                failures.append(
                    f"MC at (d={d},t={t}): {est} vs {closed}, stderr {stderr}")
    print("    scaled ratios advantage*d/t^2:",
          {k: round(v, 4) for k, v in sorted(ratios.items())})
    for (d, t), ratio in sorted(ratios.items()):
        if not 0.2 <= ratio <= 3.0:
            failures.append(
                f"ratio {ratio:.4f} at (d={d},t={t}) outside [0.2, 3]")
    _verdict(7, "collision distinguisher closed form, sampling, ratio bracket",
             failures, started)


def test_criterion_08_ppt_chain():
    started = time.perf_counter()
    failures = []
    for d, t in [(6, 1), (6, 2), (8, 2)]:
        chain = lc.ppt_diff_norm(d, t)
        if chain.exact > chain.kneser_sum + 1e-8:
            failures.append(f"(d={d},t={t}) exact > kneser sum")
        if abs(chain.kneser_sum - chain.middle) > 1e-8:
            failures.append(f"(d={d},t={t}) kneser sum != explicit expression")
        if chain.middle > chain.factorial_bound + 1e-8:
            failures.append(f"(d={d},t={t}) explicit > factorial bound")
        if chain.factorial_bound > chain.series_bound + 1e-8:
            failures.append(f"(d={d},t={t}) factorial > series bound")
    for d in (4, 6):
        res = lc.ppt_vs_haar_bound(d, 1)
        if res.half_norm_true is None:
            failures.append(f"true states not materialised at d={d}")
        elif res.advantage > res.half_norm_true + 1e-8:
            failures.append(
                f"advantage {res.advantage} > half norm {res.half_norm_true}")
    _verdict(8, "transposed-difference bound chain + sandwich", failures, started)


def test_criterion_09_inverse_root_overlap():
    started = time.perf_counter()
    failures = []
    for n, m in [(1, 1), (2, 1)]:
        value, bound = ps.onewayness_quantity(n, m)
        if value > bound + 1e-9:
            failures.append(f"(n={n},m={m}): {value} > {bound}")
    _verdict(9, "phased-moment overlap bound (m+1)/d", failures, started)


def test_criterion_10_reproducibility(tmp_path):
    started = time.perf_counter()
    failures = []
    paths = [tmp_path / "one.json", tmp_path / "two.json"]
    for path in paths:
        code = main(["--seed", "4242", "--out", str(path), "suite", "all"])
        if code != 0:
            failures.append(f"suite all exit code {code}")
    def values(path):
        reports = json.loads(path.read_text())
        return [
            (r["experiment"], r["seed"],
             [(c["name"], repr(c["value"]), repr(c["reference"]), c["mode"],
               c["passed"]) for c in r["checks"]])
            for r in reports
        ]
    if values(paths[0]) != values(paths[1]):
        failures.append("re-run with identical seed changed recorded values")
    _verdict(10, "bit-for-bit suite reproducibility, exit 0", failures, started)
