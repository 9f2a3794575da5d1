"""The closed forms of chslab.exact against independent derivations, the
dense constructions they replace, and each other."""

from fractions import Fraction
from math import comb, prod, ulp

import numpy as np
import pytest

from chslab import exact
from chslab.commitment import CommitmentParams, hiding_distance
from chslab.linalg import trace_norm
from chslab.locc import KneserParams, kneser_adjacency
from chslab.pseudo import PseudoParams, prs_hybrids


def _falling(x: int, k: int) -> int:
    return prod(range(x, x - k, -1))


def _rising(x: int, k: int) -> int:
    return prod(range(x, x + k))


def test_collision_advantage_matches_the_urn_derivation():
    # a Haar state's measured copies are a Polya urn: draw j is fresh with
    # probability d/(d+j), so k draws are distinct with probability
    # falling(d,k)/rising(d,k), and t draws of a second state avoid t given
    # outcomes and each other with falling(d-t,t)/rising(d,t)
    for t in range(5):
        for d in range(max(1, 2 * t), 65):
            identical = Fraction(_falling(d, 2 * t), _rising(d, 2 * t))
            independent = Fraction(_falling(d, 2 * t), _rising(d, t) ** 2)
            assert exact.collision_advantage(d, t) == independent - identical, (d, t)


def test_kneser_one_norm_matches_the_dense_spectrum():
    # every (v, k) with C(v, k) <= 500, v = 2k included, except that the
    # complete graphs K(v, 1) stop at v = 200: those up to 200 take 0.17 s
    # (one BLAS thread), and the 300 larger ones, dense up to 500 x 500,
    # would take 2.4 s more to test the same 2(v-1)
    checked = []
    for k in range(1, 250):
        for v in range(2 * k, 201 if k == 1 else 501):
            if comb(v, k) > 500:
                break
            dense = trace_norm(kneser_adjacency(KneserParams(v, k)))
            assert abs(dense - exact.kneser_one_norm(v, k)) <= 1e-9, (v, k)
            checked.append((v, k))
    assert (8, 4) in checked and (10, 5) in checked and len(checked) > 100


@pytest.mark.parametrize("t", range(6))
def test_ppt_middle_is_the_kneser_sum(t):
    for d in range(2 * t, 41):
        kneser = sum((comb(d, s) * comb(d - s, s) * exact.kneser_one_norm(d - 2 * s, t - s)
                      for s in range(t)), Fraction(0))
        assert exact.ppt_middle(d, t) == kneser * exact.ppt_weight(d, t), (d, t)


def test_rank_ratio_bound_matches_the_binomial_form():
    # 2^lam symmetric (ell+t)-copy subspaces over the ideal's rank
    for lam, n, ell, t in [(1, 1, 1, 1), (2, 2, 1, 2), (3, 3, 1, 2), (2, 3, 3, 1),
                           (0, 2, 2, 0), (4, 4, 2, 3)]:
        d = 2**n
        binomial = Fraction(2**lam * comb(d + ell + t - 1, ell + t),
                            comb(d + ell - 1, ell) * comb(d + t - 1, t))
        assert exact.rank_ratio_bound(lam, n, ell, t) == binomial
        assert exact.ideal_rank(n, ell, t) == comb(d + ell - 1, ell) * comb(d + t - 1, t)


def test_binding_optimum_ends_and_the_bound():
    # F = 0: one reveal is certain and the other is the swap test's 1/2;
    # F = 1: both reveals are certain
    assert exact.binding_optimum(0.0) == 1.5
    assert exact.binding_optimum(1.0) == 2.0
    assert exact.binding_optimum(0.25) == 1.75
    # at the fidelity bound 2^-(n-lam) the optimum is the p = 1 binding bound
    for lam, n in [(0, 1), (1, 2), (1, 3), (2, 3), (2, 4), (1, 4), (3, 8), (0, 9)]:
        optimum = exact.binding_optimum(float(exact.fidelity_bound(lam, n)))
        bound = exact.binding_bound(lam, n, 1)
        assert abs(optimum - bound) <= ulp(bound), (lam, n)


def _key_signs(lam: int, n: int) -> np.ndarray:
    """(-1)^<k, prefix(a)> for every lam-bit key k (rows) and basis label a
    of n qubits (columns), the prefix being a's top lam bits."""
    prefix = np.arange(2**n) >> (n - lam)
    return np.array([[(-1) ** bin(k & x).count("1") for x in prefix]
                     for k in range(2**lam)], dtype=float)


def _one_copy_dense(lam: int, n: int) -> float:
    """Half the trace norm of rho - I/d^2 as d^2-square matrices: rho is
    the moment (I + SWAP)/(d(d+1)) of two Haar copies, its first copy
    phased by every lam-bit key and averaged."""
    d = 2**n
    swap = np.eye(d * d)[[b * d + a for a in range(d) for b in range(d)]]
    first = np.repeat(_key_signs(lam, n), d, axis=1)  # the phase of |a, b> is a's
    rho = (np.eye(d * d) + swap) / (d * (d + 1)) * (first.T @ first / 2**lam)
    return 0.5 * float(np.abs(np.linalg.eigvalsh(rho - np.eye(d * d) / d**2)).sum())


def _one_copy_pairs(lam: int, n: int) -> float:
    """The same distance from the pair blocks of rho - I/d^2: (I + SWAP)
    joins |a, b> only to |b, a>, so each pair a < b is a 2 x 2 block with
    the key-averaged phase product on its off-diagonal, and each |a, a> a
    1 x 1 block; their spectra by eigvalsh."""
    d = 2**n
    signs = _key_signs(lam, n)
    a, b = np.triu_indices(d, 1)
    off = (signs[:, a] * signs[:, b]).mean(axis=0) / (d * (d + 1))
    blocks = np.empty((len(a), 2, 2))
    blocks[:, 0, 0] = blocks[:, 1, 1] = 1 / (d * (d + 1)) - 1 / d**2
    blocks[:, 0, 1] = blocks[:, 1, 0] = off
    pairs = np.abs(np.linalg.eigvalsh(blocks)).sum()
    return 0.5 * float(pairs + d * abs(2 / (d * (d + 1)) - 1 / d**2))


def test_one_copy_distance_matches_the_dense_hybrid():
    # every 0 <= lam <= n <= 6: the d^2-square matrices up to n = 4
    # (D = 256), the pair blocks, checked against them there, up to n = 6
    for n in range(7):
        for lam in range(n + 1):
            closed = exact.one_copy_distance(lam, n)
            assert closed == Fraction((2 ** (n - lam) + 1) * (2**n - 1),
                                      2 * 2**n * (2**n + 1))
            pairs = _one_copy_pairs(lam, n)
            assert abs(pairs - float(closed)) <= 1e-15, (lam, n)
            if n <= 4:
                assert abs(_one_copy_dense(lam, n) - pairs) <= 1e-15, (lam, n)


def test_one_copy_distance_matches_the_library_hybrids():
    # the keyed hybrid at ell = t = 1 and the hiding distance at p = t = 1
    # are the same operator pair, for every lam <= n <= 6 (D <= 4096);
    # measured 1.11e-16
    worst = 0.0
    for n in range(1, 7):
        for lam in range(n + 1):
            closed = float(exact.one_copy_distance(lam, n))
            worst = max(worst, abs(prs_hybrids(PseudoParams(lam, n, 1, 1)).td - closed))
            if lam < n:
                worst = max(worst, abs(hiding_distance(CommitmentParams(lam, n, 1, 1))
                                       - closed))
    assert worst <= 1.2e-16


def test_one_copy_distance_trends():
    # towards 2^-(lam+1): rising at lam = 1, falling from n = lam at lam >= 2
    assert [exact.one_copy_distance(1, n) for n in (2, 3, 4)] == [
        Fraction(9, 40), Fraction(35, 144), Fraction(135, 544)]
    assert [exact.one_copy_distance(2, n) for n in (2, 3, 4, 5)] == [
        Fraction(3, 20), Fraction(7, 48), Fraction(75, 544), Fraction(93, 704)]
    assert exact.one_copy_distance(3, 3) == Fraction(7, 72)
    for lam in range(1, 5):
        gaps = [abs(exact.one_copy_distance(lam, n) - Fraction(1, 2 ** (lam + 1)))
                for n in range(lam, lam + 8)]
        assert all(b < a for a, b in zip(gaps, gaps[1:])), lam


@pytest.mark.parametrize("call", [
    lambda: exact.one_copy_distance(3, 2),
    lambda: exact.one_copy_distance(-1, 2),
    lambda: exact.collision_advantage(3, 2),
    lambda: exact.collision_advantage(0, 0),
    lambda: exact.kneser_one_norm(3, 2),
    lambda: exact.kneser_one_norm(4, 0),
    lambda: exact.ppt_middle(5, 3),
    lambda: exact.ppt_weight(4, -1),
    lambda: exact.hybrid_bound(-1, 1, 1),
    lambda: exact.hybrid_bound(2, 1, 1, keys=0),
    lambda: exact.rank_ratio_bound(2, -1, 1, 1),
    lambda: exact.onewayness_bound(1, -1),
    lambda: exact.fidelity_bound(-1, 2),
    lambda: exact.fidelity_bound(2, 2),
    lambda: exact.binding_bound(1, 1, 1),
    lambda: exact.binding_optimum(-1e-300),
    lambda: exact.binding_optimum(1.0000000000000002),
    lambda: exact.binding_optimum(float("nan")),
    lambda: exact.symmetric_dimension(0, 1),
    lambda: exact.bipartition_pairs(2, 3),
    lambda: exact.slack_reference(0, 1),
    lambda: exact.haar_overlap(0),
])
def test_out_of_domain_is_a_value_error(call):
    with pytest.raises(ValueError):
        call()
