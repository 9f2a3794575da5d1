"""The closed forms of chslab.exact against independent derivations, the
dense constructions they replace, and each other."""

from fractions import Fraction
from math import comb, prod, ulp

import pytest

from chslab import exact
from chslab.linalg import trace_norm
from chslab.locc import KneserParams, kneser_adjacency


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
    # complete graphs K(v, 1) stop at v = 64: the 436 larger ones, dense up
    # to 500 x 500, would cost this file some fifty times its run time and
    # test the same 2(v-1)
    checked = []
    for k in range(1, 250):
        for v in range(2 * k, 65 if k == 1 else 501):
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


@pytest.mark.parametrize("call", [
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
