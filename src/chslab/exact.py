"""Closed forms and paper bounds, each stated once, in exact arithmetic.

A rational value is returned as a ``Fraction``, a count as an ``int``, and
the irrational values (the series bound and the two binding values) as
``float``.  The module imports only the standard library, so a closed form
here shares no code with the numeric construction it is compared against.
An argument outside a formula's domain raises a plain ``ValueError``; the
numeric modules check their parameters first and raise the package's own
errors.

Sources, one per function:

- ``collision_advantage(d, t)``: the computational-basis collision tester
  accepts when all 2t measured outcomes are distinct.  The t-copy Haar
  moment is uniform over the C(d+t-1, t) types, so 2t outcomes of one state
  are distinct with probability C(d,2t)/C(d+2t-1,2t) and t outcomes of each
  of two independent states with C(d,t) C(d-t,t)/C(d+t-1,t)^2; the
  advantage is the second minus the first.
- ``kneser_one_norm(v, k)``: the absolute sum of Lovász's Kneser spectrum,
  eigenvalues (-1)^i C(v-k-i, k-i) with multiplicity C(v,i) - C(v,i-1),
  which telescopes to 2^k (v-1)(v-3)...(v-2k+1)/k!.  At v = 2k the graph
  is a perfect matching and the value is C(2k, k).
- ``kneser_degree(v, k)``: a k-subset of [v] is disjoint from C(v-k, k)
  others.
- ``ppt_weight(d, t)``: the entry of the partially transposed shared
  mixture Gamma(rho~), rho~ uniform over the C(d,2t) 2t-subset states, each
  split into C(2t,t) subset pairs.  Since C(d,2t) C(2t,t) = C(d,t) C(d-t,t)
  it is also the weight of the independent mixture on disjoint pairs.
- ``ppt_middle(d, t)``: the Kneser sum sum_{s<t} C(d,s) C(d-s,s)
  ||K(d-2s, t-s)||_1 ppt_weight(d,t), simplified term by term to
  2^(t-s) (t!/s!)^2 / ((t-s)! (d-2s)(d-2s-2)...(d-2t+2)).
- ``ppt_factorial_bound(d, t)``: each middle term with t!/s! <= t^(t-s)
  and every factor of the even product at least d-2t+2.
- ``ppt_series_bound(d, t)``: the factorial bound's terms are x^j/j! with
  x = 2t^2/(d-2t+2) and j = t-s, so their sum is below e^x - 1.
- ``hybrid_bound(lam, ell, t, keys)``: the paper's hybrid bound for ell
  keyed copies next to t shared copies, (ell+t)^(2 ell)/2^lam, taken once
  per independent key over the keys*ell + t copies in play.
- ``symmetric_dimension(d, t)``: the t-copy symmetric subspace of C^d is
  spanned by the C(d+t-1, t) type states (Harrow, arXiv:1308.6595).
- ``ideal_rank(n, ell, t)``: the ideal state is the product of an ell-copy
  and a t-copy Haar moment on C^(2^n); its rank is the product of their
  symmetric dimensions.
- ``rank_ratio_bound(lam, n, ell, t)``: the keyed state lives on at most
  2^lam key branches of the (ell+t)-copy symmetric subspace, so
  rank0/rank1 <= 2^lam C(d+ell+t-1, ell+t)/(C(d+ell-1, ell) C(d+t-1, t)),
  written as 2^lam/C(ell+t, ell) prod_{i<ell} (1 + t/(d+i)), d = 2^n.
- ``bipartition_pairs(t, x)``: a collision-free type of t elements splits
  across a cut after x registers into one pair per x-subset.
- ``one_copy_distance(lam, n)``: one keyed copy next to one shared copy,
  averaged over the key, is rho = (I + SWAP sum_k Pi_k (x) Pi_k)/(d(d+1))
  for the 2^lam label projectors Pi_k, each of rank m = 2^(n-lam), d = 2^n.
  Against I/d^2 its one positive eigenvalue, (d-1)/(d^2 (d+1)), lies on
  the d(m+1)/2 symmetric dimensions of the label blocks, and a traceless
  difference's trace distance is its positive part:
  (m+1)(d-1)/(2d(d+1)).  It tends to 2^-(lam+1) as n grows.
- ``onewayness_bound(n, m)``: the phased-moment overlap bound (m+1)/d,
  d = 2^n.
- ``fidelity_bound(lam, n)``: the key-averaged commit register has rank at
  most 2^lam, so its fidelity with the maximally mixed state on 2^n
  dimensions is at most 2^lam/2^n.
- ``hiding_bound(lam, p, t)``: each of the p commit registers is keyed by
  its own key, so the receiver's view is the hybrid of p single-copy keys
  next to t observer copies: ``hybrid_bound(lam, 1, t, keys=p)``.
- ``binding_bound(lam, n, p)``: the sum-binding bound of the swap-test
  commitment, 1 + ((1 + 2^(-(n-lam)/2))/2)^p.
- ``binding_optimum(F)``: the largest p0 + p1 of any sender at p = 1, for
  commit register marginals rho_0, rho_1 with fidelity F.  The receiver
  accepts b with (1 + F(sigma, rho_b))/2 at best for a commit register
  sigma (Uhlmann), and F(sigma, rho_0) + F(sigma, rho_1) <= 1 + sqrt F by
  the two-state lemma (Spekkens and Rudolph, PRA 65, 012310, 2001; Nayak
  and Shor, PRA 67, 012304, 2003), so the optimum is 1 + (1 + sqrt F)/2.
- ``slack_reference(d, t)``: the constant-free collision slack t^2/d.
- ``haar_overlap(d)``: a Haar state's basis probabilities are
  Dirichlet(1, ..., 1), so each has mean 1/d.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, expm1, factorial, prod, sqrt

__all__ = [
    "binding_bound",
    "binding_optimum",
    "bipartition_pairs",
    "collision_advantage",
    "fidelity_bound",
    "haar_overlap",
    "hiding_bound",
    "hybrid_bound",
    "ideal_rank",
    "kneser_degree",
    "kneser_one_norm",
    "one_copy_distance",
    "onewayness_bound",
    "ppt_factorial_bound",
    "ppt_middle",
    "ppt_series_bound",
    "ppt_weight",
    "rank_ratio_bound",
    "slack_reference",
    "symmetric_dimension",
]


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ValueError(message)


def _ppt_domain(d: int, t: int) -> None:
    _require(0 <= t and 2 * t <= d, f"need d >= 2t >= 0, got d={d}, t={t}")


def _kneser_domain(v: int, k: int) -> None:
    _require(1 <= k and 2 * k <= v, f"need v >= 2k >= 2, got v={v}, k={k}")


def collision_advantage(d: int, t: int) -> Fraction:
    """Exact advantage of the no-collision tester on t copies per party."""
    _require(0 <= t and 2 * t <= d and d >= 1,
             f"need d >= 2t >= 0 and d >= 1, got d={d}, t={t}")
    independent = Fraction(comb(d, t) * comb(d - t, t), comb(d + t - 1, t) ** 2)
    identical = Fraction(comb(d, 2 * t), comb(d + 2 * t - 1, 2 * t))
    return independent - identical


def kneser_one_norm(v: int, k: int) -> Fraction:
    """Sum of the absolute adjacency eigenvalues of the Kneser graph K(v, k)."""
    _kneser_domain(v, k)
    return Fraction(2**k * prod(range(v - 1, v - 2 * k, -2)), factorial(k))


def kneser_degree(v: int, k: int) -> int:
    """Degree of every vertex of the Kneser graph K(v, k)."""
    _kneser_domain(v, k)
    return comb(v - k, k)


def ppt_weight(d: int, t: int) -> Fraction:
    """Entry of Gamma(rho~) on joined t-subset pairs, 1/(C(d,2t) C(2t,t))."""
    _ppt_domain(d, t)
    return Fraction(1, comb(d, 2 * t) * comb(2 * t, t))


def ppt_middle(d: int, t: int) -> Fraction:
    """The Kneser sum of the PPT chain in closed form."""
    _ppt_domain(d, t)
    return sum((Fraction(2 ** (t - s) * (factorial(t) // factorial(s)) ** 2,
                         factorial(t - s) * prod(range(d - 2 * s, d - 2 * t, -2)))
                for s in range(t)), Fraction(0))


def ppt_factorial_bound(d: int, t: int) -> Fraction:
    """Upper bound on :func:`ppt_middle`, term by term."""
    _ppt_domain(d, t)
    return sum((Fraction(2 ** (t - s) * t ** (2 * (t - s)),
                         factorial(t - s) * (d - 2 * t + 2) ** (t - s))
                for s in range(t)), Fraction(0))


def ppt_series_bound(d: int, t: int) -> float:
    """e^x - 1 with x = 2t^2/(d-2t+2), above :func:`ppt_factorial_bound`."""
    _ppt_domain(d, t)
    return expm1(2.0 * t * t / (d - 2 * t + 2))


def hybrid_bound(lam: int, ell: int, t: int, keys: int = 1) -> Fraction:
    """keys (keys ell + t)^(2 ell) / 2^lam for ``keys`` independent keys,
    each keying ell copies, next to t shared copies."""
    _require(min(lam, ell, t) >= 0 and keys >= 1,
             f"need lam, ell, t >= 0 and keys >= 1, got {lam}, {ell}, {t}, {keys}")
    return Fraction(keys * (keys * ell + t) ** (2 * ell), 2**lam)


def symmetric_dimension(d: int, t: int) -> int:
    """Dimension C(d+t-1, t) of the t-copy symmetric subspace of C^d."""
    _require(d >= 1 and t >= 0, f"need d >= 1 and t >= 0, got d={d}, t={t}")
    return comb(d + t - 1, t)


def ideal_rank(n: int, ell: int, t: int) -> int:
    """Rank of the ideal ell-copy times t-copy moment product on C^(2^n)."""
    _require(n >= 0, f"need n >= 0, got n={n}")
    return symmetric_dimension(2**n, ell) * symmetric_dimension(2**n, t)


def rank_ratio_bound(lam: int, n: int, ell: int, t: int) -> Fraction:
    """Bound on rank0/rank1 for the rank attack on 2^lam keys, d = 2^n."""
    _require(min(lam, n, ell, t) >= 0,
             f"need lam, n, ell, t >= 0, got {lam}, {n}, {ell}, {t}")
    d = 2**n
    growth = prod((Fraction(d + i + t, d + i) for i in range(ell)), start=Fraction(1))
    return Fraction(2**lam, comb(ell + t, ell)) * growth


def bipartition_pairs(t: int, x: int) -> int:
    """Pairs in the expansion of a t-element type across a cut after x."""
    _require(0 <= x <= t, f"need 0 <= x <= t, got t={t}, x={x}")
    return comb(t, x)


def one_copy_distance(lam: int, n: int) -> Fraction:
    """(m+1)(d-1)/(2d(d+1)) with d = 2^n and m = 2^(n-lam): the exact hybrid
    distance of one lam-bit keyed copy next to one shared copy."""
    _require(0 <= lam <= n, f"need 0 <= lam <= n, got lam={lam}, n={n}")
    d, m = 2**n, 2 ** (n - lam)
    return Fraction((m + 1) * (d - 1), 2 * d * (d + 1))


def onewayness_bound(n: int, m: int) -> Fraction:
    """(m+1)/2^n, the bound on the phased-moment overlap."""
    _require(n >= 0 and m >= 0, f"need n, m >= 0, got n={n}, m={m}")
    return Fraction(m + 1, 2**n)


def fidelity_bound(lam: int, n: int) -> Fraction:
    """2^-(n-lam), the bound on the averaged commit register's fidelity."""
    _require(0 <= lam < n, f"need n > lam >= 0, got n={n}, lam={lam}")
    return Fraction(1, 2 ** (n - lam))


def hiding_bound(lam: int, p: int, t: int) -> Fraction:
    """p (p+t)^2 / 2^lam, the hybrid bound on the receiver's view."""
    return hybrid_bound(lam, 1, t, keys=p)


def binding_bound(lam: int, n: int, p: int) -> float:
    """1 + ((1 + 2^(-(n-lam)/2))/2)^p, irrational, in Python floats."""
    _require(0 <= lam < n and p >= 1,
             f"need n > lam >= 0 and p >= 1, got {lam}, {n}, {p}")
    return 1.0 + ((1.0 + 2.0 ** (-(n - lam) / 2.0)) / 2.0) ** p


def binding_optimum(F: float) -> float:
    """1 + (1 + sqrt F)/2, the optimal p0 + p1 at p = 1, in Python floats."""
    _require(0.0 <= F <= 1.0, f"need 0 <= F <= 1, got F={F}")
    return 1.0 + (1.0 + sqrt(F)) / 2.0


def slack_reference(d: int, t: int) -> Fraction:
    """t^2/d, the constant-free reference for the collision slacks."""
    _require(d >= 1 and t >= 0, f"need d >= 1 and t >= 0, got d={d}, t={t}")
    return Fraction(t * t, d)


def haar_overlap(d: int) -> Fraction:
    """1/d, the mean overlap of a Haar state in C^d with a basis state."""
    _require(d >= 1, f"need d >= 1, got d={d}")
    return Fraction(1, d)
