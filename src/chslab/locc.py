"""Two-party distinguishability of shared-state copies vs independent copies.

The lower bound is the collision tester: both parties measure every copy in
the computational basis and accept when all outcomes are distinct.  Its
advantage has an exact closed form in binomial ratios.  Its Monte Carlo
estimate never builds a state: a Haar state's basis probabilities are
Dirichlet(1,...,1), so measuring k copies is a Polya urn (draw j takes k
uniform in [0, d+j) and repeats earlier draw k when k < j, else it is the
fresh outcome k - j), drawn in fixed seeded blocks, all in the calling
process.  The draws come from ``typespace._urn_draws``, one exact
bounded-integer call per draw, the primitive the good-type sampler shares.
The tester reads the raw draws: a trial is collision-free exactly when
every draw is fresh and the fresh outcomes are distinct, so it never
resolves repeats into outcomes and never sorts.  The upper bound goes
through measurements that stay positive under partial transposition: the
trace norm of the partially transposed difference Gamma(rho) - Gamma(sigma)
is computed exactly in the basis of t-subset pairs (a, b), where it is block
diagonal by j = |a n b|, and bounded by a sum of Kneser-graph spectral norms.
Every piece reads the subset-overlap matrix g[i, j] = |A_i n A_j|.  Since
C(d,2t) C(2t,t) = C(d,t) C(d-t,t), the two weights are equal and the j = 0
block is exactly zero; each j >= 1 block is, with s = t - j, C(d,s) C(d-s,s)
copies of the weight times the adjacency of the Kneser graph K(d-2s, t-s).
So exact equals the Kneser sum; exact is still computed from the built
blocks, never from that identity.  Every block is built; only a block with
a nonzero entry goes to the eigenvalue solver, since a zero block adds 0.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, prod

import numpy as np

from .errors import EnumerationTooLarge, ParameterError
from .linalg import (
    DEFAULT_DIM_CAP,
    Operator,
    RegisterShape,
    _eigvalsh,
    partial_transpose,
    trace_distance,
    trace_norm,
)
from .rng import stream_rng
from .typespace import DEFAULT_ENUM_CAP, _urn_draws, haar_moment

_MC_BLOCK = 8192  # trials per Monte Carlo block, one RNG sub-stream each

__all__ = [
    "KneserParams",
    "LoccParams",
    "kneser_adjacency",
    "kneser_one_norm",
    "locc_advantage_closed_form",
    "locc_advantage_mc",
    "ppt_diff_norm",
    "PptChainResult",
    "ppt_vs_haar_bound",
    "PptVsHaarResult",
]


@dataclass(frozen=True)
class KneserParams:
    """k-subsets of [v] with disjointness edges; v >= 2k so edges can exist."""

    v: int
    k: int

    def __post_init__(self) -> None:
        if self.k < 1 or self.v < 2 * self.k:
            raise ParameterError(f"need 1 <= k and v >= 2k, got v={self.v}, k={self.k}")


@dataclass(frozen=True)
class LoccParams:
    """Local dimension d, copies per party t, Monte Carlo budget."""

    d: int
    t: int
    trials: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.d < 2 or self.t < 0 or self.trials < 1:
            raise ParameterError("bad LOCC parameters")


def _subset_overlaps(d: int, t: int) -> np.ndarray:
    """g[i, j] = |A_i n A_j| over the t-subsets of [d], lexicographic order:
    the Gram matrix of their 0/1 membership rows."""
    subsets = np.array(list(itertools.combinations(range(d), t)), dtype=np.intp)
    member = np.zeros((len(subsets), d), dtype=np.int16)
    np.put_along_axis(member, subsets, 1, axis=1)
    return member @ member.T


def kneser_adjacency(kp: KneserParams, enum_cap: int = DEFAULT_ENUM_CAP) -> Operator:
    """0/1 adjacency matrix over the C(v,k) subsets, lexicographic order."""
    count = comb(kp.v, kp.k)
    if count > enum_cap:
        raise EnumerationTooLarge(f"{count} vertices exceeds cap {enum_cap}")
    out = (_subset_overlaps(kp.v, kp.k) == 0).astype(float)
    return Operator(RegisterShape((count,)), out, hermitian_hint=True)


def _kneser_formula(v: int, k: int) -> float:
    return 2**k * prod(range(v - 1, v - 2 * k, -2)) / factorial(k)


def kneser_one_norm(kp: KneserParams,
                    enum_cap: int = DEFAULT_ENUM_CAP) -> tuple[float, float]:
    """(sum of absolute adjacency eigenvalues, closed-form value).

    The closed form 2^k (v-1)(v-3)...(v-2k+1) / k! is stated for v >= 2k+1;
    at v = 2k it degenerates to the perfect-matching count and still agrees.
    """
    exact = trace_norm(kneser_adjacency(kp, enum_cap))
    return exact, _kneser_formula(kp.v, kp.k)


def locc_advantage_closed_form(d: int, t: int) -> float:
    """Exact advantage of the no-collision tester, as a binomial-ratio rational."""
    if t < 0 or d < 2 * t or d < 1:
        raise ParameterError(f"need d >= 2t >= 0, got d={d}, t={t}")
    if t == 0:
        return 0.0
    independent = Fraction(comb(d, t) * comb(d - t, t), comb(d + t - 1, t) ** 2)
    identical = Fraction(comb(d, 2 * t), comb(d + 2 * t - 1, 2 * t))
    return float(independent - identical)


def _all_distinct(outcomes: np.ndarray) -> np.ndarray:
    srt = np.sort(outcomes, axis=1)
    return (np.diff(srt, axis=1) != 0).all(axis=1)


def _fresh_and_distinct(ks: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per column of raw urn draws ``ks`` (one row per draw): True iff no
    draw repeats an earlier one and the fresh outcomes are pairwise
    distinct.  Draw j of an urn repeats when k < j and is otherwise the
    fresh outcome k - j, so ``offsets`` holds each row's j."""
    fresh = ks - offsets[:, None]
    ok = (fresh >= 0).all(axis=0)
    for j in range(1, len(fresh)):
        ok &= (fresh[:j] != fresh[j]).all(axis=0)
    return ok


def _mc_block(seed: int, stream: int, block: int, rows: int, d: int,
              t: int) -> tuple[int, int]:
    """No-collision hit counts for one deterministic trial block.

    The trials are paired: the shared-state branch measures 2t copies of
    one state (urn A), and the independent branch combines the first t of
    those outcomes with t outcomes of a second state (urn B).  Both read
    the raw draws: a trial is collision-free exactly when every draw is
    fresh and the fresh outcomes are distinct, so no outcome is resolved.
    """
    rng = stream_rng(seed, (stream, block))
    draws_a = _urn_draws(rows, d, 2 * t, rng)
    draws_b = _urn_draws(rows, d, t, rng)
    hits_identical = _fresh_and_distinct(draws_a, np.arange(2 * t))
    hits_independent = _fresh_and_distinct(
        np.concatenate([draws_a[:t], draws_b]), np.tile(np.arange(t), 2))
    return int(hits_identical.sum()), int(hits_independent.sum())


def locc_advantage_mc(lp: LoccParams, stream: int = 0,
                      workers: int | None = None) -> tuple[float, float]:
    """Monte Carlo estimate of the no-collision advantage with its stderr.

    A Haar state's basis probabilities are Dirichlet(1,...,1), so its
    measured copies are drawn as a Polya urn, one exact bounded-integer
    call per draw (``typespace._urn_draws``), O(t) per trial and no state
    amplitudes.  Each trial is tested on the raw draws, fresh and distinct,
    never resolved or sorted.  Trials run in fixed blocks of
    ``_MC_BLOCK``, one RNG sub-stream per block, every block in this
    process.  ``workers`` is accepted and ignored, because perfbench's
    collision-mc still passes it (ROADMAP item 1); it cannot change the
    result.  The quoted
    stderr treats the branches as independent, which is conservative for
    the paired sampler.
    """
    if lp.t == 0:
        return 0.0, 0.0
    hits_identical = hits_independent = 0
    for block, first in enumerate(range(0, lp.trials, _MC_BLOCK)):
        rows = min(_MC_BLOCK, lp.trials - first)
        ident, indep = _mc_block(lp.seed, stream, block, rows, lp.d, lp.t)
        hits_identical += ident
        hits_independent += indep
    p_id = hits_identical / lp.trials
    p_ind = hits_independent / lp.trials
    stderr = float(np.sqrt(
        p_id * (1 - p_id) / lp.trials + p_ind * (1 - p_ind) / lp.trials))
    return p_ind - p_id, stderr


@dataclass(frozen=True)
class PptChainResult:
    exact: float
    kneser_sum: float
    middle: float
    factorial_bound: float
    series_bound: float


def ppt_diff_norm(d: int, t: int,
                  enum_cap: int = DEFAULT_ENUM_CAP) -> PptChainResult:
    """Exact partially transposed difference norm and its bound chain.

    Both mixtures are supported on pairs (a, b) of t-subset states, which
    are orthonormal and real, so transposing B swaps b with the column's
    subset.  Gamma(rho) joins (a, b) to (c, e) with weight 1/(C(d,2t) C(2t,t))
    when a and e are disjoint, c and b are disjoint and a u e = c u b;
    Gamma(sigma) = sigma is diagonal on disjoint pairs.  Both keep
    j = |a n b|, so the norm is the sum over the t+1 blocks of pairs with
    overlap j.  The chain reported is
    exact <= kneser_sum (= middle) <= factorial_bound <= series_bound.
    """
    if t < 0 or d <= 2 * t:
        raise ParameterError(f"need d > 2t >= 0, got d={d}, t={t}")
    if comb(d, t) ** 2 > enum_cap:
        raise EnumerationTooLarge(
            f"subset-pair basis C({d},{t})^2 exceeds cap {enum_cap}")
    g = _subset_overlaps(d, t)
    weight_rho = 1.0 / (comb(d, 2 * t) * comb(2 * t, t))
    weight_sigma = 1.0 / (comb(d, t) * comb(d - t, t))
    exact = 0.0
    for j in range(t + 1):
        a, b = np.nonzero(g == j)
        cross = g[np.ix_(a, b)]  # |a_r n b_s|: row r's a against column s's e
        # a u e = c u b  <=>  |a n c| + |a n b| + |e n c| + |e n b| = 2t
        joined = ((cross == 0) & (cross.T == 0)
                  & (g[np.ix_(a, a)] + g[np.ix_(b, b)] == 2 * (t - j)))
        block = weight_rho * joined
        block[np.diag_indices(len(a))] -= weight_sigma * (cross.diagonal() == 0)
        if block.any():  # j = 0 is exactly zero, as w_rho == w_sigma
            exact += float(np.abs(_eigvalsh(block)).sum())

    kneser_sum = 0.0
    middle = Fraction(0)
    factorial_bound = Fraction(0)
    for s in range(t):
        norm, _ = kneser_one_norm(KneserParams(d - 2 * s, t - s), enum_cap)
        kneser_sum += comb(d, s) * comb(d - s, s) * norm
        middle += Fraction(2 ** (t - s) * (factorial(t) // factorial(s)) ** 2,
                           factorial(t - s) * prod(range(d - 2 * s, d - 2 * t, -2)))
        factorial_bound += Fraction(2 ** (t - s) * t ** (2 * (t - s)),
                                    factorial(t - s) * (d - 2 * t + 2) ** (t - s))
    kneser_sum *= weight_rho
    series_bound = float(np.expm1(2.0 * t * t / (d - 2 * t + 2)))
    return PptChainResult(exact, kneser_sum, float(middle),
                          float(factorial_bound), series_bound)


@dataclass(frozen=True)
class PptVsHaarResult:
    advantage: float
    half_norm_surrogate: float
    half_norm_true: float | None
    slack_identical: float | None
    slack_independent: float | None
    slack_reference: float


def _subset_surrogates(d: int, t: int, rho: Operator,
                       sigma: Operator) -> tuple[Operator, Operator]:
    """The subset mixtures behind the PPT surrogate, from the true moments.

    rho~ averages the 2t-subset states and sigma~ the products of disjoint
    t-subset states.  Both moments join a row only to its digit
    permutations, so keeping the rows whose 2t digits are all distinct and
    rescaling gives the mixtures: rho~ = rho mask C(d+2t-1,2t) / C(d,2t)
    and sigma~ = sigma mask C(d+t-1,t)^2 / (C(d,t) C(d-t,t)).
    """
    distinct = _all_distinct(np.indices((d,) * (2 * t)).reshape(2 * t, -1).T)[:, None]
    scale_rho = comb(d + 2 * t - 1, 2 * t) / comb(d, 2 * t)
    scale_sigma = comb(d + t - 1, t) ** 2 / (comb(d, t) * comb(d - t, t))
    return (Operator(rho.shape, rho.entries * (distinct * scale_rho),
                     hermitian_hint=True),
            Operator(sigma.shape, sigma.entries * (distinct * scale_sigma),
                     hermitian_hint=True))


def ppt_vs_haar_bound(d: int, t: int, cap: int = DEFAULT_DIM_CAP,
                      enum_cap: int = DEFAULT_ENUM_CAP) -> PptVsHaarResult:
    """Bound pieces for distinguishing shared copies from independent ones.

    The surrogate half-norm comes from :func:`ppt_diff_norm`.  When d^(2t)
    fits the cap, the half-norm on the true moment states and the two
    collision slacks (distance from each true state to its subset surrogate)
    are computed exactly; otherwise only the constant-free reference t^2/d
    is reported for the slack.
    """
    if t == 0:
        return PptVsHaarResult(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    chain = ppt_diff_norm(d, t, enum_cap)
    advantage = locc_advantage_closed_form(d, t)
    slack_reference = t * t / d

    if d ** (2 * t) > cap:
        return PptVsHaarResult(advantage, chain.exact / 2.0, None, None, None,
                               slack_reference)

    shape = RegisterShape((d,) * (2 * t))
    rho = haar_moment(d, 2 * t, cap)
    sig_half = haar_moment(d, t, cap).entries
    sigma = Operator(shape, np.kron(sig_half, sig_half), hermitian_hint=True)
    b_regs = range(t, 2 * t)
    half_true = trace_distance(partial_transpose(rho, b_regs),
                               partial_transpose(sigma, b_regs))

    rho_tilde, sigma_tilde = _subset_surrogates(d, t, rho, sigma)
    slack_identical = trace_distance(rho, rho_tilde)
    slack_independent = trace_distance(sigma, sigma_tilde)
    return PptVsHaarResult(advantage, chain.exact / 2.0, half_true,
                           slack_identical, slack_independent, slack_reference)
