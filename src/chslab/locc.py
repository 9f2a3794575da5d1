"""Two-party distinguishability of shared-state copies vs independent copies.

The lower bound is the collision tester: both parties measure every copy in
the computational basis and accept when all outcomes are distinct.  Its
advantage has an exact closed form in binomial ratios
(:func:`chslab.exact.collision_advantage`).  Its Monte Carlo
estimate never builds a state: a Haar state's basis probabilities are
Dirichlet(1,...,1), so measuring k copies is a Polya urn (draw j takes k
uniform in [0, d+j) and repeats earlier draw k when k < j, else it is the
fresh outcome k - j), drawn in fixed seeded blocks, all in the calling
process.  The draws come from ``typespace._urn_draws``, one exact
bounded-integer call per draw, the primitive the good-type sampler shares.
The tester reads the raw draws: a trial is collision-free exactly when
every draw is fresh and the fresh outcomes are distinct, so it never
resolves repeats into outcomes and never sorts.  Each draw is one
contiguous vector over the block's trials, and the test is a pairwise
``!=`` scan of those vectors; the shared draws are tested once for both
branches.  The upper bound goes
through measurements that stay positive under partial transposition: the
trace norm of the partially transposed difference Gamma(rho) - Gamma(sigma)
is computed exactly in the basis of t-subset pairs (a, b), where it is block
diagonal by j = |a n b|, and bounded by a sum of Kneser-graph spectral norms.
Since C(d,2t) C(2t,t) = C(d,t) C(d-t,t), the two weights are equal and the
j = 0 block is exactly zero, so it is never built.  Each j >= 1 block comes
from its rule: row (a, b) holds the weight at the columns
((a minus b) u X, (b minus a) u X), one for each j-subset X outside a u b,
scattered into a zero matrix whose row count is checked against the
dimension cap first.  With s = t - j the block is C(d,s) C(d-s,s) copies of
the weight times the adjacency of the Kneser graph K(d-2s, t-s), so exact
equals the Kneser sum; exact is still computed from the built blocks, never
from that identity.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

import numpy as np

from . import exact
from .errors import EnumerationTooLarge, ParameterError
from .linalg import (
    DEFAULT_DIM_CAP,
    Operator,
    RegisterShape,
    _spectrum,
    partial_transpose,
    trace_distance,
    trace_norm,
)
from .rng import stream_rng
from .typespace import DEFAULT_ENUM_CAP, _fold_good, _ideal_state, _urn_draws, haar_moment

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
        if self.d + 2 * self.t - 1 > np.iinfo(np.int64).max:  # last urn draw's bound
            raise ParameterError(f"urn bound d + 2t - 1 does not fit int64 at d={self.d}")


def _subset_members(d: int, t: int) -> np.ndarray:
    """0/1 membership rows of the t-subsets of [d], lexicographic order; float64, so
    their Gram product runs in BLAS, and its counts (at most t) are exact."""
    subsets = np.array(list(itertools.combinations(range(d), t)), dtype=np.intp)
    member = np.zeros((len(subsets), d))
    np.put_along_axis(member, subsets, 1, axis=1)
    return member


def _subset_overlaps(d: int, t: int) -> np.ndarray:
    """g[i, j] = |A_i n A_j| over the t-subsets of [d], lexicographic order:
    the Gram matrix of their 0/1 membership rows."""
    member = _subset_members(d, t)
    return member @ member.T


def _subset_ranks(subsets: np.ndarray, d: int) -> np.ndarray:
    """Lexicographic index among the t-subsets of [d] of each ascending
    t-subset along the last axis of ``subsets``.

    The reflection v -> d-1-v reverses lexicographic order into
    colexicographic order, and the colex index of an ascending subset
    v_0 < ... < v_{t-1} is sum_i C(v_i, i+1).
    """
    t = subsets.shape[-1]
    binom = np.array([[comb(v, i + 1) for i in range(t)] for v in range(d)],
                     dtype=np.int64)
    reflected = (d - 1 - subsets)[..., ::-1]
    return comb(d, t) - 1 - binom[reflected, np.arange(t)].sum(axis=-1)


def kneser_adjacency(kp: KneserParams, enum_cap: int = DEFAULT_ENUM_CAP,
                     cap: int = DEFAULT_DIM_CAP) -> Operator:
    """0/1 adjacency matrix over the C(v,k) subsets, lexicographic order.

    The vertex count is checked against ``enum_cap`` and, as the matrix
    dimension, against ``cap`` before any matrix is allocated.
    """
    count = comb(kp.v, kp.k)
    if count > enum_cap:
        raise EnumerationTooLarge(f"{count} vertices exceeds cap {enum_cap}")
    shape = RegisterShape((count,)).check_cap(cap)
    out = (_subset_overlaps(kp.v, kp.k) == 0).astype(float)
    return Operator(shape, out)


def kneser_one_norm(kp: KneserParams, enum_cap: int = DEFAULT_ENUM_CAP,
                    cap: int = DEFAULT_DIM_CAP) -> tuple[float, float]:
    """(sum of absolute adjacency eigenvalues, closed-form value): the
    dense trace norm and :func:`chslab.exact.kneser_one_norm`."""
    norm = trace_norm(kneser_adjacency(kp, enum_cap, cap))
    return norm, float(exact.kneser_one_norm(kp.v, kp.k))


def locc_advantage_closed_form(d: int, t: int) -> float:
    """Exact advantage of the no-collision tester: the float of
    :func:`chslab.exact.collision_advantage`."""
    if t < 0 or d < 2 * t or d < 1:
        raise ParameterError(f"need d >= 2t >= 0, got d={d}, t={t}")
    return float(exact.collision_advantage(d, t))


def _fresh_and_distinct(fresh: list[np.ndarray], ok: np.ndarray,
                        first: int = 0) -> np.ndarray:
    """AND into ``ok``, per entry of the draw vectors ``fresh`` (vector j
    holds each trial's urn draw j minus j, so a repeat of an earlier draw
    is negative and a fresh outcome is itself): every vector from
    ``first`` on is fresh and differs from every vector before it.  Each
    test is one ``!=`` scan of two contiguous vectors; ``ok`` is returned.
    """
    for j in range(first, len(fresh)):
        ok &= fresh[j] >= 0
        for i in range(j):
            ok &= fresh[i] != fresh[j]
    return ok


def _mc_block(seed: int, stream: int, block: int, rows: int, d: int,
              t: int) -> tuple[int, int]:
    """No-collision hit counts for one deterministic trial block.

    The trials are paired: the shared-state branch measures 2t copies of
    one state (urn A), and the independent branch combines the first t of
    those outcomes with t outcomes of a second state (urn B).  Both read
    the raw draws, one contiguous vector per draw with its index
    subtracted in place: a trial is collision-free exactly when every draw
    is fresh and the fresh outcomes are distinct, so no outcome is
    resolved.  A's first t draws are tested once, and that mask is
    extended by A's draws t..2t-1 for the shared branch and by B's draws
    for the independent one.
    """
    rng = stream_rng(seed, (stream, block))
    draws_a = _urn_draws(rows, d, 2 * t, rng)
    draws_b = _urn_draws(rows, d, t, rng)
    draws_a -= np.arange(2 * t)[:, None]
    draws_b -= np.arange(t)[:, None]
    fresh_a, fresh_b = list(draws_a), list(draws_b)
    first = _fresh_and_distinct(fresh_a[:t], np.ones(rows, dtype=bool))
    hits_identical = _fresh_and_distinct(fresh_a, first.copy(), t)
    hits_independent = _fresh_and_distinct(fresh_a[:t] + fresh_b, first, t)
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


def _ppt_blocks(d: int, t: int):
    """Yield the dense blocks j = 1..t of Gamma(rho) - Gamma(sigma), block j
    on the pairs (a, b) with |a n b| = j, rows in lexicographic (a, b) order.

    Row (a, b) of block j >= 1 holds the weight w_rho at the columns
    ((a minus b) u X, (b minus a) u X), one for each j-subset X of the
    d-2t+j elements outside a u b: those are the pairs (c, e) with a and e
    disjoint, c and b disjoint and a u e = c u b.  Gamma(sigma) is zero
    there, since it lives on disjoint pairs.  Each block is a scatter of
    C(d-2t+j, j) entries per row into a zero matrix.
    """
    member = _subset_members(d, t)
    g = member @ member.T
    member = member.astype(bool)
    count = len(member)
    weight_rho = float(exact.ppt_weight(d, t))

    def elements(mask, k):
        # each row of mask has k True entries; their columns, ascending
        return np.nonzero(mask)[1].reshape(len(mask), k)

    for j in range(1, t + 1):
        a, b = np.nonzero(g == j)
        rows = len(a)
        in_a, in_b = member[a], member[b]
        outside = elements(~(in_a | in_b), d - 2 * t + j)
        picks = outside[:, list(itertools.combinations(range(d - 2 * t + j), j))]
        ends = []
        for only in (elements(in_a & ~in_b, t - j), elements(in_b & ~in_a, t - j)):
            only = np.broadcast_to(only[:, None, :], picks.shape[:2] + only.shape[1:])
            ends.append(_subset_ranks(np.sort(np.concatenate([only, picks], axis=2),
                                              axis=2), d))
        # np.nonzero lists the pairs in row-major order, so their codes
        # a * count + b ascend and a column's position is a binary search
        cols = np.searchsorted(a * count + b, ends[0] * count + ends[1])
        block = np.zeros((rows, rows))
        block[np.arange(rows)[:, None], cols] = weight_rho
        yield block


def ppt_diff_norm(d: int, t: int, enum_cap: int = DEFAULT_ENUM_CAP,
                  cap: int = DEFAULT_DIM_CAP) -> PptChainResult:
    """Exact partially transposed difference norm and its bound chain.

    Both mixtures are supported on pairs (a, b) of t-subset states, which
    are orthonormal and real, so transposing B swaps b with the column's
    subset.  Gamma(rho) joins (a, b) to (c, e) with weight 1/(C(d,2t) C(2t,t))
    when a and e are disjoint, c and b are disjoint and a u e = c u b;
    Gamma(sigma) = sigma is diagonal on disjoint pairs.  Both keep
    j = |a n b|, so the norm is the sum over the t+1 blocks of pairs with
    overlap j.  The j = 0 block is never built: on disjoint pairs
    Gamma(rho) joins each pair only to itself, with the weight of sigma.
    Each j >= 1 block comes from :func:`_ppt_blocks`; its row count is
    checked against ``cap`` before any block is allocated.  The chain
    reported is exact <= kneser_sum (= middle) <= factorial_bound <= series_bound.
    """
    if t < 0 or d <= 2 * t:
        raise ParameterError(f"need d > 2t >= 0, got d={d}, t={t}")
    if comb(d, t) ** 2 > enum_cap:
        raise EnumerationTooLarge(
            f"subset-pair basis C({d},{t})^2 exceeds cap {enum_cap}")
    for j in range(1, t + 1):  # pairs (a, b) with |a n b| = j
        RegisterShape((comb(d, t) * comb(t, j) * comb(d - t, t - j),)).check_cap(cap)
    norm = 0.0
    for block in _ppt_blocks(d, t):
        norm += float(np.abs(_spectrum(block)).sum())

    kneser_sum = 0.0
    for s in range(t):
        kneser, _ = kneser_one_norm(KneserParams(d - 2 * s, t - s), enum_cap, cap)
        kneser_sum += comb(d, s) * comb(d - s, s) * kneser
    kneser_sum *= float(exact.ppt_weight(d, t))
    return PptChainResult(norm, kneser_sum, float(exact.ppt_middle(d, t)),
                          float(exact.ppt_factorial_bound(d, t)),
                          exact.ppt_series_bound(d, t))


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
    rows = np.indices((d,) * (2 * t)).reshape(2 * t, -1).T
    distinct = _fold_good(rows, 0, 1)[:, None]  # single-element folds: distinct digits
    scale_rho = comb(d + 2 * t - 1, 2 * t) / comb(d, 2 * t)
    scale_sigma = comb(d + t - 1, t) ** 2 / (comb(d, t) * comb(d - t, t))
    return (Operator(rho.shape, rho.values * (distinct * scale_rho)),
            Operator(sigma.shape, sigma.values * (distinct * scale_sigma)))


def ppt_vs_haar_bound(d: int, t: int, cap: int = DEFAULT_DIM_CAP,
                      enum_cap: int = DEFAULT_ENUM_CAP) -> PptVsHaarResult:
    """Bound pieces for distinguishing shared copies from independent ones.

    The surrogate half-norm comes from :func:`ppt_diff_norm`, under the same
    ``cap``.  When d^(2t) fits the cap, the half-norm on the true moment
    states and the two collision slacks (distance from each true state to
    its subset surrogate) are computed exactly; otherwise only the
    constant-free reference t^2/d is reported for the slack.
    """
    if t == 0:
        return PptVsHaarResult(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    chain = ppt_diff_norm(d, t, enum_cap, cap)
    advantage = locc_advantage_closed_form(d, t)
    slack_reference = float(exact.slack_reference(d, t))

    if d ** (2 * t) > cap:
        return PptVsHaarResult(advantage, chain.exact / 2.0, None, None, None,
                               slack_reference)

    rho = haar_moment(d, 2 * t, cap, enum_cap)
    sigma = _ideal_state(d, [range(t), range(t, 2 * t)], cap, enum_cap)
    b_regs = range(t, 2 * t)
    half_true = trace_distance(partial_transpose(rho, b_regs),
                               partial_transpose(sigma, b_regs))

    rho_tilde, sigma_tilde = _subset_surrogates(d, t, rho, sigma)
    slack_identical = trace_distance(rho, rho_tilde)
    slack_independent = trace_distance(sigma, sigma_tilde)
    return PptVsHaarResult(advantage, chain.exact / 2.0, half_true,
                           slack_identical, slack_independent, slack_reference)
