"""Named experiments, their default parameters, and machine-readable reports.

The registry is code, not configuration: every entry names the operation it
drives, its default parameters, the suites it belongs to, and the assertion
it encodes, so the CLI, the reports, and the test suite cannot drift apart.

Every numeric check row carries a mode tag ("exact" or "sampled"); its
verdict follows from the recorded values and a tolerance fixed below as a
named constant with its source.  Reports with the same seed reproduce all
recorded values bit for bit; the per-check runtime field is wall-clock
metadata and is excluded from that guarantee.
"""

from __future__ import annotations

import functools
import itertools
import json
import numbers
import os
import sys
import time
from dataclasses import dataclass, field, asdict
from math import comb

import numpy as np

from . import commitment as cm
from . import exact
from . import locc as lc
from . import pseudo as ps
from . import typespace as ts
from .errors import ChslabError, ConfigInvalid, ParameterError
from .linalg import DEFAULT_DIM_CAP, HERM_TOL, Operator, RegisterShape, \
    _spectrum, numeric_rank
from .rng import stream_rng
from .typespace import DEFAULT_ENUM_CAP, PrefixParams, TypeVector

__all__ = [
    "Caps",
    "CheckRecord",
    "Report",
    "ExperimentConfig",
    "REGISTRY",
    "SUITES",
    "run",
    "run_suite",
    "report_to_json",
    "report_to_csv_rows",
]

EXACT = "exact"
SAMPLED = "sampled"

_MC_ROWS = 16384  # Haar states per sampled block

# Check tolerances, fixed here.  "Measured" is the largest |value - reference|
# (value - bound for `below`) over `suite all` at suite seeds 0-199.
_EXACT_TOL = 0.0  # ranks, counts, degrees, identically built operators
# O(eps) fidelity, as TestFidelity holds; measured 7.2e-16 (commit-fidelity),
# 1.3e-15 (commit-binding's optimum) and 1.4e-17 (the one-copy distances)
_CLOSED_FORM_TOL = 1e-14
_ENTRY_TOL = 1e-12  # one value built two ways; floor of a zero stderr; measured 1.7e-16
_SUM_TOL = 1e-10  # sums of D unit terms, D*eps = 3.6e-12 at the cap; measured 1.1e-15
# bounds met with equality (accept-ideal 2.2e-16 above, max-fidelity 1.5e-11 below), least
# eigenvalues (eigvalsh noise under 4*D*eps, linalg._above_noise), and the trace-distance
# rows of prs-hybrid, prs-decay, multi-key, multi-key-decay, prfs-hybrid and commit-hiding
_PROB_TOL = 1e-9
_CHAIN_TOL = 1e-8  # spectral 1-norms along the Kneser/PPT chain; measured 0 where equal
_MC_ENTRY_TOL = 5e-3  # 5.3 stderr of the widest 10^5-sample entry; measured 2.8e-3
_MC_SIGMAS = 4  # a correct estimate strays 4 sigma w.p. 6.3e-5; measured |z| 3.1


@dataclass(frozen=True)
class Caps:
    dim: int = DEFAULT_DIM_CAP
    enum: int = DEFAULT_ENUM_CAP

    def __post_init__(self) -> None:
        if self.dim < 1 or self.enum < 1:
            raise ConfigInvalid(
                f"caps must be at least 1, got dim={self.dim}, enum={self.enum}")


@dataclass
class CheckRecord:
    name: str
    value: float | None
    reference: float | None
    mode: str
    passed: bool
    runtime_ms: float


@dataclass
class Report:
    experiment: str
    params: dict
    seed: int
    checks: list[CheckRecord]
    toolchain: dict

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    params: dict = field(default_factory=dict)
    seed: int = 0
    caps: Caps = Caps()


class _Recorder:
    """Collects check rows, attributing wall time since the previous row."""

    def __init__(self):
        self.rows: list[CheckRecord] = []
        self._mark = time.perf_counter()

    def add(self, name: str, value, reference, mode: str, passed: bool) -> None:
        now = time.perf_counter()
        elapsed = (now - self._mark) * 1000.0
        self._mark = now
        value, ref = (None if v is None else float(v) for v in (value, reference))
        self.rows.append(CheckRecord(name, value, ref, mode, bool(passed), elapsed))

    def close(self, name: str, value, reference, mode: str, tol: float) -> None:
        """Record |value - reference| <= tol as a pass/fail row."""
        self.add(name, value, reference, mode, abs(value - reference) <= tol)

    def below(self, name: str, value, bound, mode: str, tol: float) -> None:
        self.add(name, value, bound, mode, value <= bound + tol)


def _count(params, name: str) -> int:
    """``params[name]``, a number of draws, repeats or copies; below 1 the
    experiment would record a verdict without doing its work."""
    if params[name] < 1:
        raise ParameterError(f"{name} must be at least 1, got {params[name]}")
    return params[name]


def _haar_blocks(d: int, samples: int, rng):
    """``samples`` Haar states in C^d, drawn as (rows, d) blocks of at most
    _MC_ROWS rows, so memory stays flat in the sample count."""
    for start in range(0, samples, _MC_ROWS):
        yield ts.haar_states_block(d, min(_MC_ROWS, samples - start), rng)


def _density_contract(rec: _Recorder, label: str, op: Operator) -> None:
    # read from a block operator's blocks; the least eigenvalue comes from
    # the spectral step, which solves D <= 64 whole
    rec.close(f"{label}-hermitian-defect", op.hermitian_defect(), 0.0, EXACT, HERM_TOL)
    rec.close(f"{label}-trace", op.trace().real, 1.0, EXACT, _SUM_TOL)
    min_eig = float(_spectrum(op).min())
    rec.add(f"{label}-min-eigenvalue", min_eig, -_PROB_TOL, EXACT,
            min_eig >= -_PROB_TOL)


# --------------------------------------------------------------------------
# lemma suite: exact identities
# --------------------------------------------------------------------------

def _exp_type_orthonormality(params, seed, caps, rec: _Recorder):
    d, t = params["d"], params["t"]
    states = [ts.type_state(T, caps.dim).amplitudes
              for T in ts.enumerate_types(d, t, caps.enum)]
    gram = np.array([[np.vdot(a, b) for b in states] for a in states])
    defect = float(np.abs(gram - np.eye(len(states))).max())
    rec.close("gram-defect", defect, 0.0, EXACT, _SUM_TOL)


def _exp_haar_moment_identity(params, seed, caps, rec: _Recorder):
    d, t = params["d"], params["t"]
    lifted = ts.haar_moment(d, t, caps.dim, caps.enum).values
    perm_route = ts.permutation_symmetrizer(d, t, caps.dim).values / comb(d + t - 1, t)
    rec.close("projector-vs-type-average", float(np.abs(lifted - perm_route).max()),
              0.0, EXACT, _ENTRY_TOL)
    proj = ts.sym_projector(d, t, caps.dim, caps.enum)
    idem = float(np.abs(proj.values @ proj.values - proj.values).max())
    rec.close("projector-idempotent", idem, 0.0, EXACT, _ENTRY_TOL)
    rec.close("projector-rank", numeric_rank(proj), exact.symmetric_dimension(d, t),
              EXACT, _EXACT_TOL)


def _good_types(n, m, ell, total, caps):
    p = PrefixParams(n, m, ell, total)
    for T in ts.enumerate_types(p.alphabet_dim, total, caps.enum):
        if ts.is_l_fold_prefix_collision_free(T, p, caps.enum):
            yield T, p


def _exp_perm_split(params, seed, caps, rec: _Recorder):
    n, m, ell, total = params["n"], params["m"], params["ell"], params["t"]
    checked = 0
    failed = 0
    for T, p in _good_types(n, m, ell, total, caps):
        for v in ts.arrangements(T.elements()):
            for sigma in itertools.permutations(range(total)):
                checked += 1
                if not ps.check_perm_split(v, sigma, p, caps.enum):
                    failed += 1
    rec.add("confirmed-fraction", (checked - failed) / checked if checked else 1.0,
            1.0, EXACT, failed == 0)
    rec.add("cases-checked", checked, None, EXACT, checked > 0)


def _exp_nice_type(params, seed, caps, rec: _Recorder):
    n, m, ell, total = params["n"], params["m"], params["ell"], params["t"]
    worst = 0.0
    count = 0
    for T, p in _good_types(n, m, ell, total, caps):
        worst = max(worst, ps.lemma_nice_T_check(T, p, caps.dim, caps.enum))
        count += 1
    rec.close("max-discrepancy", worst, 0.0, EXACT, _ENTRY_TOL)
    rec.add("good-types-checked", count, None, EXACT, count > 0)


def _exp_prfs_type(params, seed, caps, rec: _Recorder):
    lam, n = params["lam"], params["n"]
    queries = [tuple(q) for q in params["queries"]]
    ells = tuple(params["ells"])
    elements = tuple(params["type_elements"])
    p = PrefixParams(lam, n - lam, sum(ells), len(elements))
    T = TypeVector.from_elements(2**n, elements)
    res = ps.lemma_prfs_type_check(T, queries, ells, p, caps.dim, caps.enum)
    rec.close("max-discrepancy", res.discrepancy, 0.0, EXACT, _ENTRY_TOL)
    rec.add("keys-averaged", res.keys_used, None, EXACT, True)


def _exp_bipartition(params, seed, caps, rec: _Recorder):
    d, t, x = params["d"], params["t"], params["x"]
    T = TypeVector.from_elements(d, tuple(range(t)))
    RegisterShape((d,) * t).check_cap(caps.dim)
    split = ts.type_bipartition(T, x)
    rebuilt = np.zeros(d**t, dtype=np.complex128)
    for left, right in split.pairs:
        rebuilt += split.coefficient * np.kron(
            ts.type_state(left, caps.dim).amplitudes,
            ts.type_state(right, caps.dim).amplitudes)
    target = ts.type_state(T, caps.dim).amplitudes
    rec.close("reconstruction-defect", float(np.abs(rebuilt - target).max()),
              0.0, EXACT, _ENTRY_TOL)
    rec.close("pair-count", len(split.pairs), exact.bipartition_pairs(T.total, x), EXACT,
              _EXACT_TOL)


def _exp_kneser(params, seed, caps, rec: _Recorder):
    v, k = params["v"], params["k"]
    norm, formula = lc.kneser_one_norm(lc.KneserParams(v, k), caps.enum, caps.dim)
    rec.close("one-norm-vs-formula", norm, formula, EXACT, _CHAIN_TOL)
    adj = lc.kneser_adjacency(lc.KneserParams(v, k), caps.enum, caps.dim)
    degrees = adj.values.sum(axis=1)
    rec.close("regular-degree", float(degrees.max()), exact.kneser_degree(v, k), EXACT,
              _EXACT_TOL)
    rec.close("degree-spread", float(degrees.max() - degrees.min()), 0.0, EXACT,
              _EXACT_TOL)


# --------------------------------------------------------------------------
# bounds suite: inequality chains on exact quantities
# --------------------------------------------------------------------------

def _exp_prs_hybrid(params, seed, caps, rec: _Recorder):
    pp = ps.PseudoParams(params["lam"], params["n"], params["ell"], params["t"])
    res = ps.prs_hybrids(pp, caps.dim, caps.enum)
    rec.below("trace-distance", res.td, res.bound, EXACT, _PROB_TOL)
    if pp.ell == pp.t == 1:
        rec.close("one-copy-closed-form", res.td, exact.one_copy_distance(pp.lam, pp.n),
                  EXACT, _CLOSED_FORM_TOL)
    _density_contract(rec, "keyed", res.keyed)
    if pp.ell == 0:
        rec.close("zero-copy-distance", res.td, 0.0, EXACT, _EXACT_TOL)


def _exp_prs_decay(params, seed, caps, rec: _Recorder):
    ell, t = params["ell"], params["t"]
    tds = []
    for lam in params["lams"]:
        res = ps.prs_hybrids(ps.PseudoParams(lam, lam, ell, t), caps.dim, caps.enum)
        rec.below(f"trace-distance-lam{lam}", res.td, res.bound, EXACT, _PROB_TOL)
        if ell == t == 1:
            rec.close(f"one-copy-closed-form-lam{lam}", res.td,
                      exact.one_copy_distance(lam, lam), EXACT, _CLOSED_FORM_TOL)
        tds.append(res.td)
    strict = all(b < a for a, b in zip(tds, tds[1:]))
    rec.add("strictly-decreasing", float(strict), 1.0, EXACT, strict)


def _exp_multikey(params, seed, caps, rec: _Recorder):
    pp = ps.PseudoParams(params["lam"], params["n"], params["ell"], params["t"])
    res = ps.prs_multikey_hybrids(pp, params["p"], caps.dim, caps.enum)
    rec.below("trace-distance", res.td, res.bound, EXACT, _PROB_TOL)
    if params["p"] == 1:
        single = ps.prs_hybrids(pp, caps.dim, caps.enum)
        rec.close("single-key-reduction", res.td, single.td, EXACT, _ENTRY_TOL)


def _exp_multikey_decay(params, seed, caps, rec: _Recorder):
    p, ell, t = params["p"], params["ell"], params["t"]
    tds = []
    for lam in params["lams"]:
        res = ps.prs_multikey_hybrids(ps.PseudoParams(lam, lam, ell, t), p,
                                      caps.dim, caps.enum)
        rec.below(f"trace-distance-lam{lam}", res.td, res.bound, EXACT, _PROB_TOL)
        tds.append(res.td)
    ok = all(b <= a + _ENTRY_TOL for a, b in zip(tds, tds[1:]))
    rec.add("nonincreasing", float(ok), 1.0, EXACT, ok)


def _exp_prfs_hybrid(params, seed, caps, rec: _Recorder):
    ells = tuple(params["ells"])
    queries = [tuple(q) for q in params["queries"]]
    pp = ps.PseudoParams(params["lam"], params["n"], sum(ells), params["t"], ells)
    res = ps.prfs_hybrids(pp, queries, caps.dim, caps.enum)
    rec.below("trace-distance", res.td, res.bound, EXACT, _PROB_TOL)
    if len(queries) == 1:
        single = ps.prs_hybrids(
            ps.PseudoParams(params["lam"], params["n"], sum(ells), params["t"]),
            caps.dim, caps.enum)
        rec.close("single-query-vs-single-key", res.td, single.td, EXACT, _SUM_TOL)
    if sum(ells) == 0:
        rec.close("zero-copy-distance", res.td, 0.0, EXACT, _EXACT_TOL)


def _exp_rank_attack(params, seed, caps, rec: _Recorder):
    pp = ps.PseudoParams(params["lam"], params["n"], params["ell"], params["t"])
    res = ps.rank_attack(pp, cap=caps.dim, enum_cap=caps.enum)
    rec.close("ideal-rank", res.rank1, exact.ideal_rank(pp.n, pp.ell, pp.t), EXACT,
              _EXACT_TOL)
    rec.close("accept-keyed", res.accept_pseudo, 1.0, EXACT, _PROB_TOL)
    rec.below("accept-ideal", res.accept_haar, res.rank0 / res.rank1, EXACT, _PROB_TOL)
    rec.below("rank-ratio-vs-formula", res.rank0 / res.rank1, res.ratio_bound,
              EXACT, _PROB_TOL)


def _exp_onewayness(params, seed, caps, rec: _Recorder):
    value, bound = ps.onewayness_quantity(params["n"], params["m"],
                                          caps.dim, caps.enum)
    rec.below("overlap-value", value, bound, EXACT, _PROB_TOL)


def _exp_commit_complete(params, seed, caps, rec: _Recorder):
    cp = cm.CommitmentParams(params["lam"], params["n"], params["p"])
    RegisterShape((2**cp.n,)).check_cap(caps.dim)  # before the Haar draws
    worst = 1.0
    for s in range(_count(params, "haar_seeds")):
        common = ts.sample_haar(2**cp.n, seed, stream=s)
        for b in (0, 1):
            claimed = cm.commit_state(b, common, cp, caps.dim).density()
            worst = min(worst, cm.receiver_accept_prob(b, claimed, common, cp,
                                                       caps.dim))
    rec.close("honest-accept", worst, 1.0, EXACT, _SUM_TOL)


def _block_fidelity(common, lam: int, n: int) -> float:
    """F(rho_0, I/d) = (sum_b sqrt(w_b))^2 / d over the 2^lam key-block
    weights w_b of the common state: the averaged commit register is block
    diagonal with rank-one blocks of trace w_b."""
    amps = common.amplitudes
    # re^2 + im^2 rather than |amps|^2: numpy's complex abs differs
    # in the last bit between the CPU features it dispatches to
    weights = (amps.real**2 + amps.imag**2).reshape(2**lam, -1).sum(axis=1)
    return np.sqrt(weights).sum() ** 2 / 2**n


def _exp_commit_fidelity(params, seed, caps, rec: _Recorder):
    lam, n = params["lam"], params["n"]
    worst = gap = 0.0
    RegisterShape((2**n,)).check_cap(caps.dim)  # before the Haar draws
    for s in range(_count(params, "haar_seeds")):
        common = ts.sample_haar(2**n, seed, stream=s)
        F, bound = cm.fidelity_bound_check(lam, n, common, caps.dim)
        worst = max(worst, F)
        gap = max(gap, abs(F - _block_fidelity(common, lam, n)))
    rec.below("max-fidelity", worst, bound, EXACT, _PROB_TOL)
    rec.close("max-gap-to-closed-form", gap, 0.0, EXACT, _CLOSED_FORM_TOL)


def _exp_commit_binding(params, seed, caps, rec: _Recorder):
    cp = cm.CommitmentParams(params["lam"], params["n"], params["p"])
    RegisterShape((2**cp.n,)).check_cap(caps.dim)  # before the Haar draw
    common = ts.sample_haar(2**cp.n, seed, stream=0)
    p0, p1 = cm.binding_sum(cm.optimal_attack(common, cp, caps.dim), common, cp, caps.dim)
    rec.below("max-p0-plus-p1", p0 + p1, exact.binding_bound(cp.lam, cp.n, cp.p), EXACT,
              _PROB_TOL)
    if cp.p == 1:
        optimum = exact.binding_optimum(_block_fidelity(common, cp.lam, cp.n))
        rec.close("optimum-vs-closed-form", p0 + p1, optimum, EXACT, _CLOSED_FORM_TOL)


def _exp_commit_hiding(params, seed, caps, rec: _Recorder):
    # the exact distance is governed by the key entropy, not by n, so the
    # per-n values are recorded without a trend verdict
    lam, p, t = params["lam"], params["p"], params["t"]
    bound = exact.hiding_bound(lam, p, t)
    for n in params["ns"]:
        td = cm.hiding_distance(cm.CommitmentParams(lam, n, p, t), caps.dim,
                                caps.enum)
        rec.below(f"trace-distance-n{n}", td, bound, EXACT, _PROB_TOL)
        if p == t == 1:
            rec.close(f"one-copy-closed-form-n{n}", td, exact.one_copy_distance(lam, n),
                      EXACT, _CLOSED_FORM_TOL)
    if p == 1:
        zero = cm.hiding_distance(cm.CommitmentParams(lam, params["ns"][0], p, 0),
                                  caps.dim, caps.enum)
        rec.close("no-copy-distance", zero, 0.0, EXACT, _ENTRY_TOL)


def _exp_ppt_chain(params, seed, caps, rec: _Recorder):
    d, t = params["d"], params["t"]
    chain = lc.ppt_diff_norm(d, t, caps.enum, caps.dim)
    rec.below("exact-vs-kneser-sum", chain.exact, chain.kneser_sum, EXACT, _CHAIN_TOL)
    rec.close("kneser-sum-vs-middle", chain.kneser_sum, chain.middle, EXACT, _CHAIN_TOL)
    rec.below("middle-vs-factorial", chain.middle, chain.factorial_bound, EXACT,
              _CHAIN_TOL)
    rec.below("factorial-vs-series", chain.factorial_bound, chain.series_bound,
              EXACT, _CHAIN_TOL)


def _exp_locc_sandwich(params, seed, caps, rec: _Recorder):
    d, t = params["d"], params["t"]
    res = lc.ppt_vs_haar_bound(d, t, caps.dim, caps.enum)
    if res.half_norm_true is None:
        rec.add("true-states-materialised", 0.0, 1.0, EXACT, False)
        return
    rec.below("advantage-vs-true-half-norm", res.advantage, res.half_norm_true,
              EXACT, _CHAIN_TOL)
    combined = res.half_norm_surrogate + res.slack_identical + res.slack_independent
    rec.below("advantage-vs-surrogate-pieces", res.advantage, combined, EXACT,
              _CHAIN_TOL)
    # type-diagonal states make slack_gap the advantage, so the row above cannot fail
    slack_gap = res.slack_identical - res.slack_independent
    rec.close("slack-difference-vs-advantage", slack_gap, res.advantage, EXACT, _ENTRY_TOL)


def _exp_prob_monotone(params, seed, caps, rec: _Recorder):
    m, ell, t = params["m"], params["ell"], params["t"]
    values = []
    for n in params["ns"]:
        p = PrefixParams(n, m, ell, t)
        values.append(float(ts.prob_good_type(p, enum_cap=caps.enum).exact))
        rec.add(f"good-fraction-n{n}", values[-1], None, EXACT, True)
    ok = all(b >= a for a, b in zip(values, values[1:]))
    rec.add("nondecreasing-in-n", float(ok), 1.0, EXACT, ok)


# --------------------------------------------------------------------------
# montecarlo suite: sampled estimates vs exact references
# --------------------------------------------------------------------------

def _exp_haar_moment_mc(params, seed, caps, rec: _Recorder):
    d, t, samples = params["d"], _count(params, "t"), _count(params, "samples")
    target = ts.haar_moment(d, t, caps.dim, caps.enum).values
    rng = stream_rng(seed, 0)
    acc = np.zeros(target.shape, dtype=np.complex128)  # sampled states are complex
    for block in _haar_blocks(d, samples, rng):
        lifted = block
        for _ in range(t - 1):
            lifted = np.einsum("na,nb->nab", lifted, block).reshape(len(block), -1)
        acc += np.einsum("na,nb->ab", lifted, lifted.conj())
    acc /= samples
    rec.close("mc-vs-exact-max-entry", float(np.abs(acc - target).max()), 0.0,
              SAMPLED, _MC_ENTRY_TOL)


def _exp_haar_overlap_mc(params, seed, caps, rec: _Recorder):
    d, samples = params["d"], _count(params, "samples")
    RegisterShape((d,)).check_cap(caps.dim)  # before the Haar draws
    rng = stream_rng(seed, 0)
    est = sum(float(np.sum(np.abs(block[:, 0]) ** 2))
              for block in _haar_blocks(d, samples, rng)) / samples
    rec.close("mean-overlap", est, exact.haar_overlap(d), SAMPLED, _MC_ENTRY_TOL)


def _exp_locc_advantage(params, seed, caps, rec: _Recorder):
    d, t, trials = params["d"], _count(params, "t"), params["trials"]
    lp = lc.LoccParams(d, t, trials, seed)
    closed = lc.locc_advantage_closed_form(d, t)
    rec.add("closed-form", closed, None, EXACT, closed > 0.0)
    est, stderr = lc.locc_advantage_mc(lp)
    rec.add("mc-estimate", est, closed, SAMPLED,
            abs(est - closed) <= _MC_SIGMAS * stderr)
    rec.add("mc-stderr", stderr, None, SAMPLED, True)
    rec.add("scaled-ratio", closed * d / (t * t), None, EXACT, True)


def _exp_good_type_prob(params, seed, caps, rec: _Recorder):
    p = PrefixParams(params["n"], params["m"], params["ell"], params["t"])
    res = ts.prob_good_type(p, trials=_count(params, "trials"), seed=seed,
                            enum_cap=caps.enum)
    rec.add("exact-fraction", float(res.exact), None, EXACT, True)
    gap = abs(res.mc_estimate - float(res.exact))
    rec.add("mc-estimate", res.mc_estimate, float(res.exact), SAMPLED,
            gap <= _MC_SIGMAS * max(res.mc_stderr, _ENTRY_TOL))
    rec.add("mc-stderr", res.mc_stderr, None, SAMPLED, True)


@dataclass(frozen=True)
class _Entry:
    fn: object
    defaults: dict
    suites: tuple[str, ...]
    encodes: str


REGISTRY: dict[str, _Entry] = {
    "type-orthonormality": _Entry(
        _exp_type_orthonormality, {"d": 2, "t": 2}, ("lemmas",),
        "type states form an orthonormal family"),
    "haar-moment-identity": _Entry(
        _exp_haar_moment_identity, {"d": 2, "t": 2}, ("lemmas",),
        "scaled symmetric projector equals the average type projector"),
    "perm-split": _Entry(
        _exp_perm_split, {"n": 2, "m": 0, "ell": 1, "t": 2}, ("lemmas",),
        "key-averaged permuted units survive iff the fold positions are fixed"),
    "nice-type": _Entry(
        _exp_nice_type, {"n": 2, "m": 0, "ell": 1, "t": 2}, ("lemmas",),
        "key averaging splits good type projectors into subset mixtures"),
    "prfs-type": _Entry(
        _exp_prfs_type,
        {"lam": 1, "n": 1, "queries": ((0,), (1,)), "ells": (1, 1),
         "type_elements": (0, 1)},
        ("lemmas",),
        "multi-query key averaging yields the recursive subset mixture"),
    "bipartition": _Entry(
        _exp_bipartition, {"d": 4, "t": 3, "x": 1}, ("lemmas",),
        "subset expansion across a register cut reconstructs the type state"),
    "kneser": _Entry(
        _exp_kneser, {"v": 5, "k": 2}, ("lemmas",),
        "disjointness-graph spectral 1-norm matches the closed form"),
    "prs-hybrid": _Entry(
        _exp_prs_hybrid, {"lam": 2, "n": 2, "ell": 1, "t": 1}, ("bounds",),
        "keyed hybrid is a valid state; distance recorded against 2^-lam decay "
        "and, at ell=t=1, equal to the one-copy closed form"),
    "prs-decay": _Entry(
        _exp_prs_decay, {"lams": (2, 3), "ell": 1, "t": 1}, ("bounds",),
        "exact hybrid distance strictly decreases in the key length and, at "
        "ell=t=1, equals the one-copy closed form"),
    "multi-key": _Entry(
        _exp_multikey, {"lam": 2, "n": 2, "p": 2, "ell": 1, "t": 0}, ("bounds",),
        "independent keys reduce to the single-key case at p=1"),
    "multi-key-decay": _Entry(
        _exp_multikey_decay, {"lams": (2, 3), "p": 2, "ell": 1, "t": 0},
        ("bounds",),
        "multi-key distance is nonincreasing in the key length"),
    "prfs-hybrid": _Entry(
        _exp_prfs_hybrid,
        {"lam": 2, "n": 2, "queries": ((0,), (1,)), "ells": (1, 1), "t": 0},
        ("bounds",),
        "per-query hybrids match the single-key pipeline at q=1"),
    "rank-attack": _Entry(
        _exp_rank_attack, {"lam": 1, "n": 2, "ell": 2, "t": 2}, ("bounds",),
        "support projector accepts keyed states and few ideal states"),
    "onewayness": _Entry(
        _exp_onewayness, {"n": 2, "m": 1}, ("bounds",),
        "phased-moment overlap is at most (m+1)/d"),
    "commit-complete": _Entry(
        _exp_commit_complete, {"lam": 1, "n": 2, "p": 1, "haar_seeds": 5},
        ("bounds",),
        "honest commit and reveal is accepted with probability one"),
    "commit-fidelity": _Entry(
        _exp_commit_fidelity, {"lam": 1, "n": 2, "haar_seeds": 100}, ("bounds",),
        "averaged commit register is 2^-(n-lam) close to maximally mixed"),
    "commit-binding": _Entry(
        _exp_commit_binding, {"lam": 1, "n": 2, "p": 1}, ("bounds",),
        "the optimal sender's p0 + p1 stays below the averaged swap-test bound "
        "and at p=1 equals 1 + (1 + sqrt F)/2"),
    "commit-hiding": _Entry(
        _exp_commit_hiding, {"lam": 1, "ns": (2, 3), "p": 1, "t": 1}, ("bounds",),
        "receiver view distance per state length; exact values grow with n "
        "(9/40 -> 35/144 at lam=1, the one-copy closed form at p=t=1)"),
    "ppt-chain": _Entry(
        _exp_ppt_chain, {"d": 6, "t": 2}, ("bounds",),
        "transposed-difference norm obeys the Kneser bound chain"),
    "locc-sandwich": _Entry(
        _exp_locc_sandwich, {"d": 6, "t": 1}, ("bounds",),
        "collision advantage is below half the transposed-difference norm"),
    "prob-monotone": _Entry(
        _exp_prob_monotone, {"m": 0, "ell": 1, "t": 2, "ns": (1, 2, 3)},
        ("bounds",),
        "good-type fraction is nondecreasing in the prefix length"),
    "haar-moment-mc": _Entry(
        _exp_haar_moment_mc, {"d": 2, "t": 2, "samples": 100000},
        ("montecarlo",),
        "sampled moment matches the exact moment to 5e-3 per entry"),
    "haar-overlap-mc": _Entry(
        _exp_haar_overlap_mc, {"d": 4, "samples": 100000}, ("montecarlo",),
        "sampled basis overlap matches 1/d"),
    "locc-advantage": _Entry(
        _exp_locc_advantage, {"d": 4, "t": 1, "trials": 1000000},
        ("montecarlo",),
        "collision tester Monte Carlo agrees with the closed form to 4 sigma"),
    "good-type-prob": _Entry(
        _exp_good_type_prob, {"n": 2, "m": 0, "ell": 1, "t": 2, "trials": 100000},
        ("montecarlo",),
        "sampled good-type fraction agrees with enumeration to 4 sigma"),
}

SUITES = ("lemmas", "bounds", "montecarlo", "all")


# the thread counts BLAS reads from the environment; recorded values are
# bit for bit only under a fixed count
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@functools.cache
def _blas() -> dict:
    """numpy's BLAS build (name, version, OpenBLAS configuration), read once
    per process."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {key: blas.get(key) for key in ("name", "version", "openblas configuration")}


def _toolchain() -> dict:
    """What produced a report's values; no wall time, so reports of one
    seed stay equal outside ``runtime_ms``."""
    from . import __version__

    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "chslab": __version__,
        "blas": dict(_blas()),
        "threads": {var: os.environ.get(var) for var in _THREAD_VARS},
    }


def _same_kind(value, default) -> bool:
    """Whether ``value`` may stand for ``default``: a nonempty tuple or list
    of items like the first item for a tuple, else an integer (not a bool);
    every default's leaves are integers."""
    if isinstance(default, tuple):
        return (isinstance(value, (tuple, list)) and len(value) > 0
                and all(_same_kind(v, default[0]) for v in value))
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def run(config: ExperimentConfig) -> Report:
    """Run one named experiment; deterministic given (config, seed)."""
    if config.experiment not in REGISTRY:
        raise ConfigInvalid(f"unknown experiment {config.experiment!r}")
    entry = REGISTRY[config.experiment]
    params = dict(entry.defaults)
    unknown = set(config.params) - set(params)
    if unknown:
        raise ConfigInvalid(
            f"unknown parameters for {config.experiment}: {sorted(unknown)}")
    for name, value in config.params.items():
        if not _same_kind(value, params[name]):
            raise ConfigInvalid(
                f"parameter {name} of {config.experiment} must be like its default "
                f"{params[name]!r}, got {value!r}")
    params.update(config.params)
    rec = _Recorder()
    try:
        entry.fn(params, config.seed, config.caps, rec)
    except (ChslabError, np.linalg.LinAlgError, MemoryError) as exc:
        rec.add(f"error-{type(exc).__name__}", None, None, EXACT, False)
    return Report(config.experiment, params, config.seed, rec.rows, _toolchain())


def suite_experiments(suite: str) -> list[str]:
    if suite not in SUITES:
        raise ConfigInvalid(f"unknown suite {suite!r}; choose from {SUITES}")
    if suite == "all":
        return list(REGISTRY)
    return [name for name, entry in REGISTRY.items() if suite in entry.suites]


def derive_seed(suite_seed: int, index: int) -> int:
    ss = np.random.SeedSequence(entropy=suite_seed, spawn_key=(index,))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def run_suite(suite: str, seed: int = 0, caps: Caps = Caps()) -> list[Report]:
    """Run a suite's experiments in declaration order, in this process.

    Per-experiment seeds derive from (suite seed, experiment index), so each
    report depends only on the suite seed and the experiment's position.
    """
    return [run(ExperimentConfig(name, {}, derive_seed(seed, i), caps))
            for i, name in enumerate(suite_experiments(suite))]


def report_to_json(reports) -> str:
    if isinstance(reports, Report):
        reports = [reports]
    payload = [asdict(r) | {"passed": r.passed} for r in reports]
    return json.dumps(payload, indent=2)


def report_to_csv_rows(reports) -> list[list]:
    if isinstance(reports, Report):
        reports = [reports]
    rows = [["experiment", "seed", "check", "value", "reference", "mode",
             "passed", "runtime_ms"]]
    for r in reports:
        for c in r.checks:
            rows.append([r.experiment, r.seed, c.name,
                         "" if c.value is None else repr(c.value),
                         "" if c.reference is None else repr(c.reference),
                         c.mode, c.passed, f"{c.runtime_ms:.3f}"])
    return rows
