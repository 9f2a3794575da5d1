"""Correctness checks for the benchmark, computed apart from chslab.

Every reference value here is built from numpy, fractions and itertools
alone; nothing is imported from chslab.  Each ``check_*`` function takes
the program's output and returns a list of failure messages, empty when the
output passed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from fractions import Fraction

import numpy as np

HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-10
PSD_TOL = 1e-9
ENTRY_TOL = 1e-12
DISTANCE_TOL = 1e-9
MC_SIGMAS = 4.0
MOMENT_SIGMAS = 5.0


# --------------------------------------------------------------------------
# reference computations
# --------------------------------------------------------------------------

def falling(d: int, k: int) -> int:
    return math.prod(d - i for i in range(k))


def rising(d: int, k: int) -> int:
    return math.prod(d + i for i in range(k))


def collision_advantage(d: int, t: int) -> Fraction:
    """P(no collision | independent copies) - P(no collision | identical copies).

    Identical: 2t outcomes of one Haar state are distinct with probability
    d_(2t) / d^(2t) (falling over rising factorial).  Independent: each
    state's t outcomes are distinct with probability d_(t) / d^(t), and two
    uniform t-subsets are disjoint with probability C(d-t, t) / C(d, t).
    """
    identical = Fraction(falling(d, 2 * t), rising(d, 2 * t))
    independent = (Fraction(falling(d, t), rising(d, t)) ** 2
                   * Fraction(math.comb(d - t, t), math.comb(d, t)))
    return independent - identical


def sym_moment(d: int, k: int) -> np.ndarray:
    """Haar k-th moment: the average of the k! register permutations,
    divided by the symmetric-subspace dimension C(d+k-1, k)."""
    dim = d**k
    idx = np.arange(dim)
    digits = [(idx // d ** (k - 1 - j)) % d for j in range(k)]
    out = np.zeros((dim, dim))
    for sigma in itertools.permutations(range(k)):
        dest = sum(digits[sigma[j]] * d ** (k - 1 - j) for j in range(k))
        out[dest, idx] += 1.0
    return out / (math.factorial(k) * math.comb(d + k - 1, k))


def label_dephasing(d: int, n: int, lam: int, blocks, total: int) -> np.ndarray:
    """Average of the +-1 key phases over independent uniform keys, one per
    block: the 0/1 matrix [label_b(x) == label_b(y) for every block b], where
    label_b is the XOR of the leading lam bits of the block's registers."""
    idx = np.arange(d**total)
    out = np.ones((idx.size, idx.size), dtype=bool)
    for regs in blocks:
        label = np.zeros_like(idx)
        for r in regs:
            label ^= ((idx // d ** (total - 1 - r)) % d) >> (n - lam)
        out &= label[:, None] == label[None, :]
    return out


def keyed_reference(d: int, n: int, lam: int, blocks, total: int) -> np.ndarray:
    """Key-averaged state of the keyed copies plus shared copies."""
    return sym_moment(d, total) * label_dephasing(d, n, lam, blocks, total)


def product_moments(d: int, sizes) -> np.ndarray:
    out = np.ones((1, 1))
    for k in sizes:
        out = np.kron(out, sym_moment(d, k))
    return out


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    return 0.5 * float(np.abs(np.linalg.eigvalsh(a - b)).sum())


def marginal(rho: np.ndarray, d: int, total: int, keep) -> np.ndarray:
    """Partial trace of a (d^total)-square matrix onto the registers ``keep``."""
    keep = list(keep)
    rows = list(range(total))
    cols = [r if r not in keep else total + r for r in range(total)]
    out = [r for r in keep] + [total + r for r in keep]
    reduced = np.einsum(rho.reshape((d,) * (2 * total)), rows + cols, out)
    dim = d ** len(keep)
    return reduced.reshape(dim, dim)


def good_type_fraction(n: int, m: int, ell: int, t: int) -> Fraction:
    """Share of size-t multisets over [0, 2^(n+m)) whose ell-subsets of
    positions all have distinct XORs of their n-bit prefixes."""
    rows = np.array(list(itertools.combinations_with_replacement(
        range(2 ** (n + m)), t)), dtype=np.int64)
    prefixes = rows >> m
    folds = np.zeros((rows.shape[0], math.comb(t, ell)), dtype=np.int64)
    for j, combo in enumerate(itertools.combinations(range(t), ell)):
        for i in combo:
            folds[:, j] ^= prefixes[:, i]
    folds.sort(axis=1)
    good = (np.diff(folds, axis=1) != 0).all(axis=1)
    return Fraction(int(good.sum()), rows.shape[0])


def moment_entry_second_moments(d: int) -> np.ndarray:
    """E|psi_i psi_j conj(psi_k psi_l)|^2 for a Haar state in C^d, indexed
    by the flat two-copy indices (ij, kl).  A Dirichlet(1,...,1) moment:
    prod m_a! / (d (d+1) (d+2) (d+3)) with m_a the multiplicity of a."""
    out = np.empty((d * d, d * d))
    for i, j, k, l in itertools.product(range(d), repeat=4):
        counts = np.bincount([i, j, k, l], minlength=d)
        out[i * d + j, k * d + l] = (math.prod(math.factorial(c) for c in counts)
                                     / rising(d, 4))
    return out


# --------------------------------------------------------------------------
# checks
# --------------------------------------------------------------------------

def close(label: str, value, reference, tol: float) -> list[str]:
    if abs(value - reference) <= tol:
        return []
    return [f"{label}: {value!r} differs from {reference!r} by more than {tol}"]


def check_state(rho: np.ndarray, d: int, total: int, haar_blocks) -> list[str]:
    """A valid density matrix whose marginal on each listed register group
    is the Haar moment of that many copies."""
    fails = []
    herm = float(np.abs(rho - rho.conj().T).max())
    if herm > HERMITIAN_TOL:
        fails.append(f"hermitian defect {herm:.3e}")
    fails += close("trace", float(np.trace(rho).real), 1.0, TRACE_TOL)
    # a real symmetric matrix takes the cheaper real solver; same eigenvalues
    low = float(np.linalg.eigvalsh(rho if np.any(rho.imag) else rho.real).min())
    if low < -PSD_TOL:
        fails.append(f"min eigenvalue {low:.3e} below -{PSD_TOL}")
    for regs in haar_blocks:
        gap = float(np.abs(marginal(rho, d, total, regs) - sym_moment(d, len(regs))).max())
        if gap > ENTRY_TOL:
            fails.append(f"marginal on registers {tuple(regs)} is {gap:.3e} from the Haar moment")
    return fails


def check_hybrid(result, d: int, n: int, lam: int, blocks, t: int,
                 expected_td: float | None = None) -> list[str]:
    """Keyed and ideal states against their references, plus the distance.

    ``blocks`` lists the register groups keyed independently; the shared
    copies follow them.  The distance is compared with ``expected_td`` when
    a closed form is known, else with the reference states' distance.
    """
    total = sum(len(b) for b in blocks) + t
    shared = list(range(total - t, total))
    keyed = np.asarray(result.keyed.entries)
    ideal = np.asarray(result.ideal.entries)
    keyed_ref = keyed_reference(d, n, lam, blocks, total)
    ideal_ref = product_moments(d, [len(b) for b in blocks] + [t])
    fails = check_state(keyed, d, total, list(blocks) + [shared])
    gap = float(np.abs(keyed - keyed_ref).max())
    if gap > ENTRY_TOL:
        fails.append(f"keyed state is {gap:.3e} from the label-dephased moment")
    gap = float(np.abs(ideal - ideal_ref).max())
    if gap > ENTRY_TOL:
        fails.append(f"ideal state is {gap:.3e} from the product of moments")
    if expected_td is None:
        expected_td = trace_distance(keyed_ref, ideal_ref)
    fails += close("trace distance", result.td, expected_td, DISTANCE_TOL)
    return fails


def single_copy_distance(d: int) -> float:
    """Hybrid distance at lam = n, ell = t = 1: the full-key average keeps
    I + sum_a |aa><aa| of (I + SWAP) / (d (d+1)), so the distance to I/d^2
    is (d-1) / (d (d+1))."""
    return (d - 1) / (d * (d + 1))


def check_hiding(td: float, d: int, n: int, lam: int, p: int, t: int) -> list[str]:
    """Receiver view: p key-dephased commit registers plus t observer copies
    vs maximally mixed commit registers plus t observer copies."""
    total = p + t
    branch0 = keyed_reference(d, n, lam, [[i] for i in range(p)], total)
    branch1 = product_moments(d, [1] * p + [t])
    return close("hiding distance", td, trace_distance(branch0, branch1), DISTANCE_TOL)


HIDING_KNOWN = {(1, 2): Fraction(9, 40), (1, 3): Fraction(35, 144)}


def check_ppt_chain(chain) -> list[str]:
    fails = []
    order = [("exact", chain.exact), ("kneser_sum", chain.kneser_sum),
             ("factorial_bound", chain.factorial_bound),
             ("series_bound", chain.series_bound)]
    for (na, a), (nb, b) in zip(order, order[1:]):
        if a > b + DISTANCE_TOL:
            fails.append(f"chain order: {na}={a!r} exceeds {nb}={b!r}")
    if chain.middle > chain.factorial_bound + DISTANCE_TOL:
        fails.append(f"chain order: middle={chain.middle!r} exceeds factorial_bound")
    fails += close("kneser_sum vs middle", chain.kneser_sum, chain.middle, DISTANCE_TOL)
    return fails


def check_rank_attack(res, d: int, ell: int, t: int) -> list[str]:
    fails = close("keyed acceptance", res.accept_pseudo, 1.0, PSD_TOL)
    rank1 = math.comb(d + ell - 1, ell) * math.comb(d + t - 1, t)
    if res.rank1 != rank1:
        fails.append(f"ideal rank {res.rank1} != C(d+ell-1,ell) C(d+t-1,t) = {rank1}")
    if res.accept_haar > res.rank0 / res.rank1 + PSD_TOL:
        fails.append(f"ideal acceptance {res.accept_haar!r} exceeds rank0/rank1")
    return fails


def check_mc_cell(d: int, t: int, estimate: float, stderr: float,
                  closed_form: float) -> list[str]:
    exact = collision_advantage(d, t)
    fails = []
    if closed_form != float(exact):
        fails.append(f"closed form {closed_form!r} != exact difference {float(exact)!r}")
    if not (math.isfinite(stderr) and stderr > 0.0):
        fails.append(f"standard error {stderr!r} is not positive")
    elif abs(estimate - float(exact)) > MC_SIGMAS * stderr:
        fails.append(f"estimate {estimate!r} is more than {MC_SIGMAS} sigma "
                     f"({stderr!r}) from {float(exact)!r}")
    return fails


def check_good_type(res, exact: Fraction, trials: int) -> list[str]:
    fails = []
    if res.exact != exact:
        fails.append(f"exact fraction {res.exact} != enumerated {exact}")
    p = float(exact)
    sigma = math.sqrt(p * (1.0 - p) / trials)
    if res.mc_estimate is None or abs(res.mc_estimate - p) > MC_SIGMAS * sigma:
        fails.append(f"estimate {res.mc_estimate!r} is more than {MC_SIGMAS} sigma "
                     f"({sigma!r}) from {p!r}")
    return fails


def check_sampled_moment(estimate: np.ndarray, d: int, samples: int) -> list[str]:
    """Every entry of a sampled two-copy moment within MOMENT_SIGMAS standard
    errors of the exact moment; the standard error of each real and
    imaginary part is at most sqrt(E|X|^2 / samples)."""
    stderr = np.sqrt(moment_entry_second_moments(d) / samples)
    diff = estimate - sym_moment(d, 2)
    z = float((np.maximum(np.abs(diff.real), np.abs(diff.imag)) / stderr).max())
    if z > MOMENT_SIGMAS:
        return [f"sampled moment entry {z:.2f} standard errors from the exact moment"]
    return []


def suite_fingerprint(report_text: str) -> str:
    """Digest of every recorded value in a suite report; per-check wall time
    is metadata and left out."""
    reports = json.loads(report_text)
    for report in reports:
        for check in report["checks"]:
            check.pop("runtime_ms", None)
    canon = json.dumps(reports, sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()


def check_suite(exit_code: int, report_text: str) -> list[str]:
    fails = []
    if exit_code != 0:
        fails.append(f"suite exited with {exit_code}")
    reports = json.loads(report_text)
    rows = [(r["experiment"], c["name"]) for r in reports for c in r["checks"]
            if not c["passed"]]
    if not reports or not any(r["checks"] for r in reports):
        fails.append("suite report holds no check rows")
    if rows:
        fails.append(f"failing check rows: {rows}")
    return fails

