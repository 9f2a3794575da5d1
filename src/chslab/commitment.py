"""Two-state commitment over a shared random state, with exact verification.

Per pair of registers (commit register C_i, opening register R_i), the
committed states are

    b = 0:  2^(-lam/2) sum_k (Z^k (x) I) |common>  |k || 0^(n-lam)>
    b = 1:  2^(-n/2)   sum_j |j> |j>

and the receiver's accept-all-swap-tests measurement is the product POVM
element M_b = prod_i (I + |psi_b><psi_b|) / 2.  Acceptance probabilities
are evaluated analytically from M_b rather than by sampling circuits.

Register layouts: commitment states interleave pairs as (C_1 R_1 ... C_p R_p);
malicious-sender states group blocks as (C_1..C_p, R_1..R_p, E).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import NotUnitary, ParameterError, ShapeMismatch
from .linalg import (
    DEFAULT_DIM_CAP,
    Operator,
    RegisterShape,
    StateVector,
    partial_trace,
    trace_distance,
)
from .pseudo import _keyed_state, _label_mask, _phases
from .rng import stream_rng
from .typespace import DEFAULT_ENUM_CAP, haar_moment

__all__ = [
    "CommitmentParams",
    "MaliciousSender",
    "commit_pair_state",
    "commit_state",
    "receiver_accept_prob",
    "hiding_distance",
    "fidelity_bound_check",
    "binding_sum",
    "honest_strategy",
    "commit_one_open_both_strategy",
    "random_strategy",
]


@dataclass(frozen=True)
class CommitmentParams:
    """lam-bit keys over n-qubit states, p register pairs, t observer copies."""

    lam: int
    n: int
    p: int = 1
    t: int = 0

    def __post_init__(self) -> None:
        if self.lam < 0 or self.p < 1 or self.t < 0:
            raise ParameterError("negative parameter")
        if self.n < self.lam + 1:
            raise ParameterError(f"need n >= lam + 1, got n={self.n}, lam={self.lam}")


def commit_pair_state(b: int, common: StateVector, cp: CommitmentParams,
                      cap: int = DEFAULT_DIM_CAP) -> StateVector:
    """The committed state on one (C, R) register pair."""
    d = 2**cp.n
    if common.dim != d:
        raise ShapeMismatch(f"common state dimension {common.dim} != 2^n = {d}")
    shape = RegisterShape((d, d)).check_cap(cap)
    amps = np.zeros(d * d, dtype=np.complex128)
    if b == 1:
        amps[np.arange(d) * d + np.arange(d)] = 1.0 / np.sqrt(d)
        return StateVector(shape, amps)
    if b != 0:
        raise ParameterError(f"bit must be 0 or 1, got {b}")
    idx = np.arange(d, dtype=np.int64)
    prefix = idx >> (cp.n - cp.lam)
    for key in range(2**cp.lam):
        phased = _phases(prefix, key) * common.amplitudes
        opening = key << (cp.n - cp.lam)  # |key || 0^(n-lam)>
        amps[idx * d + opening] = phased / np.sqrt(2**cp.lam)
    return StateVector(shape, amps)


def commit_state(b: int, common: StateVector, cp: CommitmentParams,
                 cap: int = DEFAULT_DIM_CAP) -> StateVector:
    """Tensor power over the p pairs, interleaved as (C_1 R_1 ... C_p R_p)."""
    pair = commit_pair_state(b, common, cp, cap)
    d = 2**cp.n
    RegisterShape((d,) * (2 * cp.p)).check_cap(cap)
    amps = np.ones(1, dtype=np.complex128)
    for _ in range(cp.p):
        amps = np.kron(amps, pair.amplitudes)
    return StateVector(RegisterShape((d,) * (2 * cp.p)), amps)


def receiver_accept_prob(b: int, claimed: Operator, common: StateVector,
                         cp: CommitmentParams, cap: int = DEFAULT_DIM_CAP) -> float:
    """Probability that all p swap tests accept the claimed (C, R) state.

    Evaluates Tr(M_b claimed) through the subset expansion of the product
    POVM element, so the full 4^(np)-dimensional M_b is never materialised.
    """
    d = 2**cp.n
    if claimed.shape.dims != (d,) * (2 * cp.p):
        raise ShapeMismatch(
            f"claimed state must live on {(d,) * (2 * cp.p)}, got {claimed.shape.dims}")
    pair = commit_pair_state(b, common, cp, cap)
    total = 0.0
    for subset in itertools.product((False, True), repeat=cp.p):
        kept = [r for i in range(cp.p) if subset[i] for r in (2 * i, 2 * i + 1)]
        if not any(subset):
            term = float(np.real(claimed.trace()))
        else:
            reduced = partial_trace(claimed, kept)
            vec = np.ones(1, dtype=np.complex128)
            for _ in range(sum(subset)):
                vec = np.kron(vec, pair.amplitudes)
            term = float(np.real(vec.conj() @ reduced.entries @ vec))
        total += term
    return total / 2**cp.p


def hiding_distance(cp: CommitmentParams, cap: int = DEFAULT_DIM_CAP) -> float:
    """Exact distance between what the receiver holds in the two branches.

    The receiver side is the p commit registers plus t observer copies of
    the common state, averaged over the common state exactly.  For b = 1
    the commit registers are maximally mixed regardless of the state.
    """
    d = 2**cp.n
    # one independent key per commit register
    branch0 = _keyed_state(d, cp.p + cp.t, cp.n - cp.lam,
                           [(i,) for i in range(cp.p)], cap, DEFAULT_ENUM_CAP)
    eye = np.eye(d) / d
    entries = np.ones((1, 1), dtype=np.complex128)
    for _ in range(cp.p):
        entries = np.kron(entries, eye)
    entries = np.kron(entries, haar_moment(d, cp.t, cap).entries)
    branch1 = Operator(branch0.shape, entries, hermitian_hint=True)
    return trace_distance(branch0, branch1)


def fidelity_bound_check(lam: int, n: int, common: StateVector,
                         cap: int = DEFAULT_DIM_CAP) -> tuple[float, float]:
    """Fidelity of the key-averaged commit register against maximally mixed.

    Returns (F, 2^-(n-lam)); the bound holds for every common state because
    the averaged state has rank at most 2^lam.
    """
    from .linalg import fidelity

    if n < lam + 1:
        raise ParameterError(f"need n >= lam + 1, got n={n}, lam={lam}")
    d = 2**n
    if common.dim != d:
        raise ShapeMismatch(f"common state dimension {common.dim} != 2^n = {d}")
    amps = common.amplitudes
    rho0 = np.outer(amps, amps.conj()) * _label_mask(d, 1, n - lam, [(0,)])
    shape = RegisterShape((d,))
    F = fidelity(Operator(shape, rho0, hermitian_hint=True),
                 Operator(shape, np.eye(d) / d, hermitian_hint=True))
    return F, 2.0 ** -(n - lam)


@dataclass(frozen=True)
class MaliciousSender:
    """Initial state on (C_1..C_p, R_1..R_p, E) and reveal unitaries on (R, E)."""

    initial: StateVector
    u0: np.ndarray
    u1: np.ndarray

    def __post_init__(self) -> None:
        for name, u in (("u0", self.u0), ("u1", self.u1)):
            u = np.asarray(u, dtype=np.complex128)
            if u.ndim != 2 or u.shape[0] != u.shape[1]:
                raise ShapeMismatch(f"{name} must be square")
            defect = np.abs(u.conj().T @ u - np.eye(u.shape[0])).max()
            if defect > 1e-10:
                raise NotUnitary(f"{name} deviates from unitarity by {defect:.3e}")
            object.__setattr__(self, name, u)

    def unitary(self, b: int) -> np.ndarray:
        return self.u1 if b else self.u0


def _interleaved_to_grouped(pair_amps: np.ndarray, p: int, d: int) -> np.ndarray:
    """Reorder (C_1 R_1 ... C_p R_p) amplitudes to (C_1..C_p, R_1..R_p)."""
    legs = pair_amps.reshape((d,) * (2 * p))
    order = [2 * i for i in range(p)] + [2 * i + 1 for i in range(p)]
    return legs.transpose(order).reshape(-1)


def honest_strategy(b: int, common: StateVector, cp: CommitmentParams,
                    env_dim: int = 2, cap: int = DEFAULT_DIM_CAP) -> MaliciousSender:
    """Commit honestly to ``b`` and reveal without touching the registers."""
    d = 2**cp.n
    grouped = _interleaved_to_grouped(commit_state(b, common, cp, cap).amplitudes,
                                      cp.p, d)
    env = np.zeros(env_dim, dtype=np.complex128)
    env[0] = 1.0
    shape = RegisterShape((d,) * (2 * cp.p) + (env_dim,))
    initial = StateVector(shape, np.kron(grouped, env))
    eye = np.eye(d**cp.p * env_dim)
    return MaliciousSender(initial, eye, eye)


def commit_one_open_both_strategy(common: StateVector, cp: CommitmentParams,
                                  env_dim: int = 2,
                                  cap: int = DEFAULT_DIM_CAP) -> MaliciousSender:
    """Commit to the b = 1 state and claim either bit at reveal time."""
    return honest_strategy(1, common, cp, env_dim, cap)


def random_strategy(common: StateVector, cp: CommitmentParams, seed: int,
                    env_dim: int = 2, cap: int = DEFAULT_DIM_CAP) -> MaliciousSender:
    """Haar-random initial state with independent Haar reveal unitaries."""
    d = 2**cp.n
    rng = stream_rng(seed, 0)
    dim_total = d ** (2 * cp.p) * env_dim
    amps = rng.standard_normal(dim_total) + 1j * rng.standard_normal(dim_total)
    amps /= np.linalg.norm(amps)
    shape = RegisterShape((d,) * (2 * cp.p) + (env_dim,))
    initial = StateVector(shape, amps)

    dim_re = d**cp.p * env_dim
    us = []
    for _ in range(2):
        z = rng.standard_normal((dim_re, dim_re)) + 1j * rng.standard_normal((dim_re, dim_re))
        q, r = np.linalg.qr(z)
        q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        us.append(q)
    return MaliciousSender(initial, us[0], us[1])


def binding_sum(strategy: MaliciousSender, common: StateVector,
                cp: CommitmentParams, cap: int = DEFAULT_DIM_CAP) -> tuple[float, float]:
    """Acceptance probabilities (p0, p1) of the two reveals of one commit.

    p_b = Tr(M_b Tr_E(U_b |Phi><Phi| U_b^dag)), evaluated by contracting the
    per-pair projections against the pure attacked state.
    """
    d = 2**cp.n
    p = cp.p
    env_dim = strategy.initial.shape.dims[-1]
    expected = (d,) * (2 * p) + (env_dim,)
    if strategy.initial.shape.dims != expected:
        raise ShapeMismatch(
            f"strategy state lives on {strategy.initial.shape.dims}, expected {expected}")
    dim_re = d**p * env_dim
    if strategy.u0.shape != (dim_re, dim_re):
        raise ShapeMismatch(f"reveal unitaries must act on (R, E), dim {dim_re}")

    probs = []
    for b in (0, 1):
        pair = commit_pair_state(b, common, cp, cap).amplitudes.reshape(d, d)
        mat = strategy.initial.amplitudes.reshape(d**p, dim_re)
        attacked = (mat @ strategy.unitary(b).T).reshape((d,) * (2 * p) + (env_dim,))
        total = 0.0
        for subset in itertools.product((False, True), repeat=p):
            # project pair i onto |psi_b> for i in the subset, then take the
            # squared norm of what remains (the identity legs plus E)
            legs = attacked
            contracted = 0
            for i in range(p):
                if not subset[i]:
                    continue
                c_axis = i - contracted
                r_axis = (p - contracted) + (i - contracted)
                legs = np.tensordot(pair.conj(), legs, axes=([0, 1], [c_axis, r_axis]))
                contracted += 1
            total += float(np.vdot(legs, legs).real)
        probs.append(total / 2**p)
    return probs[0], probs[1]
