"""Two-state commitment over a shared random state, with exact verification.

Per pair of registers (commit register C_i, opening register R_i), the
committed states are

    b = 0:  2^(-lam/2) sum_k (Z^k (x) I) |common>  |k || 0^(n-lam)>
    b = 1:  2^(-n/2)   sum_j |j> |j>

and the receiver's accept-all-swap-tests measurement is M_b = A_b^(x)p with
A_b = (I + |psi_b><psi_b|) / 2.  Acceptance probabilities are exact: A_b is
contracted pair by pair through psi_b alone, so neither M_b nor A_b is built.

Register layouts: commitment states interleave pairs as (C_1 R_1 ... C_p R_p);
malicious-sender states group blocks as (C_1..C_p, R_1..R_p, E).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import exact
from .errors import NotUnitary, ParameterError, ShapeMismatch
from .linalg import (
    DEFAULT_DIM_CAP,
    Operator,
    RegisterShape,
    StateVector,
    _dense_or_blocks,
    fidelity,
)
from .pseudo import _hybrid, _phases
from .typespace import DEFAULT_ENUM_CAP

# dimension of the environment register E of a malicious sender's strategy
_ENV_DIM = 2

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
    "optimal_attack",
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


def _kron_power(m: np.ndarray, p: int) -> np.ndarray:
    """m^(x)p: for a pair's amplitude row, the p-fold state interleaved as
    (C_1 R_1 ... C_p R_p); for its d x d (C, R) matrix, grouped (C_1..C_p, R_1..R_p)."""
    out = np.ones((1, 1), dtype=np.complex128)
    for _ in range(p):
        out = np.kron(out, m)
    return out


def commit_state(b: int, common: StateVector, cp: CommitmentParams,
                 cap: int = DEFAULT_DIM_CAP) -> StateVector:
    """Tensor power over the p pairs, interleaved as (C_1 R_1 ... C_p R_p)."""
    pair = commit_pair_state(b, common, cp, cap)
    d = 2**cp.n
    shape = RegisterShape((d,) * (2 * cp.p)).check_cap(cap)
    return StateVector(shape, _kron_power(pair.amplitudes[None], cp.p)[0])


def receiver_accept_prob(b: int, claimed: Operator, common: StateVector,
                         cp: CommitmentParams, cap: int = DEFAULT_DIM_CAP) -> float:
    """Probability that all p swap tests accept the claimed (C, R) state.

    Evaluates Tr(M_b claimed) pair by pair: tracing A_b against the first
    remaining (row, column) pair is half its partial trace plus half its
    psi_b sandwich, and leaves an array d^4 times smaller.
    """
    d = 2**cp.n
    if claimed.shape.dims != (d,) * (2 * cp.p):
        raise ShapeMismatch(
            f"claimed state must live on {(d,) * (2 * cp.p)}, got {claimed.shape.dims}")
    psi = commit_pair_state(b, common, cp, cap).amplitudes
    rest = claimed.values.reshape((d * d,) * (2 * cp.p))
    for left in range(cp.p, 0, -1):  # row pair on axis 0, its column pair on axis left
        bra = np.tensordot(psi.conj(), rest, axes=(0, 0))  # column pair now on left - 1
        rest = (np.trace(rest, axis1=0, axis2=left)
                + np.tensordot(bra, psi, axes=(left - 1, 0))) / 2
    return float(np.real(rest))


def hiding_distance(cp: CommitmentParams, cap: int = DEFAULT_DIM_CAP,
                    enum_cap: int = DEFAULT_ENUM_CAP) -> float:
    """Exact distance between what the receiver holds in the two branches.

    The receiver side is the p commit registers plus t observer copies of
    the common state, averaged over the common state exactly.  For b = 1
    the commit registers are maximally mixed regardless of the state.
    """
    # one independent key per commit register; haar_moment(d, 1) = I/d is
    # the maximally mixed commit register of the b = 1 branch
    commits = [(i,) for i in range(cp.p)]
    _, _, td = _hybrid(2**cp.n, cp.n - cp.lam, commits,
                       commits + [range(cp.p, cp.p + cp.t)], cap, enum_cap)
    return td


def fidelity_bound_check(lam: int, n: int, common: StateVector,
                         cap: int = DEFAULT_DIM_CAP) -> tuple[float, float]:
    """Fidelity of the key-averaged commit register against maximally mixed.

    Returns (F, 2^-(n-lam)), the bound from :func:`chslab.exact.fidelity_bound`;
    it holds for every common state because the averaged state has rank at
    most 2^lam.
    """
    if lam < 0 or n < lam + 1:
        raise ParameterError(f"need n >= lam + 1 >= 1, got n={n}, lam={lam}")
    d = 2**n
    shape = RegisterShape((d,)).check_cap(cap)
    if common.dim != d:
        raise ShapeMismatch(f"common state dimension {common.dim} != 2^n = {d}")
    # the key average keeps the 2^lam blocks of |amps><amps| on which the
    # top lam bits agree, from float64 products: a complex multiply may fuse
    # them, depending on the CPU features numpy dispatches to
    re, im = (part.reshape(-1, 2**(n - lam)) for part in (common.amplitudes.real,
                                                            common.amplitudes.imag))
    block = np.empty(re.shape + re.shape[1:], dtype=np.complex128)
    block.real = re[:, :, None] * re[:, None, :] + im[:, :, None] * im[:, None, :]
    block.imag = im[:, :, None] * re[:, None, :] - re[:, :, None] * im[:, None, :]
    rho0 = _dense_or_blocks(shape, [(np.arange(d).reshape(re.shape), block)])
    mixed = _dense_or_blocks(shape, [(np.arange(d)[:, None], np.full((d, 1, 1), 1.0 / d))])
    F = fidelity(rho0, mixed)
    return F, float(exact.fidelity_bound(lam, n))


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


def _pair_amplitudes(b: int, common: StateVector, cp: CommitmentParams,
                     cap: int) -> np.ndarray:
    """The pair state of bit ``b`` as its d x d (C, R) amplitude matrix."""
    d = 2**cp.n
    pair = commit_pair_state(b, common, cp, cap)
    RegisterShape((d,) * (2 * cp.p)).check_cap(cap)
    return pair.amplitudes.reshape(d, d)


def _sender(grouped: np.ndarray, u_r0: np.ndarray, u_r1: np.ndarray,
            d: int, p: int) -> MaliciousSender:
    """Commit to the (C, R) amplitude matrix ``grouped`` with E in |0>, and
    reveal b with ``u_rb`` on R and the identity on E."""
    env = np.zeros(_ENV_DIM, dtype=np.complex128)
    env[0] = 1.0
    shape = RegisterShape((d,) * (2 * p) + (_ENV_DIM,))
    initial = StateVector(shape, np.kron(grouped.reshape(-1), env))
    eye_e = np.eye(_ENV_DIM)
    return MaliciousSender(initial, np.kron(u_r0, eye_e), np.kron(u_r1, eye_e))


def honest_strategy(b: int, common: StateVector, cp: CommitmentParams,
                    cap: int = DEFAULT_DIM_CAP) -> MaliciousSender:
    """Commit honestly to ``b`` and reveal without touching the registers."""
    d = 2**cp.n
    eye = np.eye(d**cp.p)
    return _sender(_kron_power(_pair_amplitudes(b, common, cp, cap), cp.p), eye, eye,
                   d, cp.p)


def optimal_attack(common: StateVector, cp: CommitmentParams,
                   cap: int = DEFAULT_DIM_CAP) -> MaliciousSender:
    """The sender that maximises p0 + p1 at p = 1.

    With A_b the (C, R) amplitude matrix of the pair state psi_b and
    A_0^H A_1 = U S V^H, the unitary W = conj(U V^H) on R gives
    <psi_0|(I (x) W)|psi_1> = Tr S = sqrt(F(rho_0, rho_1)) for the commit
    register marginals rho_b (Uhlmann).  The sender commits to the
    normalised sum psi_0 + (I (x) W) psi_1, reveals 0 untouched and 1 with
    W^dag, and so reaches p0 + p1 = 1 + (1 + sqrt F)/2, which the two-state
    lemma shows no sender exceeds (:func:`chslab.exact.binding_optimum`).
    For p > 1 the same construction runs on the p-fold states with W^(x)p;
    its value is then only a lower bound on the optimum.
    """
    d = 2**cp.n
    a0, a1 = (_pair_amplitudes(b, common, cp, cap) for b in (0, 1))
    u, _, vh = np.linalg.svd(a0.conj().T @ a1)
    w = _kron_power((u @ vh).conj(), cp.p)
    # (I (x) W) acts on the amplitude matrix from the right, as W^T
    pair_sum = _kron_power(a0, cp.p) + _kron_power(a1, cp.p) @ w.T
    return _sender(pair_sum / np.linalg.norm(pair_sum), np.eye(d**cp.p), w.conj().T,
                   d, cp.p)


def binding_sum(strategy: MaliciousSender, common: StateVector,
                cp: CommitmentParams, cap: int = DEFAULT_DIM_CAP) -> tuple[float, float]:
    """Acceptance probabilities (p0, p1) of the two reveals of one commit.

    p_b = <Phi_b| A_b^(x)p (x) I_E |Phi_b> for Phi_b = U_b Phi, regrouped as
    (E, C_1 R_1, ..., C_p R_p): A_b x = (x + psi_b <psi_b|x>) / 2 is applied
    pair by pair, then one vdot.
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

    # (C_1..C_p, R_1..R_p, E) -> (E, C_1, R_1, ..., C_p, R_p)
    pairs = [2 * p] + [axis for i in range(p) for axis in (i, p + i)]
    mat = strategy.initial.amplitudes.reshape(d**p, dim_re)
    probs = []
    for b in (0, 1):
        psi = commit_pair_state(b, common, cp, cap).amplitudes
        attacked = (mat @ strategy.unitary(b).T).reshape(expected)
        attacked = attacked.transpose(pairs).reshape((env_dim,) + (d * d,) * p)
        legs = attacked
        for _ in range(p):  # A_b on the next unapplied pair (axis 1); it comes back last
            overlap = np.tensordot(legs, psi.conj(), axes=(1, 0))
            legs = (np.moveaxis(legs, 1, -1) + overlap[..., None] * psi) / 2
        probs.append(float(np.vdot(attacked, legs).real))
    return probs[0], probs[1]
