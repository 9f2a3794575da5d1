"""Keyed Pauli-Z state generators and their exact distinguishability data.

The generator family applies a diagonal phase ``(-1)^<k, prefix(y)>`` to the
amplitudes of an n-qubit state, with the key ``k`` read against the leading
bits of each basis label.  Because the generators are diagonal with +-1
entries, conjugating an operator ``M`` by the generator multiplies its
entry (r, s) by the phase of r times the phase of s.  Averaged over
uniform keys, that product becomes the 0/1 label agreement
``[label(r) == label(s)]`` (label dephasing): the label of a flat index is
the XOR of the keyed registers' prefixes, one label per independent key
block.  Every key average here is that agreement, exact over the whole key
space; nothing is sampled.  A Haar moment is one block per type class,
so the keyed state reads the moment only there and keeps the pairs whose
labels all agree, one block per class and label group, and the ideal state
is one block per tuple of its moments' class blocks; both are block
operators, and neither builds a D x D matrix, mask or product.

Hybrid density matrices follow the register layout: generator-output copies
first (in query order, with multiplicities), shared-state copies last.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

import numpy as np

from . import exact
from .errors import (
    ParameterError,
    PreconditionViolated,
    ShapeMismatch,
)
from .linalg import DEFAULT_DIM_CAP, RANK_TOL, Operator, StateVector, _ascending, \
    _gather, _label_groups, _psd_eigh, numeric_rank, pinv_sqrt, trace_distance
from .typespace import (
    DEFAULT_ENUM_CAP,
    PrefixParams,
    TypeVector,
    _ideal_state,
    haar_moment,
    is_l_fold_prefix_collision_free,
    type_state,
)

__all__ = [
    "PrsKey",
    "PrfsKey",
    "PrfsInput",
    "PseudoParams",
    "prs_apply",
    "prfs_apply",
    "check_perm_split",
    "lemma_nice_T_check",
    "lemma_prfs_type_check",
    "PrfsTypeResult",
    "prs_hybrids",
    "prs_multikey_hybrids",
    "prfs_hybrids",
    "HybridResult",
    "rank_attack",
    "RankAttackResult",
    "onewayness_quantity",
]


def _bits_to_int(bits) -> int:
    value = 0
    for b in bits:
        if b not in (0, 1):
            raise ParameterError(f"bit string contains {b!r}")
        value = (value << 1) | b
    return value


@dataclass(frozen=True)
class PrsKey:
    """lambda-bit key; bits[0] addresses the first (most significant) qubit."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "bits", tuple(int(b) for b in self.bits))
        _bits_to_int(self.bits)

    @classmethod
    def from_int(cls, value: int, lam: int) -> "PrsKey":
        return cls(tuple((value >> (lam - 1 - i)) & 1 for i in range(lam)))

    @property
    def lam(self) -> int:
        return len(self.bits)

    @property
    def as_int(self) -> int:
        return _bits_to_int(self.bits)


@dataclass(frozen=True)
class PrfsKey:
    """Per-position key blocks: k0[i] is used when input bit i is 0, k1[i] when 1."""

    lambda_prime: int
    k0: tuple[int, ...]
    k1: tuple[int, ...]

    def __post_init__(self) -> None:
        top = 1 << self.lambda_prime
        if len(self.k0) != len(self.k1):
            raise ParameterError("k0 and k1 must hold one block per input position")
        if any(not 0 <= v < top for v in self.k0 + self.k1):
            raise ParameterError(f"key block out of range for lambda'={self.lambda_prime}")

    @property
    def m(self) -> int:
        return len(self.k0)

    @classmethod
    def from_int(cls, value: int, lambda_prime: int, m: int) -> "PrfsKey":
        # block layout, most significant first: k_1^0 ... k_m^0 k_1^1 ... k_m^1
        blocks = []
        for j in range(2 * m):
            shift = (2 * m - 1 - j) * lambda_prime
            blocks.append((value >> shift) & ((1 << lambda_prime) - 1))
        return cls(lambda_prime, tuple(blocks[:m]), tuple(blocks[m:]))

    def effective_key(self, x: "PrfsInput") -> int:
        if len(x.bits) != self.m:
            raise ParameterError(f"input length {len(x.bits)} != m={self.m}")
        e = 0
        for i, b in enumerate(x.bits):
            e ^= self.k1[i] if b else self.k0[i]
        return e


@dataclass(frozen=True)
class PrfsInput:
    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "bits", tuple(int(b) for b in self.bits))
        _bits_to_int(self.bits)


@dataclass(frozen=True)
class PseudoParams:
    """Shared parameter block for the hybrid experiments.

    ``lam`` is the key length (lambda' for the function-like generator), ``n``
    the state length in qubits, ``ell`` the number of generated copies, ``t``
    the number of shared-state copies.  ``ells`` carries the per-query copy
    counts for multi-query experiments and must sum to ``ell``.
    """

    lam: int
    n: int
    ell: int
    t: int
    ells: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.lam < 0 or self.n < 1 or self.ell < 0 or self.t < 0:
            raise ParameterError("negative parameter")
        if self.ells and sum(self.ells) != self.ell:
            raise ParameterError(f"per-query counts {self.ells} do not sum to ell={self.ell}")


def _parity(a: np.ndarray) -> np.ndarray:
    a = a.copy()
    for s in (32, 16, 8, 4, 2, 1):
        a ^= a >> s
    return a & 1


def _prefix_xor_profile(d: int, suffix_shift: int, regs, total: int) -> np.ndarray:
    """XOR of the digit prefixes of the listed registers, per flat index."""
    idx = np.arange(d**total, dtype=np.int64)
    xp = np.zeros(d**total, dtype=np.int64)
    for j in regs:
        digit = (idx // d ** (total - 1 - j)) % d
        xp ^= digit >> suffix_shift
    return xp


def _phases(xp: np.ndarray, key: int) -> np.ndarray:
    return 1.0 - 2.0 * _parity(xp & key)


def _labels_agree(d: int, total: int, suffix_shift: int, charges, rows: np.ndarray,
                  cols: np.ndarray) -> np.ndarray:
    """Uniform key average of the +-1 phase products at the index pairs
    (rows, cols), which broadcast against each other, as 0/1.

    Each entry of ``charges`` lists the registers read against one
    independent uniform key block; its label is their prefix XOR.  The
    average of (-1)^<k, label(r) ^ label(s)> over k is [label(r) == label(s)],
    so the average is 1 exactly where every label agrees.
    """
    agree = np.ones(np.broadcast_shapes(rows.shape, cols.shape), dtype=bool)
    for regs in charges:
        label = _prefix_xor_profile(d, suffix_shift, regs, total)
        agree &= label[rows] == label[cols]
    return agree


def _query_charges(blocks, queries) -> list[list[int]]:
    """Registers read against each key block of the function-like generator.

    Query j applies the XOR of the blocks k_{x_j[i]}[i] to its registers, so
    block k_b[i] meets the registers of every query whose bit i is b:
    Q_{i,b} = XOR_{j : x_j[i] = b} P_j.
    """
    m_in = len(queries[0].bits)
    return [[r for regs, x in zip(blocks, queries) if x.bits[i] == b for r in regs]
            for i in range(m_in) for b in (0, 1)]


def prs_apply(k: PrsKey, s: StateVector) -> StateVector:
    """Phase the amplitudes by (-1)^<k, first lam bits of the basis label>."""
    n = int(s.dim).bit_length() - 1
    if 2**n != s.dim:
        raise ShapeMismatch(f"state dimension {s.dim} is not a power of two")
    if n < k.lam:
        raise ShapeMismatch(f"key length {k.lam} exceeds state length {n}")
    idx = np.arange(s.dim, dtype=np.int64)
    ph = _phases(idx >> (n - k.lam), k.as_int)
    return StateVector(s.shape, s.amplitudes * ph)


def prfs_apply(K: PrfsKey, x: PrfsInput, s: StateVector) -> StateVector:
    """Apply the generator with the XOR of the input-selected key blocks."""
    return prs_apply(PrsKey.from_int(K.effective_key(x), K.lambda_prime), s)


def _require_good(T: TypeVector, p: PrefixParams, enum_cap: int) -> None:
    if not is_l_fold_prefix_collision_free(T, p, enum_cap):
        raise PreconditionViolated(
            f"type {T.items} is not {p.ell}-fold {p.n}-prefix collision-free")


def check_perm_split(v, sigma, p: PrefixParams,
                     enum_cap: int = DEFAULT_ENUM_CAP) -> bool:
    """Key-average a permuted matrix unit and confirm it survives or vanishes.

    ``v`` is an arrangement of a fold-collision-free type; ``sigma`` permutes
    its positions.  Averaging the phased unit |v><sigma(v)| over all 2^n keys
    must reproduce the unit when sigma maps the first ell positions to
    themselves and the zero matrix otherwise.
    """
    v = tuple(int(e) for e in v)
    sigma = tuple(int(s) for s in sigma)
    if sorted(sigma) != list(range(len(v))):
        raise ParameterError(f"{sigma} is not a permutation of the positions")
    if len(v) != p.t:
        raise ParameterError(f"arrangement length {len(v)} != t={p.t}")
    T = TypeVector.from_elements(p.alphabet_dim, v)
    _require_good(T, p, enum_cap)

    sv = tuple(v[s] for s in sigma)
    # both sides are multiples of the same matrix unit, whose key average
    # keeps it iff the fold prefix XORs of its row and column labels agree
    xa = 0
    for e in v[: p.ell]:
        xa ^= p.prefix_of(e)
    xb = 0
    for e in sv[: p.ell]:
        xb ^= p.prefix_of(e)
    return (xa == xb) == (set(sigma[: p.ell]) == set(range(p.ell)))


def _position_subset_mixture(elements: tuple[int, ...], sizes: tuple[int, ...]):
    """Recursive uniform disjoint-subset sampling law, as exact weights.

    Yields ``((sub_1, ..., sub_q, rest), probability)`` where each ``sub_i``
    is a sorted element tuple of size ``sizes[i]`` drawn uniformly from what
    remains after the earlier draws.
    """
    terms: dict[tuple, float] = {}

    def rec(remaining: tuple[int, ...], chosen: tuple, weight: float, i: int) -> None:
        if i == len(sizes):
            key = chosen + (remaining,)
            terms[key] = terms.get(key, 0.0) + weight
            return
        total = comb(len(remaining), sizes[i])
        for pos in itertools.combinations(range(len(remaining)), sizes[i]):
            sub = tuple(remaining[j] for j in pos)
            rest = tuple(remaining[j] for j in range(len(remaining)) if j not in pos)
            rec(rest, chosen + (tuple(sorted(sub)),), weight / total, i + 1)

    rec(tuple(sorted(elements)), (), 1.0, 0)
    return terms.items()


def lemma_nice_T_check(T: TypeVector, p: PrefixParams,
                       cap: int = DEFAULT_DIM_CAP,
                       enum_cap: int = DEFAULT_ENUM_CAP) -> float:
    """Max-entry gap between the key-averaged type projector and the
    uniform split into an ell-subset times its complement.

    The single-query case of :func:`lemma_prfs_type_check`: one query keys
    the first ell registers, and its all-zero-input key block is the only
    one that meets them.
    """
    return lemma_prfs_type_check(T, [(0,)], (p.ell,), p, cap, enum_cap).discrepancy


@dataclass(frozen=True)
class PrfsTypeResult:
    discrepancy: float
    exact_keys: bool
    keys_used: int


def lemma_prfs_type_check(T: TypeVector, queries, mults, p: PrefixParams,
                          cap: int = DEFAULT_DIM_CAP,
                          enum_cap: int = DEFAULT_ENUM_CAP) -> PrfsTypeResult:
    """Multi-query generalisation of :func:`lemma_nice_T_check`.

    The left side is |T><T| dephased by the exact average over all
    2^(2 m lambda') keys: the mask of equal Q_{i,b} charges, one per key
    block.  The right side is the recursive disjoint-subset mixture.
    Returns the max entry difference; the key average is always exact and
    ``keys_used`` is the key-space size.
    """
    queries = tuple(PrfsInput(tuple(q)) for q in queries)
    mults = tuple(int(v) for v in mults)
    if len(queries) != len(mults) or not queries:
        raise ParameterError("need one copy count per query")
    if len({q.bits for q in queries}) != len(queries):
        raise PreconditionViolated("queries must be pairwise distinct")
    m_in = len(queries[0].bits)
    if any(len(q.bits) != m_in for q in queries):
        raise ParameterError("queries must share one input length")
    ell = sum(mults)
    if p.ell != ell:
        raise ParameterError(f"params ell={p.ell} != sum of copy counts {ell}")
    _require_good(T, p, enum_cap)
    d, total = T.alphabet_dim, T.total
    offsets = np.cumsum((0,) + mults)
    blocks = [range(offsets[j], offsets[j + 1]) for j in range(len(queries))]
    psi = type_state(T, cap).amplitudes
    idx = np.arange(d**total)
    lhs = np.outer(psi, psi.conj()) * _labels_agree(
        d, total, p.m, _query_charges(blocks, queries), idx[:, None], idx)

    rhs = np.zeros_like(lhs)
    for parts, prob in _position_subset_mixture(T.elements(), mults):
        vec = np.ones(1, dtype=np.complex128)
        for part in parts:
            vec = np.kron(vec, type_state(
                TypeVector.from_elements(d, part), cap).amplitudes)
        rhs += prob * np.outer(vec, vec.conj())
    return PrfsTypeResult(float(np.abs(lhs - rhs).max()), True,
                          2 ** (2 * m_in * p.n))


@dataclass(frozen=True)
class HybridResult:
    keyed: Operator
    ideal: Operator
    td: float
    bound: float


def _keyed_state(d: int, total: int, suffix_shift: int, charges,
                 cap: int, enum_cap: int) -> Operator:
    """Keyed copies plus shared copies, averaged over the whole key space:
    the total-copy Haar moment dephased by the charges' labels, a real
    block operator like the moment.

    The moment is one block per type class, so only the index pairs of
    each class are read.  Label agreement is an equivalence, so the pairs
    that keep their entry split each class into groups of indices whose
    labels all agree; each group is one block, holding the moment's
    entries on it.
    """
    moment = haar_moment(d, total, cap, enum_cap)
    group = np.empty(moment.dim, dtype=np.intp)
    for idx, _ in moment.block_form:
        rows, cols = idx[:, :, None], idx[:, None, :]
        agree = _labels_agree(d, total, suffix_shift, charges, rows, cols)
        # an index's group is named by the smallest index of its class
        # whose labels all agree with its own
        group[idx] = np.where(agree, cols, moment.dim).min(axis=2)
    groups = _label_groups(group)
    return Operator(moment.shape, blocks=list(zip(groups, _gather(moment, groups))))


def _hybrid(d: int, suffix_shift: int, charges, groups, cap: int,
            enum_cap: int) -> tuple[Operator, Operator, float]:
    """Keyed state, ideal state over ``groups`` and their trace distance."""
    total = sum(len(regs) for regs in groups)
    keyed = _keyed_state(d, total, suffix_shift, charges, cap, enum_cap)
    ideal = _ideal_state(d, groups, cap, enum_cap)
    return keyed, ideal, trace_distance(keyed, ideal)


def prs_hybrids(params: PseudoParams, cap: int = DEFAULT_DIM_CAP,
                enum_cap: int = DEFAULT_ENUM_CAP) -> HybridResult:
    """Exact keyed-output density matrix vs the fresh-state ideal.

    keyed: ell generated copies plus t shared copies, key averaged exactly
    over all 2^lam keys.  ideal: independent ell-copy and t-copy moments.
    The reported bound, :func:`chslab.exact.hybrid_bound`, is
    (ell+t)^(2 ell) / 2^lam with no hidden constant.
    """
    lam, n, ell, t = params.lam, params.n, params.ell, params.t
    if n < lam:
        raise ParameterError(f"need n >= lam, got n={n}, lam={lam}")
    keyed, ideal, td = _hybrid(2**n, n - lam, [range(ell)],
                               [range(ell), range(ell, ell + t)], cap, enum_cap)
    return HybridResult(keyed, ideal, td, float(exact.hybrid_bound(lam, ell, t)))


def prs_multikey_hybrids(params: PseudoParams, num_keys: int,
                         cap: int = DEFAULT_DIM_CAP,
                         enum_cap: int = DEFAULT_ENUM_CAP) -> HybridResult:
    """Same comparison with ``num_keys`` independent keys, each keying ell copies."""
    lam, n, ell, t = params.lam, params.n, params.ell, params.t
    if n < lam:
        raise ParameterError(f"need n >= lam, got n={n}, lam={lam}")
    if num_keys < 1:
        raise ParameterError("need at least one key")
    keyed_regs = num_keys * ell
    blocks = [range(i * ell, (i + 1) * ell) for i in range(num_keys)]
    keyed, ideal, td = _hybrid(2**n, n - lam, blocks,
                               blocks + [range(keyed_regs, keyed_regs + t)],
                               cap, enum_cap)
    return HybridResult(keyed, ideal, td,
                        float(exact.hybrid_bound(lam, ell, t, keys=num_keys)))


@dataclass(frozen=True)
class PrfsHybridResult:
    keyed: Operator
    ideal: Operator
    td: float
    bound: float
    exact_keys: bool
    keys_used: int


def prfs_hybrids(params: PseudoParams, queries,
                 cap: int = DEFAULT_DIM_CAP,
                 enum_cap: int = DEFAULT_ENUM_CAP) -> PrfsHybridResult:
    """Multi-query keyed output vs per-query-independent ideal.

    Repeated query values share one ideal Haar state, matching the selective
    security game.  The key average is exact over all 2^(2 m lambda') keys:
    the moment dephased by the mask of equal Q_{i,b} charges, so
    ``exact_keys`` is always true and ``keys_used`` is the key-space size.
    """
    lam, n, t = params.lam, params.n, params.t
    mults = params.ells if params.ells else (params.ell,)
    queries = tuple(PrfsInput(tuple(q)) for q in queries)
    if len(queries) != len(mults):
        raise ParameterError("need one query per copy count")
    if n < lam:
        raise ParameterError(f"need n >= lam', got n={n}, lam'={lam}")
    m_in = len(queries[0].bits)
    if any(len(q.bits) != m_in for q in queries):
        raise ParameterError("queries must share one input length")
    ell = sum(mults)
    offsets = np.cumsum((0,) + mults)
    blocks = [range(offsets[j], offsets[j + 1]) for j in range(len(queries))]
    # ideal side: one Haar moment per distinct query value, then shared copies
    groups: dict[tuple[int, ...], list[int]] = {}
    for regs, x in zip(blocks, queries):
        groups.setdefault(x.bits, []).extend(regs)
    keyed, ideal, td = _hybrid(2**n, n - lam, _query_charges(blocks, queries),
                               [*groups.values(), range(ell, ell + t)],
                               cap, enum_cap)
    return PrfsHybridResult(keyed, ideal, td, float(exact.hybrid_bound(lam, ell, t)),
                            True, 2 ** (2 * m_in * lam))


@dataclass(frozen=True)
class RankAttackResult:
    rank0: int
    rank1: int
    accept_pseudo: float
    accept_haar: float
    ratio_bound: float


def rank_attack(params: PseudoParams, cap: int = DEFAULT_DIM_CAP,
                enum_cap: int = DEFAULT_ENUM_CAP) -> RankAttackResult:
    """Support-projector distinguisher against a single-copy generator family.

    The measurement projects onto the numerical support of the keyed state
    and its acceptance of the ideal state is compared with rank0/rank1.
    A keyed state with an eigenvalue below -1e-8 raises ``NotPSD``; a
    failed eigensolve raises ``EigsFailed``.
    """
    lam, n, ell, t = params.lam, params.n, params.ell, params.t
    d = 2**n
    total = ell + t
    if n < lam:
        raise ParameterError(f"need n >= lam, got n={n}, lam={lam}")
    keyed = _keyed_state(d, total, n - lam, [range(ell)], cap, enum_cap)
    ideal = _ideal_state(d, [range(ell), range(ell, total)], cap, enum_cap)

    # clipped negatives never reach the support, so rank0 and accept_pseudo
    # are those of the unclipped spectrum
    system = _psd_eigh(keyed)
    vals0 = _ascending(vals for _, vals, _ in system)
    threshold = RANK_TOL * vals0.max()
    support = vals0 > threshold
    rank0 = int(support.sum())
    accept_pseudo = float(vals0[support].sum())
    # Tr(P rho1) = sum of v^H rho1 v over the support eigenvectors v, each
    # read on its own block's indices, where the ideal's entries are gathered
    # from its own blocks; a probability, so clip the round-off that can
    # carry it just past 1
    overlap = 0.0
    blocks = _gather(ideal, [idx for idx, _, _ in system])
    for (_, vals, vecs), block in zip(system, blocks):
        per_vector = np.real((vecs.conj() * (block @ vecs)).sum(axis=1))
        overlap += per_vector[vals > threshold].sum()
    accept_haar = float(np.clip(overlap, 0.0, 1.0))
    rank1 = numeric_rank(ideal)
    return RankAttackResult(rank0, rank1, accept_pseudo, accept_haar,
                            float(exact.rank_ratio_bound(lam, n, ell, t)))


def onewayness_quantity(n: int, m: int, cap: int = DEFAULT_DIM_CAP,
                        enum_cap: int = DEFAULT_ENUM_CAP) -> tuple[float, float]:
    """Average overlap of the phased moments against the inverse square root
    of their mixture; bounded by (m+1)/d for d = 2^n.

    The phased moments are D_x M D_x for the (m+1)-copy moment M and the
    phase D_x = (-1)^<x, first register>, x in [0, d).  Their mixture
    sigma = sum_x D_x M D_x is d times the keyed state with one key on the
    first register, which is zero between different first-register labels.
    Each D_x is constant on those label blocks, so it commutes with sigma
    and with s = sigma^(-1/2), and every x contributes the same
    Tr(D_x M D_x s D_x M D_x s) = Tr(M s M s).  s's blocks refine M's
    class blocks, so (M s)^2 is taken block by block: on each, M's block
    times s's entries there, squared.
    """
    if n < 1 or m < 0:
        raise ParameterError(f"need n >= 1 and m >= 0, got n={n}, m={m}")
    d = 2**n
    total = m + 1
    sigma = _keyed_state(d, total, 0, [(0,)], cap, enum_cap)
    s = pinv_sqrt(Operator(sigma.shape, blocks=[(idx, d * block)
                                                for idx, block in sigma.block_form]))
    moment = haar_moment(d, total, cap, enum_cap)
    # the diagonal of (M s)^2, summed in index order as np.trace sums it
    diagonal = np.empty(moment.dim)
    for idx, block in moment.block_form:
        ms = block @ _gather(s, [idx])[0]
        diagonal[idx] = np.diagonal(ms @ ms, axis1=1, axis2=2)
    return float(diagonal.sum()), float(exact.onewayness_bound(n, m))
