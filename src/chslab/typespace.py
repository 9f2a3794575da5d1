"""Multiset combinatorics over an index alphabet and their quantum lifts.

A "type" is a multiset over ``[0, d)`` with total multiplicity ``t``.  Its
lift ``|T>`` is the uniform superposition over all arrangements of the
multiset, living on ``t`` registers of dimension ``d``.  Type states form
an orthonormal basis of the symmetric subspace of ``(C^d)^{(x)t}``, whose
dimension is ``C(d+t-1, t)``; averaging the projectors ``|T><T|`` over a
uniform type reproduces the exact t-th moment of a Haar-random state.

Types are stored sparsely (index -> multiplicity); full vectors are only
materialised by :func:`type_state`.  The canonical ordering of types is
lexicographic on the sorted element tuple.  The flat indices of
``(C^d)^(x)t`` fall into one class per type, the arrangements of its
multiset (:func:`_type_classes`).  The symmetric projector and the Haar
moment are zero outside those classes' index pairs, so both are block
operators with one constant block per class: a 1024-square moment holds
2016 entries at (d, t) = (32, 2).  A product of independent moments is
constant on blocks too, one per tuple of class blocks, built from each
index's class labels by linalg's label constructor (:func:`_ideal_state`),
which alone chooses dense or blocks.  The dense scatter of the class
blocks stays as their oracle (:func:`_class_scatter`).

Good-type questions have one fold predicate, :func:`_fold_good`, which
tests arrays of element rows at once by pairwise scans over one contiguous
vector per ell-subset prefix XOR, and one sampler of uniform types,
the Polya urn: t draws from a Dirichlet(1,...,1) outcome law land on each
multiset with probability t! / (d (d+1) ... (d+t-1)) = 1 / C(d+t-1, t).
The urn has one draw primitive, :func:`_urn_draws`, one exact
bounded-integer call per draw, stored in the narrowest signed integer
type that holds them.  Its draws are never resolved into outcomes: the
good-type sampler and the collision tester in :mod:`chslab.locc` both
read a row as fresh (every draw k_j >= j) with distinct outcomes k_j - j,
and both test distinctness with one pairwise scan, :func:`_distinct`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

import numpy as np

from .errors import (
    EnumerationTooLarge,
    NotCollisionFree,
    ParameterError,
)
from .linalg import DEFAULT_DIM_CAP, Operator, RegisterShape, StateVector, \
    _block_labels, _label_blocks, _label_groups
from .rng import stream_rng

__all__ = [
    "DEFAULT_ENUM_CAP",
    "TypeVector",
    "PrefixParams",
    "Bipartition",
    "GoodTypeProbability",
    "enumerate_types",
    "arrangements",
    "type_state",
    "sym_projector",
    "permutation_symmetrizer",
    "haar_moment",
    "sample_haar",
    "haar_states_block",
    "is_l_fold_prefix_collision_free",
    "prob_good_type",
    "type_bipartition",
]

DEFAULT_ENUM_CAP = 10**6
_CHUNK = 65536  # rows handed to the fold predicate at once


@dataclass(frozen=True)
class TypeVector:
    """Sparse multiset over ``[0, alphabet_dim)``."""

    alphabet_dim: int
    items: tuple[tuple[int, int], ...]  # sorted (index, multiplicity), no zeros

    def __post_init__(self) -> None:
        items = tuple(sorted((int(i), int(c)) for i, c in self.items))
        if any(c < 1 for _, c in items):
            raise ParameterError("multiplicities must be >= 1")
        if any(not 0 <= i < self.alphabet_dim for i, _ in items):
            raise ParameterError(f"index out of range for alphabet {self.alphabet_dim}")
        if len({i for i, _ in items}) != len(items):
            raise ParameterError("duplicate index in sparse type")
        object.__setattr__(self, "items", items)

    @classmethod
    def from_elements(cls, alphabet_dim: int, elements) -> "TypeVector":
        counts: dict[int, int] = {}
        for e in elements:
            counts[int(e)] = counts.get(int(e), 0) + 1
        return cls(alphabet_dim, tuple(counts.items()))

    @property
    def counts(self) -> dict[int, int]:
        return dict(self.items)

    @property
    def total(self) -> int:
        return sum(c for _, c in self.items)

    def elements(self) -> tuple[int, ...]:
        """Sorted element tuple with multiplicity."""
        return tuple(i for i, c in self.items for _ in range(c))

    def collision_free(self) -> bool:
        return all(c == 1 for _, c in self.items)

    def remove(self, other: "TypeVector") -> "TypeVector":
        counts = self.counts
        for i, c in other.items:
            if counts.get(i, 0) < c:
                raise ParameterError("not a sub-multiset")
            counts[i] -= c
            if counts[i] == 0:
                del counts[i]
        return TypeVector(self.alphabet_dim, tuple(counts.items()))


@dataclass(frozen=True)
class PrefixParams:
    """Bit-split of the index alphabet plus the fold and total-size parameters.

    ``n`` is the prefix bit length, ``m`` the suffix bit length; indices live
    in ``[0, 2^(n+m))`` and the prefix of ``x`` is ``x >> m``.  ``ell`` is the
    fold parameter and ``t`` the total multiplicity of the types considered.
    """

    n: int
    m: int
    ell: int
    t: int

    def __post_init__(self) -> None:
        if self.n < 1 or self.m < 0:
            raise ParameterError(f"need n >= 1 and m >= 0, got n={self.n}, m={self.m}")
        if not 1 <= self.ell <= self.t:
            raise ParameterError(f"need 1 <= ell <= t, got ell={self.ell}, t={self.t}")

    @property
    def alphabet_dim(self) -> int:
        return 2 ** (self.n + self.m)

    def prefix_of(self, index: int) -> int:
        return index >> self.m


def _type_rows(d: int, t: int, enum_cap: int):
    """(C(d+t-1, t), an iterator over the sorted element tuples of the types
    over [0, d) in lexicographic order); the count is checked against the
    cap before any tuple is made."""
    if d < 1 or t < 0:
        raise ParameterError(f"bad alphabet/total: d={d}, t={t}")
    count = comb(d + t - 1, t)
    if count > enum_cap:
        raise EnumerationTooLarge(f"{count} types exceeds cap {enum_cap}")
    return count, itertools.combinations_with_replacement(range(d), t)


def enumerate_types(d: int, t: int, enum_cap: int = DEFAULT_ENUM_CAP) -> list[TypeVector]:
    """All C(d+t-1, t) types over [0, d), in lexicographic element order."""
    _, rows = _type_rows(d, t, enum_cap)
    return [TypeVector.from_elements(d, row) for row in rows]


def arrangements(elements: tuple[int, ...]):
    """Distinct permutations of a multiset, lexicographic order."""
    elements = tuple(elements)
    if not elements:
        yield ()
        return
    seen = set()
    for i, e in enumerate(elements):
        if e in seen:
            continue
        seen.add(e)
        for rest in arrangements(elements[:i] + elements[i + 1:]):
            yield (e,) + rest


def _flat_index(arrangement: tuple[int, ...], d: int) -> int:
    idx = 0
    for v in arrangement:
        idx = idx * d + v
    return idx


def type_state(T: TypeVector, cap: int = DEFAULT_DIM_CAP) -> StateVector:
    """Uniform superposition over all arrangements of the multiset."""
    d, t = T.alphabet_dim, T.total
    shape = RegisterShape((d,) * t).check_cap(cap)
    amp = 1.0
    for _, c in T.items:
        amp *= factorial(c)
    amp = np.sqrt(amp / factorial(t))
    amps = np.zeros(shape.total, dtype=np.complex128)
    for arr in arrangements(T.elements()):
        amps[_flat_index(arr, d)] = amp
    return StateVector(shape, amps)


def _type_classes(d: int, t: int, cap: int, enum_cap: int) -> list[np.ndarray]:
    """The flat indices of (C^d)^(x)t grouped by type, one class per type:
    ``(nclasses, s)`` arrays, one per class size s, each row the ascending
    flat indices of the arrangements of one type.

    d, t and the type count are checked against ``enum_cap`` and the flat
    dimension against ``cap`` before any index is made.
    """
    _type_rows(d, t, enum_cap)
    dim = RegisterShape((d,) * t).check_cap(cap).total
    # a type's label is its sorted digit tuple read in base d
    powers = d ** np.arange(t, dtype=np.int64)
    digits = np.sort(np.arange(dim, dtype=np.int64)[:, None] // powers % d, axis=1)
    return _label_groups(digits @ powers)


def _class_blocks(d: int, t: int, cap: int, enum_cap: int, divisor: int) -> list:
    """The block form with one constant block per type class, of value
    (1/|class|)/divisor: the matrix with that value at (r, s) when the basis
    labels r and s are arrangements of the same type, 0 elsewhere."""
    return [(idx, np.full(idx.shape + idx.shape[1:], 1.0 / idx.shape[1] / divisor))
            for idx in _type_classes(d, t, cap, enum_cap)]


def _class_scatter(d: int, t: int, cap: int, enum_cap: int, divisor: int) -> np.ndarray:
    """The dense matrix of :func:`_class_blocks`, scattered over each
    class's |class|^2 index pairs into a zero matrix: the oracle the
    builders' blocks are checked against."""
    out = np.zeros((d**t,) * 2)
    for idx in _type_classes(d, t, cap, enum_cap):
        out[idx[:, :, None], idx[:, None, :]] = 1.0 / idx.shape[1] / divisor
    return out


def sym_projector(d: int, t: int, cap: int = DEFAULT_DIM_CAP,
                  enum_cap: int = DEFAULT_ENUM_CAP) -> Operator:
    """Projector onto the permutation-invariant subspace of (C^d)^(x)t.

    Its entry at (r, s) is 1/|class| when the basis labels r and s are
    arrangements of the same type and 0 otherwise: the sum of |T><T| over
    types, a block operator with one block per type class.
    """
    return Operator(RegisterShape((d,) * t), blocks=_class_blocks(d, t, cap, enum_cap, 1))


def permutation_symmetrizer(d: int, t: int, cap: int = DEFAULT_DIM_CAP) -> Operator:
    """The same projector built from the other direction: the group average
    of register-permutation operators.  Independent of the type-state route,
    so the two constructions can be checked against each other."""
    shape = RegisterShape((d,) * t).check_cap(cap)
    dim = shape.total
    idx = np.arange(dim)
    digits = [(idx // d ** (t - 1 - j)) % d for j in range(t)]
    out = np.zeros((dim, dim))
    for sigma in itertools.permutations(range(t)):
        dest = sum((digits[sigma[j]] * d ** (t - 1 - j) for j in range(t)),
                   start=np.zeros(dim, dtype=np.int64))
        out[dest, idx] += 1.0
    return Operator(shape, out / factorial(t))


def haar_moment(d: int, t: int, cap: int = DEFAULT_DIM_CAP,
                enum_cap: int = DEFAULT_ENUM_CAP) -> Operator:
    """Exact t-th moment of the projector onto a Haar-random state in C^d:
    the type-class projector :func:`sym_projector` over C(d+t-1, t), a
    real block operator with one constant block per type class, of value
    (1/|class|)/C(d+t-1, t) divided in float64."""
    count, _ = _type_rows(d, t, enum_cap)  # validates d and t first
    return Operator(RegisterShape((d,) * t), blocks=_class_blocks(d, t, cap, enum_cap, count))


def _ideal_state(d: int, groups, cap: int, enum_cap: int) -> Operator:
    """One independent Haar moment per register group: their tensor
    product, a real block operator with constant blocks.

    An index's block is the tuple of the class blocks it meets in each
    group's moment, read at the digits of that group's registers in the
    order the group lists them, and its value is the product of their
    values, left to right in group order as ``np.kron`` takes it.
    """
    groups = [np.asarray(regs) for regs in groups if len(regs)]
    shape = RegisterShape((d,) * sum(map(len, groups))).check_cap(cap)
    flat = np.arange(shape.total)
    labels, values = np.zeros(shape.total, dtype=np.intp), np.ones(shape.total)
    for regs in groups:
        # register r is digit len(shape) - 1 - r of a flat index, in base d
        digits = flat[:, None] // d ** (len(shape) - 1 - regs) % d
        at = digits @ d ** np.arange(len(regs))[::-1]
        block, value = _block_labels(haar_moment(d, len(regs), cap, enum_cap))
        # block labels are indices below d^len(regs), so the code stays below D
        labels = labels * d ** len(regs) + block[at]
        values = values * value[at]
    return Operator(shape, blocks=_label_blocks(labels, values))


def haar_states_block(d: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` Haar states as rows of a (count, d) array: all real parts
    drawn first, then all imaginary parts, through one float64 buffer into
    one complex128 array, which is normalised in place.

    Each row's squared norm is formed as re*re + im*im by separate float64
    multiplies and an add on the array's float64 view, then summed along
    the row, and both parts are multiplied by 1/norm.  ``np.linalg.norm``
    forms |z|^2 by a complex multiply, which numpy's AVX2 and AVX-512 loops
    evaluate as fma(re, re, im*im), so its last bit depended on the CPU
    features numpy dispatched to; these ufuncs round the same everywhere.
    """
    z = np.empty((count, d), dtype=np.complex128)
    part = rng.standard_normal((count, d))
    z.real = part
    z.imag = rng.standard_normal(out=part)
    parts = z.view(np.float64)
    re, im = parts[:, 0::2], parts[:, 1::2]
    square = np.multiply(re, re, out=part)
    square += im * im
    # numpy's row reduction adds a row shorter than its 8-way unrolled
    # pairwise block left to right onto 0.0, so below d = 8 the columns
    # added in that order give its bits without the strided reduction
    norm = sum(square.T[1:], square[:, 0]) if d < 8 else square.sum(axis=1)
    parts *= (1.0 / np.sqrt(norm))[:, None]
    return z


def sample_haar(d: int, seed: int, stream: int = 0) -> StateVector:
    """One Haar-random state in C^d, deterministic per (seed, stream)."""
    amps = haar_states_block(d, 1, stream_rng(seed, stream))[0]
    return StateVector(RegisterShape((d,)), amps)


def _urn_draws(rows: int, d: int, draws: int,
               rng: np.random.Generator) -> np.ndarray:
    """The raw Polya-urn draws of ``rows`` fresh Haar states, ``draws`` copies
    each, as a (draws, rows) array: row j holds k uniform in [0, d + j),
    drawn by one exact bounded-integer call per draw and stored in the
    narrowest signed type that holds [-draws, d + draws), so row j minus j
    stays in it: int8 while d + draws <= 128."""
    ks = np.empty((draws, rows), dtype=np.min_scalar_type(-(d + draws)))
    for j in range(draws):
        ks[j] = rng.integers(0, d + j, size=rows)
    return ks


def _distinct(vectors, ok: np.ndarray, first: int = 0) -> np.ndarray:
    """AND into ``ok``, entry by entry, that every vector from ``first`` on
    differs from every vector before it, by one ``!=`` scan of two
    contiguous vectors per pair; ``ok`` is returned."""
    for j in range(first, len(vectors)):
        for i in range(j):
            ok &= vectors[i] != vectors[j]
    return ok


def _fold_good(rows: np.ndarray, m: int, ell: int) -> np.ndarray:
    """Per row of elements: True iff all position ell-subsets have pairwise
    distinct prefix XORs (the prefix of e is e >> m).

    Two subsets drawing equal elements from different positions share a XOR,
    so any repeated element rules the type out whenever ell < t; this is the
    reading under which the fold condition implies plain collision-freeness.
    The answer does not depend on the order of a row.  The prefixes are
    transposed into one contiguous vector per position, in the rows' own
    integer type, each fold is the XOR of its ell position vectors, and the
    verdict is the pairwise ``!=`` scan :func:`_distinct` over the folds.
    """
    prefixes = np.right_shift(rows.T, m, order="C")
    folds = []
    for combo in itertools.combinations(range(len(prefixes)), ell):
        fold = prefixes[combo[0]].copy()
        for i in combo[1:]:
            fold ^= prefixes[i]
        folds.append(fold)
    return _distinct(folds, np.ones(rows.shape[0], dtype=bool))


def is_l_fold_prefix_collision_free(T: TypeVector, p: PrefixParams,
                                    enum_cap: int = DEFAULT_ENUM_CAP) -> bool:
    """Whether every fold of ``ell`` elements of T has a unique n-bit prefix XOR."""
    if T.alphabet_dim != p.alphabet_dim:
        raise ParameterError(
            f"alphabet {T.alphabet_dim} != 2^(n+m) = {p.alphabet_dim}")
    if T.total != p.t:
        raise ParameterError(f"type total {T.total} != params t={p.t}")
    if comb(T.total, p.ell) ** 2 > enum_cap:
        raise EnumerationTooLarge(
            f"C({T.total},{p.ell})^2 exceeds cap {enum_cap}")
    return bool(_fold_good(np.array([T.elements()], dtype=np.int64), p.m, p.ell)[0])


@dataclass(frozen=True)
class GoodTypeProbability:
    exact: Fraction
    mc_estimate: float | None
    mc_stderr: float | None
    trials: int


def _good_count(p: PrefixParams, count: int) -> int:
    """How many of the ``count`` types of total t pass the fold predicate.

    When ell = t there is one fold, so every type passes.  When ell < t,
    two elements with equal prefixes can be swapped between two ell-subsets
    that share their XOR, so a good type has t distinct prefixes; the
    predicate reads only the prefixes, and each passing t-set of prefixes
    is good with any of the 2^(m t) suffix choices.  Only the C(2^n, t)
    prefix sets go through :func:`_fold_good`, ``_CHUNK`` rows at a time.
    """
    if p.ell == p.t:
        return count
    sets = comb(2**p.n, p.t)
    prefixes = itertools.combinations(range(2**p.n), p.t)
    passing = 0
    for first in range(0, sets, _CHUNK):
        rows = min(_CHUNK, sets - first)
        chunk = np.fromiter(itertools.chain.from_iterable(itertools.islice(prefixes, rows)),
                            dtype=np.int64, count=rows * p.t).reshape(rows, p.t)
        passing += int(_fold_good(chunk, 0, p.ell).sum())
    return passing * 2 ** (p.m * p.t)


def prob_good_type(p: PrefixParams, trials: int = 0, seed: int = 0, stream: int = 0,
                   enum_cap: int = DEFAULT_ENUM_CAP) -> GoodTypeProbability:
    """Probability that a uniform type of total t passes the fold predicate.

    The exact branch counts the passing types (:func:`_good_count`) over
    all C(2^(n+m)+t-1, t) of them; that count is checked against
    ``enum_cap`` first and raises EnumerationTooLarge past it.  When
    ``trials`` > 0 a Monte Carlo estimate over uniform types drawn by the
    Polya urn (:func:`_urn_draws`, ``_CHUNK`` trials at a time) is
    attached, with its binomial standard error.  When ell < t a repeated
    element fails the predicate, so a trial hits iff every draw is fresh
    (k_j >= j) and the outcomes k_j - j pass :func:`_fold_good`; when
    ell = t every trial hits and nothing is drawn.
    """
    d, t = p.alphabet_dim, p.t
    count, _ = _type_rows(d, t, enum_cap)
    exact = Fraction(_good_count(p, count), count)
    if trials <= 0:
        return GoodTypeProbability(exact, None, None, 0)
    hits = trials if p.ell == t else 0
    if p.ell < t:
        rng = stream_rng(seed, stream)
        for first in range(0, trials, _CHUNK):
            ks = _urn_draws(min(_CHUNK, trials - first), d, t, rng)
            ks -= np.arange(t, dtype=ks.dtype)[:, None]
            fresh = (ks >= 0).all(axis=0)
            hits += int(np.count_nonzero(fresh & _fold_good(ks.T, p.m, p.ell)))
    est = hits / trials
    stderr = float(np.sqrt(est * (1.0 - est) / trials))
    return GoodTypeProbability(exact, est, stderr, trials)


@dataclass(frozen=True)
class Bipartition:
    coefficient: float
    pairs: tuple[tuple[TypeVector, TypeVector], ...]


def type_bipartition(T: TypeVector, x: int) -> Bipartition:
    """Split |T> across the first x registers: uniform over x-subsets.

    Only defined for collision-free types; reconstructing
    sum coeff |X> (x) |T\\X| reproduces ``type_state(T)`` entrywise.
    """
    if not T.collision_free():
        raise NotCollisionFree(f"type {T.items} has repeated elements")
    if not 0 <= x <= T.total:
        raise ParameterError(f"need 0 <= x <= {T.total}, got {x}")
    elems = T.elements()
    pairs = []
    for sub in itertools.combinations(elems, x):
        left = TypeVector.from_elements(T.alphabet_dim, sub)
        pairs.append((left, T.remove(left)))
    return Bipartition(1.0 / np.sqrt(comb(T.total, x)), tuple(pairs))
