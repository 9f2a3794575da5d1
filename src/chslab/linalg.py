"""Dense linear algebra over explicitly shaped register systems.

Operators and states are stored as complex128.  An operator built from a
real array (a bool, integer or float dtype) is marked ``real``: its
Hermitian check runs on the float64 array, where |x - y| is the complex
|(x + 0j) - (y + 0j)| bit for bit, and only then is its one complex128
copy made.  Haar moments, label masks, ideal products and PPT blocks are
real in the computational basis, so the exact path builds all of them this
way, and partial trace, partial transpose and register permutation keep
the mark.  An operator flagged Hermitian is checked exactly when it is
built: the largest |m - m^H| is taken tile by tile, each tile on or above
the diagonal against the conjugate transpose of its mirror tile, so both
stay in cache; the maximum is the one-shot ``np.abs(m - m.conj().T).max()``
bit for bit, and a NaN or infinite entry fails the check.  The spectral
step (``trace_norm``, ``trace_distance``, ``fidelity``, ``pinv_sqrt``,
``numeric_rank``) reads a real operator's float64 view, and the difference
of two real operators is one contiguous float64 array; any other matrix
whose imaginary part is exactly zero is also handed to LAPACK's real
symmetric solver, which finds the same spectrum in a fraction of the
complex solver's time, and a matrix with any nonzero imaginary entry takes
the complex Hermitian solver.  The choice is read from the input, never
set by a flag.  Every exact-path eigensolve also reads the matrix's
exact zero pattern: above D = 64 it labels the connected components of the
pattern's lower triangle (the part LAPACK reads) and solves the blocks of
each size as one batched stack, since a matrix that is block diagonal up to
a permutation has the union of its blocks' spectra.  Keyed-minus-ideal
differences, Haar moments and PPT blocks are block diagonal by type: the
1024-square hybrid differences split into blocks of at most 18, and the
720-square PPT block at (d, t) = (10, 2) into 90 blocks of at most 8.  At
D <= 64, or with one component, the dense solve is as fast or faster and
takes the whole matrix.  The eigenvalues come back ascending and the
eigenvectors as one dense matrix in the same column order, as from a dense
solve.

Flat-index convention (fixed globally, documented only here): register 0
is the most significant digit of the flat index.  A basis label
``(i_0, ..., i_{r-1})`` on registers of dimensions ``(d_0, ..., d_{r-1})``
maps to the flat index ``i_0 * d_1 * ... * d_{r-1} + ... + i_{r-1}``.
This is numpy's C order, so ``np.kron(a, b)`` realises the tensor
product with ``a`` on the more significant registers.

Everything here is a pure function of its inputs; values are immutable
after construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod

import numpy as np

from .errors import (
    BadRegisterIndex,
    DimensionOverflow,
    EigsFailed,
    NotPSD,
    ParameterError,
    ShapeMismatch,
)

__all__ = [
    "DEFAULT_DIM_CAP",
    "RegisterShape",
    "StateVector",
    "Operator",
    "partial_trace",
    "partial_transpose",
    "permute_registers",
    "trace_norm",
    "trace_distance",
    "fidelity",
    "pinv_sqrt",
    "numeric_rank",
]

DEFAULT_DIM_CAP = 16384

NORM_TOL = 1e-10
HERM_TOL = 1e-10
PSD_TOL = 1e-8

# rows per tile of the Hermitian check: two 128-square complex tiles
# (256 KiB each) stay in L2 while their defect is taken
_HERM_TILE = 128

# flat dimension up to which a spectral solve takes the whole matrix; see
# _block_indices for the measurement
_BLOCK_MIN_DIM = 64


@dataclass(frozen=True)
class RegisterShape:
    """Ordered list of per-register dimensions; may be empty (scalar system)."""

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if any(d < 2 for d in self.dims):
            raise ShapeMismatch(f"register dimensions must be >= 2, got {self.dims}")

    @property
    def total(self) -> int:
        return prod(self.dims)

    def __len__(self) -> int:
        return len(self.dims)

    def check_cap(self, cap: int = DEFAULT_DIM_CAP) -> "RegisterShape":
        if self.total > cap:
            raise DimensionOverflow(f"flat dimension {self.total} exceeds cap {cap}")
        return self

    def validate_registers(self, regs) -> tuple[int, ...]:
        regs = tuple(sorted(set(int(r) for r in regs)))
        for r in regs:
            if not 0 <= r < len(self.dims):
                raise BadRegisterIndex(f"register {r} out of range for {self.dims}")
        return regs


@dataclass(frozen=True)
class StateVector:
    """Unit vector with an attached register shape."""

    shape: RegisterShape
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=np.complex128).reshape(-1)
        if amps.size != self.shape.total:
            raise ShapeMismatch(
                f"amplitude length {amps.size} != shape total {self.shape.total}"
            )
        nrm = np.linalg.norm(amps)
        if abs(nrm - 1.0) > NORM_TOL:
            raise ParameterError(f"state vector norm {nrm!r} is not 1 within {NORM_TOL}")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.shape.total

    def density(self) -> "Operator":
        return Operator(self.shape, np.outer(self.amplitudes, self.amplitudes.conj()),
                        hermitian_hint=True)


@dataclass(frozen=True)
class Operator:
    """Square complex matrix with an attached register shape.

    Entries are always stored as complex128.  ``real`` is derived, never
    passed: it is True when ``entries`` came in with a bool, integer or
    float dtype, and the spectral functions then read the float64 view
    ``entries.real``; other matrices are solved in real arithmetic when
    their imaginary part is exactly zero.  With ``hermitian_hint`` the
    entries must satisfy max |m - m^H| <= HERM_TOL, checked tile by tile
    (see :func:`_hermitian_defect`) on the float64 array of a real input,
    before its complex128 copy is made; a NaN or an infinite entry fails
    the check.
    """

    shape: RegisterShape
    entries: np.ndarray = field(repr=False)
    hermitian_hint: bool = False
    real: bool = field(init=False)

    def __post_init__(self) -> None:
        m = np.asarray(self.entries)
        real = m.dtype.kind in "biuf"
        m = m.astype(np.float64 if real else np.complex128, copy=False)
        n = self.shape.total
        if m.shape != (n, n):
            raise ShapeMismatch(f"entries shape {m.shape} != ({n}, {n})")
        if self.hermitian_hint:
            defect = _hermitian_defect(m)
            if not defect <= HERM_TOL:  # NaN compares False
                raise ParameterError(f"hermitian_hint set but defect {defect:.3e} > {HERM_TOL}")
        object.__setattr__(self, "entries", m.astype(np.complex128, copy=False))
        object.__setattr__(self, "real", real)

    @property
    def dim(self) -> int:
        return self.shape.total

    def trace(self) -> complex:
        return complex(np.trace(self.entries))


def _hermitian_defect(m: np.ndarray) -> float:
    """max |m - m^H| over all entries, equal bit for bit to
    ``np.abs(m - m.conj().T).max()``.

    Entry (r, c) and its mirror (c, r) have the same |defect|, so tiles on
    or above the diagonal cover every pair.  A NaN in any tile gives NaN.
    """
    n = len(m)
    if n <= _HERM_TILE:
        # One tile: the loop would give the same value but adds about 6 us
        # of slicing and list overhead, 2-3x the whole check at D <= 16.
        return float(np.abs(m - m.conj().T).max())
    t = _HERM_TILE
    tile_max = [np.abs(m[r:r + t, c:c + t] - m[c:c + t, r:r + t].conj().T).max()
                for r in range(0, n, t) for c in range(r, n, t)]
    return float(np.max(tile_max))  # np.max keeps a NaN; builtin max may drop it


def _as_legs(m: Operator) -> np.ndarray:
    """The entries as 2r legs; a real operator's are its float64 view, so
    the operators made from them are real too."""
    dims = m.shape.dims
    return (m.entries.real if m.real else m.entries).reshape(dims + dims)


def partial_trace(m: Operator, keep) -> Operator:
    """Trace out every register not listed in ``keep``."""
    keep = m.shape.validate_registers(keep)
    dims = m.shape.dims
    r = len(dims)
    legs = _as_legs(m)
    traced = [i for i in range(r) if i not in keep]
    for j, reg in enumerate(traced):
        # each completed trace removes one row and one column leg
        ax = reg - sum(1 for p in traced[:j] if p < reg)
        rows_left = r - j
        legs = np.trace(legs, axis1=ax, axis2=rows_left + ax)
    new_shape = RegisterShape(tuple(dims[i] for i in keep))
    n = new_shape.total
    return Operator(new_shape, legs.reshape(n, n), hermitian_hint=m.hermitian_hint)


def partial_transpose(m: Operator, over) -> Operator:
    """Transpose the listed tensor factors in the computational basis."""
    over = m.shape.validate_registers(over)
    dims = m.shape.dims
    r = len(dims)
    legs = _as_legs(m)
    axes = list(range(2 * r))
    for reg in over:
        axes[reg], axes[r + reg] = axes[r + reg], axes[reg]
    out = legs.transpose(axes).reshape(m.dim, m.dim)
    return Operator(m.shape, out, hermitian_hint=m.hermitian_hint)


def permute_registers(x, order):
    """Reorder registers; ``order[j]`` is the old index moved to slot ``j``."""
    order = tuple(int(i) for i in order)
    if sorted(order) != list(range(len(x.shape))):
        raise BadRegisterIndex(f"{order} is not a permutation of the registers")
    dims = x.shape.dims
    new_shape = RegisterShape(tuple(dims[i] for i in order))
    if isinstance(x, StateVector):
        arr = x.amplitudes.reshape(dims).transpose(order).reshape(-1)
        return StateVector(new_shape, arr)
    r = len(dims)
    axes = list(order) + [r + i for i in order]
    arr = _as_legs(x).transpose(axes).reshape(x.dim, x.dim)
    return Operator(new_shape, arr, hermitian_hint=x.hermitian_hint)


def _real_if_exact(m: np.ndarray) -> np.ndarray:
    """``m.real`` when a complex ``m`` has no nonzero imaginary entry, else ``m``."""
    if np.iscomplexobj(m) and not m.imag.any():
        return m.real
    return m


def _spectral_input(m: Operator) -> np.ndarray:
    """What the spectral step reads of ``m``: a real operator's float64 view
    with no imaginary scan, else its entries through :func:`_real_if_exact`."""
    return m.entries.real if m.real else _real_if_exact(m.entries)


def _component_roots(m: np.ndarray) -> np.ndarray:
    """Smallest index of each index's connected component in the graph with
    an edge i -- j wherever m[i, j] != 0 and i >= j.

    The lower triangle is what LAPACK reads of a Hermitian matrix; the
    diagonal tiles add a few upper entries, which can only merge
    components.  Min-label passes over row tiles: in each tile every row
    takes the smallest label among its nonzero columns and hands its own
    label to them, and the index a row or column is labelled with takes
    the same minimum; then every label is followed to its root.  Lowering
    the labels' own labels too is what keeps the pass count low on long
    chains: a randomly numbered 2048-path needs 6 passes, against 215 when
    only the rows and columns move.  A label only moves to an index of the
    same component, so a pass that changes nothing leaves each component
    on its smallest index.  A pass costs O(D^2); the zero pattern is kept
    as bool tiles, D^2/2 bytes in all, and no integer temporary is longer
    than D.
    """
    n = len(m)
    starts = range(0, n, _HERM_TILE)
    pattern = [m[r:r + _HERM_TILE, :r + _HERM_TILE] != 0 for r in starts]
    labels = np.arange(n)
    while True:
        before = labels.copy()
        for r, nz in zip(starts, pattern):
            rows, cols = np.arange(r, r + len(nz)), np.arange(nz.shape[1])
            pull = np.minimum.reduce(np.broadcast_to(labels[cols], nz.shape), axis=1,
                                     where=nz, initial=n)
            np.minimum.at(labels, labels[rows], pull)
            np.minimum.at(labels, rows, pull)
            push = np.minimum.reduce(np.broadcast_to(labels[rows][:, None], nz.shape),
                                     axis=0, where=nz, initial=n)
            np.minimum.at(labels, labels[cols], push)
            np.minimum.at(labels, cols, push)
        while not np.array_equal(roots := labels[labels], labels):
            labels = roots
        if np.array_equal(labels, before):
            return labels


def _block_indices(m: np.ndarray) -> list[np.ndarray] | None:
    """The components of ``m``'s exact zero pattern as ``(nblocks, s)`` index
    arrays, one per block size s, each row ascending; None when ``m`` is
    solved whole.

    Up to _BLOCK_MIN_DIM, or with one component, the whole matrix is
    solved.  Median times with one BLAS thread, dense solve against
    labelling plus batched blocks, over real and complex matrices made of
    blocks of 1, 6 or 24 in random order: at D = 64 0.07-0.44 ms against
    0.10-0.57 ms (dense faster in 5 of the 6 cases), at D = 96 0.15-1.05 ms
    against 0.10-0.71 ms (blocks faster in 5 of 6), at D = 128 0.32-2.0 ms
    against 0.19-0.92 ms, at D = 256 2.2-11.5 ms against 0.50-2.0 ms.
    """
    n = len(m)
    if n <= _BLOCK_MIN_DIM:
        return None
    roots = _component_roots(m)
    sizes = np.bincount(roots, minlength=n)
    root_sizes = sizes[sizes > 0]
    if len(root_sizes) == 1:
        return None
    # a stable sort keeps each component's indices ascending, so each block's
    # lower triangle, the one LAPACK reads, is a part of m's lower triangle
    members = np.argsort(roots, kind="stable")
    starts = np.cumsum(root_sizes) - root_sizes
    # the distinct sizes, ascending; np.unique would import numpy.ma on its
    # first call, 16 ms and 1.5 MB in a fresh process
    return [members[starts[root_sizes == s][:, None] + np.arange(s)]
            for s in np.flatnonzero(np.bincount(root_sizes))]


def _spectrum(m: np.ndarray, vectors: bool):
    """Ascending eigenvalues of the Hermitian ``m``, with the eigenvectors as
    the columns of a dense matrix in the same order when ``vectors``.

    A matrix whose exact zero pattern splits into components is a
    permutation of a block-diagonal matrix, so its spectrum is the union of
    its blocks' spectra; the blocks of one size go to the solver as one
    ``(nblocks, s, s)`` stack.
    """
    m = _real_if_exact(m)
    solve = np.linalg.eigh if vectors else np.linalg.eigvalsh
    groups = _block_indices(m)
    try:
        if groups is None:
            return solve(m)
        solved = [solve(m[idx[:, :, None], idx[:, None, :]]) for idx in groups]
    except np.linalg.LinAlgError as exc:
        raise EigsFailed(str(exc)) from exc
    vals = np.concatenate([(s[0] if vectors else s).ravel() for s in solved])
    order = np.argsort(vals, kind="stable")
    if not vectors:
        return vals[order]
    column = np.empty(len(vals), dtype=np.intp)
    column[order] = np.arange(len(vals))
    vecs = np.zeros(m.shape, dtype=solved[0][1].dtype)
    start = 0
    for idx, (_, block_vecs) in zip(groups, solved):
        cols = column[start:start + idx.size].reshape(idx.shape)
        vecs[idx[:, :, None], cols[:, None, :]] = block_vecs
        start += idx.size
    return vals[order], vecs


def _eigvalsh(m: np.ndarray) -> np.ndarray:
    return _spectrum(m, vectors=False)


def _trace_norm(m: np.ndarray, hermitian: bool) -> float:
    if hermitian:
        return float(np.abs(_eigvalsh(m)).sum())
    try:
        return float(np.linalg.svd(m, compute_uv=False).sum())
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise EigsFailed(str(exc)) from exc


def trace_norm(m: Operator) -> float:
    """Sum of singular values; via eigenvalues when flagged Hermitian."""
    return _trace_norm(_spectral_input(m), m.hermitian_hint)


def trace_distance(a: Operator, b: Operator) -> float:
    """Half the trace norm of the difference.

    The difference of two operators flagged Hermitian goes straight to the
    eigenvalue solver: both were checked when they were built.  Two real
    operators are subtracted in float64, which is the real part of their
    complex difference bit for bit.
    """
    if a.shape.dims != b.shape.dims:
        raise ShapeMismatch(f"shapes differ: {a.shape.dims} vs {b.shape.dims}")
    if a.real and b.real:
        diff = a.entries.real - b.entries.real
    else:
        diff = _real_if_exact(a.entries - b.entries)
    return 0.5 * _trace_norm(diff, a.hermitian_hint and b.hermitian_hint)


def _require_psd(vals: np.ndarray, tol: float) -> None:
    if vals.size and vals.min() < -tol:
        raise NotPSD(f"eigenvalue {vals.min():.3e} below -{tol}")


def _psd_eigh(m: np.ndarray, tol: float = PSD_TOL):
    vals, vecs = _spectrum(m, vectors=True)
    _require_psd(vals, tol)
    return np.clip(vals, 0.0, None), vecs


def fidelity(a: Operator, b: Operator) -> float:
    """Squared-trace fidelity (Tr sqrt(sqrt(a) b sqrt(a)))^2."""
    if a.shape.dims != b.shape.dims:
        raise ShapeMismatch(f"shapes differ: {a.shape.dims} vs {b.shape.dims}")
    avals, avecs = _psd_eigh(_spectral_input(a))
    b_entries = _spectral_input(b)
    _require_psd(_eigvalsh(b_entries), PSD_TOL)  # validate the second argument too
    sqrt_a = (avecs * np.sqrt(avals)) @ avecs.conj().T
    mid = sqrt_a @ b_entries @ sqrt_a
    mid = 0.5 * (mid + mid.conj().T)
    mvals = np.clip(_eigvalsh(mid), 0.0, None)
    return float(np.sqrt(mvals).sum() ** 2)


def pinv_sqrt(m: Operator, cutoff: float = 1e-10) -> Operator:
    """Inverse square root on the support; eigenvalues <= cutoff go to 0."""
    vals, vecs = _psd_eigh(_spectral_input(m))
    inv = np.where(vals > cutoff, 1.0 / np.sqrt(np.where(vals > cutoff, vals, 1.0)), 0.0)
    out = (vecs * inv) @ vecs.conj().T
    return Operator(m.shape, out, hermitian_hint=True)


def numeric_rank(m: Operator, rel_threshold: float = 1e-8) -> int:
    """Count of eigenvalues with |lam| > rel_threshold * max |lam|."""
    vals = np.abs(_eigvalsh(_spectral_input(m)))
    if vals.size == 0:
        return 0
    top = vals.max()
    if top == 0.0:
        return 0
    return int((vals > rel_threshold * top).sum())
