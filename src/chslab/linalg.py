"""Dense linear algebra over explicitly shaped register systems.

States are stored as complex128.  An operator built from a real array (a
bool, integer or float dtype) is marked ``real`` and stores its float64
array; any other operator stores its complex128 array.  The Hermitian check
runs on the stored array, where for a real one |x - y| is the complex
|(x + 0j) - (y + 0j)| bit for bit.  Code outside this module reads an
operator's numbers through ``Operator.values``: the float64 array of a real
operator, ``entries`` otherwise, so how an operator is stored is decided
here alone.  ``Operator.entries`` is always complex128; a real operator
makes that copy only when ``entries`` is first read, and the copy replaces
its float64 array, so no library path makes it.  Haar moments, label masks,
ideal products and PPT blocks are real in the computational basis, so the
exact path builds all of them this way, and partial trace, partial
transpose and register permutation, which reshape ``values``, keep the
mark.  Every operator is Hermitian, checked exactly when it is built: the
largest |m - m^H| is taken tile by tile, each tile on or above the
diagonal against the conjugate transpose of its mirror tile, so both stay
in cache; the maximum is the one-shot
``np.abs(m - m.conj().T).max()`` bit for bit, and a NaN or infinite entry
fails the check.  The spectral step (``trace_norm``, ``trace_distance``,
``fidelity``, ``pinv_sqrt``, ``numeric_rank``) is an eigensolve on
``values``; the trace norm is the sum of |eigenvalues|.  The difference of
two real operators is taken in float64, and any other matrix whose
imaginary part is exactly zero is also handed to LAPACK's real symmetric
solver, which finds the same spectrum in a fraction of the complex
solver's time; a matrix with any nonzero imaginary entry takes the complex
Hermitian solver.  The choice is read from the input, never set by a flag,
and made once for the whole matrix.  Every exact-path eigensolve also
reads the matrix's exact zero pattern: above D = 64 it labels the
connected components of the pattern's lower triangle (the part LAPACK
reads) and solves the blocks of each size as one batched stack, since a
matrix that is block diagonal up to a permutation has the union of its
blocks' spectra.  Keyed-minus-ideal differences, Haar moments and PPT
blocks are block diagonal by type: the 1024-square hybrid differences
split into blocks of at most 18, and the 720-square PPT block at
(d, t) = (10, 2) into 90 blocks of at most 8.  At D <= 64, or with one
component, the dense solve is as fast or faster and takes the whole
matrix.  The spectral step stays in those blocks.  ``trace_distance``
never forms the D x D difference a - b: it reads the difference's zero
pattern as ``a != b`` and gathers each block as ``a[idx] - b[idx]``, the
same floats.  The eigenvalues come back ascending; the eigenvectors come
back per block, as a block eigensystem (see ``_spectrum``), so no D x D
eigenvector matrix is formed: ``pinv_sqrt`` builds its output block by
block, and only ``fidelity`` assembles the dense eigenvector matrix
(``_dense_eigh``).

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

from dataclasses import InitVar, dataclass, field
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
RANK_TOL = 1e-8

# rows per tile of the Hermitian check: two 128-square complex tiles
# (256 KiB each) stay in L2 while their defect is taken
_HERM_TILE = 128

# flat dimension up to which a spectral solve takes the whole matrix; see
# _block_indices for the measurement
_BLOCK_MIN_DIM = 64

# eigenvalues at or below this many D*eps times the largest are taken as the
# eigensolver's rounding noise by fidelity; on null spaces of rank-deficient
# densities (D = 4 to 1024) that noise stayed below 0.6*D*eps*max
_NOISE_FLOOR = 4.0


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
        return Operator(self.shape, np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class Operator:
    """Hermitian matrix ``m`` with an attached register shape.

    ``real`` is derived, never passed: it is True when ``m`` came in with a
    bool, integer or float dtype.  A real operator stores its float64 array
    and any other its complex128 array; an ``m`` already of that dtype is
    stored without a copy, so its owner must not write to it afterwards.
    :attr:`values` is how the operator's numbers are read.
    :attr:`entries` is always complex128: on its first read a real operator
    makes its complex128 copy, which then replaces the float64 array, so
    ``values`` reads the copy's real part, the same bytes.  ``m`` must
    satisfy max |m - m^H| <= HERM_TOL, checked tile by tile (see
    :func:`_hermitian_defect`) before it is stored; a NaN or an infinite
    entry fails the check.  Two threads that first read ``entries`` at once
    may each make the copy; both copies hold the same bytes.
    """

    shape: RegisterShape
    m: InitVar[np.ndarray]
    real: bool = field(init=False)
    _stored: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, m) -> None:
        m = np.asarray(m)
        real = m.dtype.kind in "biuf"
        m = m.astype(np.float64 if real else np.complex128, copy=False)
        n = self.shape.total
        if m.shape != (n, n):
            raise ShapeMismatch(f"entries shape {m.shape} != ({n}, {n})")
        defect = _hermitian_defect(m)
        if not defect <= HERM_TOL:  # NaN compares False
            raise ParameterError(f"not Hermitian: defect {defect:.3e} > {HERM_TOL}")
        object.__setattr__(self, "_stored", m)
        object.__setattr__(self, "real", real)

    @property
    def dim(self) -> int:
        return self.shape.total

    @property
    def entries(self) -> np.ndarray:
        """The complex128 matrix, made from a real operator's float64 array
        on the first read, which it replaces."""
        if self._stored.dtype != np.complex128:
            object.__setattr__(self, "_stored", self._stored.astype(np.complex128))
        return self._stored

    @property
    def values(self) -> np.ndarray:
        """The float64 array of a real operator (the real part of
        ``entries`` once that was read), else ``entries``."""
        return self._stored.real if self.real else self._stored

    def trace(self) -> complex:
        return complex(np.trace(self.values))


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


def partial_trace(m: Operator, keep) -> Operator:
    """Trace out every register not listed in ``keep``."""
    keep = m.shape.validate_registers(keep)
    dims = m.shape.dims
    r = len(dims)
    legs = m.values.reshape(dims + dims)
    traced = [i for i in range(r) if i not in keep]
    for j, reg in enumerate(traced):
        # each completed trace removes one row and one column leg
        ax = reg - sum(1 for p in traced[:j] if p < reg)
        rows_left = r - j
        legs = np.trace(legs, axis1=ax, axis2=rows_left + ax)
    new_shape = RegisterShape(tuple(dims[i] for i in keep))
    n = new_shape.total
    return Operator(new_shape, legs.reshape(n, n))


def partial_transpose(m: Operator, over) -> Operator:
    """Transpose the listed tensor factors in the computational basis."""
    over = m.shape.validate_registers(over)
    dims = m.shape.dims
    r = len(dims)
    legs = m.values.reshape(dims + dims)
    axes = list(range(2 * r))
    for reg in over:
        axes[reg], axes[r + reg] = axes[r + reg], axes[reg]
    out = legs.transpose(axes).reshape(m.dim, m.dim)
    return Operator(m.shape, out)


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
    arr = x.values.reshape(dims + dims).transpose(axes).reshape(x.dim, x.dim)
    return Operator(new_shape, arr)


def _real_if_exact(m: np.ndarray) -> np.ndarray:
    """``m.real`` when a complex ``m`` has no nonzero imaginary entry, else ``m``."""
    if np.iscomplexobj(m) and not m.imag.any():
        return m.real
    return m


def _real_pair_if_exact(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(a.real, b.real)`` when ``a - b`` has no nonzero imaginary entry,
    else ``(a, b)``, found without forming ``a - b``.  The real part of
    a - b is a.real - b.real bit for bit, so this is the choice
    ``_real_if_exact`` makes on the difference."""
    imag = [m.imag for m in (a, b) if np.iscomplexobj(m)]
    if len(imag) == 2:
        differs = (imag[0] != imag[1]).any()
    else:
        differs = bool(imag) and imag[0].any()
    return (a, b) if differs else (a.real, b.real)


def _component_roots(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Smallest index of each index's connected component in the graph with
    an edge i -- j wherever (a - b)[i, j] != 0, or a[i, j] != 0 when ``b``
    is None, and i >= j.

    The pattern is read as ``a != b``, which for finite entries is exactly
    the zero pattern of a - b, so the difference is never formed.  The
    lower triangle is what LAPACK reads of a Hermitian matrix; the
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
    n, t = len(a), _HERM_TILE
    starts = range(0, n, t)
    pattern = [a[r:r + t, :r + t] != (0 if b is None else b[r:r + t, :r + t])
               for r in starts]
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


def _block_indices(a: np.ndarray, b: np.ndarray | None = None) -> list[np.ndarray] | None:
    """The components of the exact zero pattern of ``a - b`` (of ``a`` when
    ``b`` is None) as ``(nblocks, s)`` index arrays, one per block size s,
    each row ascending; None when the matrix is solved whole.

    Up to _BLOCK_MIN_DIM, or with one component, the whole matrix is
    solved.  Median times with one BLAS thread, dense solve against
    labelling plus batched blocks, over real and complex matrices made of
    blocks of 1, 6 or 24 in random order: at D = 64 0.07-0.44 ms against
    0.10-0.57 ms (dense faster in 5 of the 6 cases), at D = 96 0.15-1.05 ms
    against 0.10-0.71 ms (blocks faster in 5 of 6), at D = 128 0.32-2.0 ms
    against 0.19-0.92 ms, at D = 256 2.2-11.5 ms against 0.50-2.0 ms.
    """
    if len(a) <= _BLOCK_MIN_DIM:
        return None
    # each block's rows ascend, so its lower triangle, the one LAPACK reads,
    # is a part of the matrix's lower triangle
    groups = _label_groups(_component_roots(a, b))
    if len(groups) == 1 and len(groups[0]) == 1:
        return None
    return groups


def _label_groups(labels: np.ndarray) -> list[np.ndarray]:
    """The indices of each distinct value of the nonnegative integer
    ``labels`` as ``(ngroups, s)`` arrays, one per group size s, sizes
    ascending; each row ascends, and the rows of one array follow their
    label values."""
    sizes = np.bincount(labels)
    group_sizes = sizes[sizes > 0]
    # a stable sort keeps each group's indices ascending
    members = np.argsort(labels, kind="stable")
    starts = np.cumsum(group_sizes) - group_sizes
    # the distinct sizes, ascending; np.unique would import numpy.ma on its
    # first call, 16 ms and 1.5 MB in a fresh process
    return [members[starts[group_sizes == s][:, None] + np.arange(s)]
            for s in np.flatnonzero(np.bincount(group_sizes))]


def _spectrum(a: np.ndarray, b: np.ndarray | None = None, vectors: bool = False):
    """Eigensystem of the Hermitian ``a - b``, or of ``a`` when ``b`` is
    None.  Without ``vectors``: the eigenvalues, ascending.  With
    ``vectors``: the block eigensystem, a list of ``(idx, vals, vecs)``,
    one per block size s: ``idx`` the ``(nblocks, s)`` indices of each
    block, ``vals`` its ``(nblocks, s)`` eigenvalues, each row ascending,
    and ``vecs`` the ``(nblocks, s, s)`` eigenvectors, column j of block k
    the one of ``vals[k, j]`` on the indices ``idx[k]``.  A matrix solved
    whole is one block on all its indices.

    A matrix whose exact zero pattern splits into components is a
    permutation of a block-diagonal matrix, so its spectrum is the union of
    its blocks' spectra; the blocks of one size go to the solver as one
    ``(nblocks, s, s)`` stack, gathered as ``a[idx] - b[idx]``, one
    subtraction per entry, so each block holds the dense difference's
    floats.  Neither the D x D difference nor a D x D eigenvector matrix
    is formed; only a matrix solved whole (D <= 64, or one component) is
    handed to the solver as one D x D array.
    """
    if b is None:
        a = _real_if_exact(a)
    else:
        a, b = _real_pair_if_exact(a, b)
    solve = np.linalg.eigh if vectors else np.linalg.eigvalsh
    groups = _block_indices(a, b)
    try:
        if groups is None:
            solved = solve(a if b is None else a - b)
            if not vectors:
                return solved
            return [(np.arange(len(a))[None], solved[0][None], solved[1][None])]
        solved = []
        for idx in groups:
            rows, cols = idx[:, :, None], idx[:, None, :]
            solved.append(solve(a[rows, cols] if b is None
                                else a[rows, cols] - b[rows, cols]))
    except np.linalg.LinAlgError as exc:
        raise EigsFailed(str(exc)) from exc
    if not vectors:
        return _ascending(solved)
    return [(idx, vals, vecs) for idx, (vals, vecs) in zip(groups, solved)]


def _ascending(blocks) -> np.ndarray:
    """The eigenvalue arrays ``blocks`` concatenated and sorted ascending."""
    return np.sort(np.concatenate([vals.ravel() for vals in blocks]), kind="stable")


def trace_norm(m: Operator) -> float:
    """Sum of |eigenvalues|, the sum of singular values of a Hermitian matrix."""
    return float(np.abs(_spectrum(m.values)).sum())


def trace_distance(a: Operator, b: Operator) -> float:
    """Half the trace norm of the difference.

    The difference of two operators is Hermitian, since both were checked
    when they were built, so it goes straight to the eigenvalue solver.
    The D x D difference is never formed: its zero pattern is read as
    ``a != b`` and each block gathered as ``a[idx] - b[idx]`` (see
    :func:`_spectrum`), so the spectrum is the one of the dense
    difference bit for bit.  The difference of two real operators is
    float64, the real part of their complex difference bit for bit.
    """
    if a.shape.dims != b.shape.dims:
        raise ShapeMismatch(f"shapes differ: {a.shape.dims} vs {b.shape.dims}")
    return 0.5 * float(np.abs(_spectrum(a.values, b.values)).sum())


def _require_psd(vals: np.ndarray, tol: float) -> None:
    if vals.size and vals.min() < -tol:
        raise NotPSD(f"eigenvalue {vals.min():.3e} below -{tol}")


def _psd_eigh(m: np.ndarray, tol: float = PSD_TOL) -> list[tuple]:
    """The block eigensystem of :func:`_spectrum` with every eigenvalue
    clipped at 0; ``NotPSD`` when one lies below ``-tol``."""
    system = _spectrum(m, vectors=True)
    _require_psd(_ascending(vals for _, vals, _ in system), tol)
    return [(idx, np.clip(vals, 0.0, None), vecs) for idx, vals, vecs in system]


def _dense_eigh(system: list[tuple]) -> tuple[np.ndarray, np.ndarray]:
    """The ascending eigenvalues of a block eigensystem and its eigenvectors
    as the columns of one dense matrix in the same order."""
    vals = np.concatenate([block_vals.ravel() for _, block_vals, _ in system])
    order = np.argsort(vals, kind="stable")
    column = np.empty(len(vals), dtype=np.intp)
    column[order] = np.arange(len(vals))
    vecs = np.zeros((len(vals), len(vals)), dtype=system[0][2].dtype)
    start = 0
    for idx, _, block_vecs in system:
        cols = column[start:start + idx.size].reshape(idx.shape)
        vecs[idx[:, :, None], cols[:, None, :]] = block_vecs
        start += idx.size
    return vals[order], vecs


def _above_noise(vals: np.ndarray, dim: int) -> np.ndarray:
    """Mask of the eigenvalues above ``_NOISE_FLOOR * dim * eps`` times the largest."""
    return vals > _NOISE_FLOOR * dim * np.finfo(np.float64).eps * vals.max(initial=0.0)


def fidelity(a: Operator, b: Operator) -> float:
    """Squared-trace fidelity (Tr sqrt(sqrt(a) b sqrt(a)))^2.

    The middle matrix is formed on a's support only, the k eigenvectors V
    whose eigenvalues L lie above the eigensolver's rounding noise, as the
    k x k matrix sqrt(L) V^H b V sqrt(L); it has the nonzero spectrum of
    sqrt(a) b sqrt(a).  Its own spectrum is cut at the same floor.  Noise of
    order eps on either null space would otherwise enter F as sqrt(eps),
    about 1e-8 on a rank-deficient argument.
    """
    if a.shape.dims != b.shape.dims:
        raise ShapeMismatch(f"shapes differ: {a.shape.dims} vs {b.shape.dims}")
    dim = a.shape.total
    avals, avecs = _dense_eigh(_psd_eigh(a.values))
    support = _above_noise(avals, dim)
    avals, avecs = avals[support], avecs[:, support]
    b_values = _real_if_exact(b.values)
    _require_psd(_spectrum(b_values), PSD_TOL)  # validate the second argument too
    root = avecs * np.sqrt(avals)
    mid = root.conj().T @ b_values @ root
    mid = 0.5 * (mid + mid.conj().T)
    mvals = _spectrum(mid)
    mvals = mvals[_above_noise(mvals, dim)]
    return float(np.sqrt(mvals).sum() ** 2)


def pinv_sqrt(m: Operator, cutoff: float = 1e-10) -> Operator:
    """Inverse square root on the support; eigenvalues <= cutoff go to 0.

    Built block by block from the block eigensystem, V diag(inv) V^H on
    each block's indices, O(sum s^3) rather than one O(D^3) product.
    """
    system = _psd_eigh(m.values)
    out = np.zeros((m.dim, m.dim), dtype=system[0][2].dtype)
    for idx, vals, vecs in system:
        keep = vals > cutoff
        inv = np.where(keep, 1.0 / np.sqrt(np.where(keep, vals, 1.0)), 0.0)
        out[idx[:, :, None], idx[:, None, :]] = (
            (vecs * inv[:, None, :]) @ vecs.conj().swapaxes(1, 2))
    return Operator(m.shape, out)


def numeric_rank(m: Operator, rel_threshold: float = RANK_TOL) -> int:
    """Count of eigenvalues with |lam| > rel_threshold * max |lam|."""
    vals = np.abs(_spectrum(m.values))
    if vals.size == 0:
        return 0
    top = vals.max()
    if top == 0.0:
        return 0
    return int((vals > rel_threshold * top).sum())
