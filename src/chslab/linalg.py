"""Linear algebra over explicitly shaped register systems, on dense or
block-diagonal operators.

States are stored as complex128.  An operator is given either densely or
in block form: a list of ``(idx, block)`` stacks, ``idx`` an ``(nb, s)``
array of ascending index rows and ``block`` the ``(nb, s, s)`` entries on
them, every other entry zero; the rows of all stacks partition
``[0, D)``.  The exact path's operators are constant on blocks named by
per-index labels: a Haar moment's type classes, the keyed state's class
and charge labels, a moment product's tuples of class blocks.  One
constructor builds them from the labels (``_label_blocks``), so nothing
looks for their structure again, and ``_dense_or_blocks`` alone chooses
whether an operator goes on dense or in blocks, at ``_BLOCK_MIN_DIM``.

An operator built from real arrays (a bool, integer or float dtype) is
marked ``real`` and stores float64; any other stores complex128.  Code
outside this module reads an operator's numbers through
``Operator.values``: the float64 array of a real operator, ``entries``
otherwise, so how an operator is stored is decided here alone.
``Operator.entries`` is always complex128; a real operator makes that copy
only when ``entries`` is first read, and the copy replaces its float64
array, so no library path makes it.  A block operator assembles its dense
matrix only on the first read of ``values`` or ``entries`` and keeps it
under the same rule; its trace, its Hermitian defect, its partial
transpose and, above D = 64, its spectral step read the blocks, so no
library path assembles it there.  Haar moments, keyed states, ideal
products and PPT blocks are real in the computational basis, and partial
trace, partial transpose and register permutation keep the mark.  Partial
trace and register permutation reshape ``values`` and return a dense
operator; partial transpose returns a dense operator for a dense one and
a block operator for a block one, moving each entry and joining the moved
entries' rows and columns into its new blocks.

Every operator is Hermitian, checked exactly when it is built, and a NaN
or infinite entry fails the check.  A dense matrix's largest |m - m^H| is
taken tile by tile, each tile on or above the diagonal against the
conjugate transpose of its mirror tile, so both stay in cache; the maximum
is the one-shot ``np.abs(m - m.conj().T).max()`` bit for bit.  A block
form is checked block by block, O(sum s^2), together with the partition.

The spectral step (``trace_norm``, ``trace_distance``, ``fidelity``,
``pinv_sqrt``, ``numeric_rank``) is an eigensolve; the trace norm is the
sum of |eigenvalues|.  The difference of two real operators is taken in
float64, and any other matrix whose imaginary part is exactly zero is also
handed to LAPACK's real symmetric solver, which finds the same spectrum in
a fraction of the complex solver's time; a matrix with any nonzero
imaginary entry takes the complex Hermitian solver.  The choice is read
from the input, never set by a flag.

Structure is built, never searched for: one rule decides how a spectrum
is solved.  Above D = 64, operands that are all block operators are solved
on the join of their partitions, found by min-label passes over one
D-long label array; a matrix that is block diagonal up to a permutation
has the union of its blocks' spectra, and the blocks of each size go to
the solver as one batched stack.  Each block holds ``a[idx] - b[idx]``,
gathered from the operands' blocks with one subtraction per entry, so the
D x D difference is never formed.  Any other operand, a dense one or one
at D <= 64, is solved whole.  The 1024-square hybrid differences split
into blocks of at most 18, and the 720-square PPT block at (d, t) =
(10, 2) into 90 Kneser copies of 8.  The eigenvalues come back ascending;
the eigenvectors come back per block, as a block eigensystem (see
``_spectrum``), so no D x D eigenvector matrix is formed for a block
operand: ``pinv_sqrt`` returns a block operator on the eigensystem's
blocks, and only ``fidelity`` assembles the dense eigenvector matrix
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

# flat dimension up to which a spectral solve takes a block operator whole.
# Median times with one BLAS thread, dense solve against batched blocks, over
# real and complex matrices made of blocks of 1, 6 or 24 in random order: at
# D = 64 0.07-0.44 ms against 0.10-0.57 ms (dense faster in 5 of the 6
# cases), at D = 96 0.15-1.05 ms against 0.10-0.71 ms (blocks faster in 5 of
# 6), at D = 128 0.32-2.0 ms against 0.19-0.92 ms
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
    """Hermitian matrix with an attached register shape, given either
    densely as ``m`` or in block form as ``blocks``.

    The block form is a list of ``(idx, block)`` stacks: ``idx`` an
    ``(nb, s)`` integer array whose rows each ascend, ``block`` the
    ``(nb, s, s)`` entries on them, row k of ``idx`` indexing both the rows
    and the columns of ``block[k]``; every entry outside the blocks is
    zero.  The rows of all stacks must partition ``[0, D)``.

    ``real`` is derived, never passed: it is True when ``m``, or every
    block, came in with a bool, integer or float dtype.  A real operator
    stores float64 arrays and any other complex128 ones; an array already
    of that dtype is stored without a copy, so its owner must not write to
    it afterwards.  ``m`` must satisfy max |m - m^H| <= HERM_TOL, checked
    tile by tile (see :func:`_hermitian_defect`), and so must each block,
    checked stack by stack; a NaN or an infinite entry fails the check.

    :attr:`values` is how the operator's numbers are read.
    :attr:`entries` is always complex128: on its first read a real operator
    makes its complex128 copy, which then replaces the float64 array, so
    ``values`` reads the copy's real part, the same bytes.  A block
    operator assembles its dense matrix on the first read of either, in
    the dtype that read asks for, and keeps it under the same rule; its
    blocks stay, and the spectral step above ``_BLOCK_MIN_DIM`` reads them
    rather than the dense matrix (see :func:`_spectrum`).  Two threads
    that first read ``entries`` at once may each make the copy; both
    copies hold the same bytes.
    """

    shape: RegisterShape
    m: InitVar[np.ndarray | None] = None
    blocks: InitVar[list | None] = None
    real: bool = field(init=False)
    _stored: np.ndarray | None = field(init=False, repr=False)
    _blocks: tuple | None = field(init=False, repr=False)

    def __post_init__(self, m, blocks) -> None:
        n = self.shape.total
        if (m is None) == (blocks is None):
            raise ParameterError("give exactly one of the dense matrix m and the blocks")
        if blocks is not None:
            stacks, real = _block_form(blocks, n)
            defect = _block_defect(stacks)
        else:
            m = np.asarray(m)
            real = m.dtype.kind in "biuf"
            m = m.astype(np.float64 if real else np.complex128, copy=False)
            if m.shape != (n, n):
                raise ShapeMismatch(f"entries shape {m.shape} != ({n}, {n})")
            stacks = None
            defect = _hermitian_defect(m)
        if not defect <= HERM_TOL:  # NaN compares False
            raise ParameterError(f"not Hermitian: defect {defect:.3e} > {HERM_TOL}")
        object.__setattr__(self, "_stored", m)
        object.__setattr__(self, "_blocks", stacks)
        object.__setattr__(self, "real", real)

    @property
    def dim(self) -> int:
        return self.shape.total

    @property
    def block_form(self) -> tuple | None:
        """The ``(idx, block)`` stacks of a block operator; None for a
        dense one."""
        return self._blocks

    def _assemble(self, dtype) -> np.ndarray:
        """The dense matrix of a block operator (:func:`_scatter`)."""
        return _scatter(self._blocks, self.dim, dtype)

    @property
    def entries(self) -> np.ndarray:
        """The complex128 matrix, made from a real operator's float64 array
        (or a block operator's blocks) on the first read, which it
        replaces."""
        stored = self._stored
        if stored is None:
            object.__setattr__(self, "_stored", self._assemble(np.complex128))
        elif stored.dtype != np.complex128:
            object.__setattr__(self, "_stored", stored.astype(np.complex128))
        return self._stored

    @property
    def values(self) -> np.ndarray:
        """The float64 array of a real operator (the real part of
        ``entries`` once that was read), else ``entries``."""
        if self._stored is None:
            object.__setattr__(self, "_stored", self._assemble(
                np.float64 if self.real else np.complex128))
        return self._stored.real if self.real else self._stored

    def trace(self) -> complex:
        """The sum of the diagonal in index order, read from the blocks of
        a block operator: ``np.trace`` of the dense matrix bit for bit."""
        if self._blocks is None:
            return complex(np.trace(self.values))
        diagonal = np.empty(self.dim, dtype=self._blocks[0][1].dtype)
        for idx, block in self._blocks:
            diagonal[idx] = np.diagonal(block, axis1=1, axis2=2)
        return complex(diagonal.sum())

    def hermitian_defect(self) -> float:
        """max |m - m^H|, per block for a block operator."""
        if self._blocks is None:
            return _hermitian_defect(self.values)
        return _block_defect(self._blocks)


def _scatter(blocks, n: int, dtype) -> np.ndarray:
    """The blocks of a block form scattered into an ``(n, n)`` zero matrix."""
    out = np.zeros((n, n), dtype=dtype)
    for idx, block in blocks:
        out[idx[:, :, None], idx[:, None, :]] = block
    return out


def _block_form(blocks, n: int) -> tuple[tuple, bool]:
    """The validated stacks of a block form over ``[0, n)``, each as an
    (intp index array, float64 or complex128 block array) pair, and
    whether every block came in real."""
    pairs = [(np.asarray(idx), np.asarray(block)) for idx, block in blocks]
    if not pairs:
        raise ShapeMismatch("a block form needs at least one stack")
    real = all(block.dtype.kind in "biuf" for _, block in pairs)
    dtype = np.float64 if real else np.complex128
    stacks = []
    for idx, block in pairs:
        if idx.ndim != 2 or idx.dtype.kind not in "iu" or block.shape != idx.shape + idx.shape[1:]:
            raise ShapeMismatch(
                f"block stack shapes {idx.shape} and {block.shape} are not (nb, s), (nb, s, s)")
        idx = idx.astype(np.intp, copy=False)
        if not (idx[:, 1:] > idx[:, :-1]).all():
            raise ParameterError("block index rows must ascend")
        stacks.append((idx, block.astype(dtype, copy=False)))
    # every index of [0, n) exactly once: out of range, repeated and missing alike
    if not np.array_equal(np.sort(np.concatenate([idx.ravel() for idx, _ in stacks])),
                          np.arange(n)):
        raise ParameterError(f"the block indices do not partition [0, {n})")
    return tuple(stacks), real


def _block_defect(stacks) -> float:
    """max |b - b^H| over every block of every stack; NaN when any block
    holds a NaN or an infinite entry."""
    # np.max keeps a NaN; builtin max may drop it
    return float(np.max([np.abs(block - block.conj().swapaxes(1, 2)).max(initial=0.0)
                         for _, block in stacks]))


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
    """Transpose the listed tensor factors in the computational basis.

    Entry (r, c) moves to (r', c'), the ``over`` registers' digits swapped
    between row and column: with o(i) the flat contribution of those
    digits to index i, r' = r - o(r) + o(c) and c' = c - o(c) + o(r).  A
    dense operator is reshaped.  A block operator gives a block operator:
    its blocks are the join of the moved (r', c') pairs (:func:`_join`),
    and each entry is scattered into its new block, so no dense matrix is
    made.
    """
    over = m.shape.validate_registers(over)
    dims = m.shape.dims
    if m.block_form is not None:
        flat = np.arange(m.dim)
        offset = np.zeros(m.dim, dtype=np.intp)
        for reg in over:
            stride = prod(dims[reg + 1:])
            offset += flat // stride % dims[reg] * stride
        moved = []
        for idx, _ in m.block_form:
            rows, cols = idx[:, :, None], idx[:, None, :]
            shift = offset[cols] - offset[rows]
            moved.append((rows + shift, cols - shift))
        groups = _label_groups(_join(
            [np.stack([rows.ravel(), cols.ravel()], axis=1) for rows, cols in moved], m.dim))
        _, head, pos = _flat_offsets(groups, m.dim)
        sizes = [idx.size * idx.shape[1] for idx in groups]
        out = np.zeros(sum(sizes), dtype=m.block_form[0][1].dtype)
        for (rows, cols), (_, block) in zip(moved, m.block_form):
            out[head[rows] + pos[cols]] = block
        return Operator(m.shape, blocks=[
            (idx, part.reshape(idx.shape + idx.shape[1:]))
            for idx, part in zip(groups, np.split(out, np.cumsum(sizes)[:-1]))])
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


def _label_groups(labels: np.ndarray) -> list[np.ndarray]:
    """The indices of each distinct value of the integer ``labels``, of any
    sign and size, as ``(ngroups, s)`` arrays, one per group size s, sizes
    ascending; each row ascends, and the rows of one array follow their
    label values."""
    # a stable sort keeps each group's indices ascending
    members = np.argsort(labels, kind="stable")
    ordered = labels[members]
    starts = np.concatenate(([0], (ordered[1:] != ordered[:-1]).nonzero()[0] + 1))
    group_sizes = np.concatenate((starts[1:], [len(labels)])) - starts
    # the distinct sizes, ascending; np.unique would import numpy.ma on its
    # first call, 16 ms and 1.5 MB in a fresh process
    return [members[starts[group_sizes == s][:, None] + np.arange(s)]
            for s in np.flatnonzero(np.bincount(group_sizes))]


def _joint_labels(labels: np.ndarray, more: np.ndarray) -> np.ndarray:
    """One label per distinct pair ``(labels[i], more[i])``, for ``labels``
    in [0, D): the smallest index holding the pair.  Named so, labels stay
    in [0, D) and a pair's code below D^2, so any number of labels can be
    combined one at a time; one mixed-radix code over all of them would
    wrap past 64 bits."""
    more = more - more.min()
    joint = np.empty(len(labels), dtype=np.intp)
    for idx in _label_groups(labels * (more.max() + 1) + more):
        joint[idx] = idx[:, :1]
    return joint


def _label_blocks(labels: np.ndarray, values: np.ndarray) -> list:
    """The block form with one block per distinct integer label, constant
    at the value ``values`` holds at each of its indices."""
    return [(idx, values[idx][:, :, None].repeat(idx.shape[1], axis=2))
            for idx in _label_groups(labels)]


def _block_labels(op: Operator) -> tuple[np.ndarray, np.ndarray]:
    """Per index of a block operator with constant blocks, its block
    (named by the block's smallest index) and the block's value."""
    labels = np.empty(op.dim, dtype=np.intp)
    values = np.empty(op.dim, dtype=op.block_form[0][1].dtype)
    for idx, block in op.block_form:
        labels[idx], values[idx] = idx[:, :1], block[:, :1, 0]
    return labels, values


def _dense_or_blocks(shape: RegisterShape, blocks) -> Operator:
    """The operator with these blocks: dense at D <= ``_BLOCK_MIN_DIM``,
    where the spectral step solves it whole, else in block form."""
    if shape.total > _BLOCK_MIN_DIM:
        return Operator(shape, blocks=blocks)
    return Operator(shape, _scatter(blocks, shape.total, np.result_type(*(b for _, b in blocks))))


def _join(rows, n: int) -> np.ndarray:
    """The smallest index of each index's block in the finest partition of
    ``[0, n)`` that puts the indices of every row of every ``(k, s)``
    integer array in ``rows`` into one block.  Given the index stacks of
    block forms, that is the join of their partitions, the finest one each
    of them refines; given ``(k, 2)`` pair rows, the connected components
    of the graph with those edges.

    Min-label passes over one D-long label array: every row takes the
    smallest label among its indices and lowers each of them to it with
    ``np.minimum.at``, which keeps the smallest of repeated writes to one
    index (a fancy assignment keeps the last, so the chain [[0, 1], [1, 2]]
    would stop as two blocks); then every label is followed to its root.
    Labels only fall, each to an index of the same block, so a pass that
    changes nothing leaves each block on its smallest index.
    """
    labels = np.arange(n)
    while True:
        before = labels.copy()
        for idx in rows:
            np.minimum.at(labels, idx, labels[idx].min(axis=1, keepdims=True))
        while not np.array_equal(roots := labels[labels], labels):
            labels = roots
        if np.array_equal(labels, before):
            return labels


def _flat_offsets(groups, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where each entry of a block form on ``groups`` (``(nb, s)`` index
    arrays partitioning ``[0, n)``) sits when its ``(nb, s, s)`` stacks are
    laid end to end: entry (p, q) of the block holding index i, p its
    position there, sits at ``head[i] + pos[j]`` for the index j at
    position q, and ``base[i]``, the block's start, is the same for every
    index of one block only.  Returns ``(base, head, pos)``."""
    base, head, pos = (np.empty(n, dtype=np.intp) for _ in range(3))
    start = 0
    for idx in groups:
        nb, s = idx.shape
        base[idx] = start + s * s * np.arange(nb)[:, None]
        pos[idx] = np.arange(s)
        head[idx] = base[idx] + s * pos[idx]
        start += nb * s * s
    return base, head, pos


def _gather(op: Operator, groups) -> list[np.ndarray]:
    """The entries of ``op`` on each block of ``groups``, a list of
    ``(nb, s)`` index arrays, as ``(nb, s, s)`` arrays: entry (k, i, j) of
    one is op's entry at ``(idx[k, i], idx[k, j])``.  A block operator is
    read from its blocks, 0 at a pair that none of them holds; a dense one
    from ``values``."""
    if op.block_form is None:
        return [op.values[idx[:, :, None], idx[:, None, :]] for idx in groups]
    base, head, pos = _flat_offsets([idx for idx, _ in op.block_form], op.dim)
    flat = np.concatenate([block.ravel() for _, block in op.block_form])
    out = []
    for idx in groups:
        rows, cols = idx[:, :, None], idx[:, None, :]
        held = base[rows] == base[cols]
        out.append(np.where(held, flat[np.where(held, head[rows] + pos[cols], 0)], 0))
    return out


def _joined_stacks(operands: list[Operator]) -> tuple[list, list]:
    """The blocks of the join of the block operators' partitions, one
    ``(nblocks, s)`` index array per size s as :func:`_label_groups` orders
    them, and the stacks of ``a - b`` (of ``a`` alone) on them, for the
    operands ``[a, b]`` (or ``[a]``).

    Each entry is one subtraction of the two operands' entries, 0 where an
    operand holds none, so each stack holds the dense difference's floats;
    the stacks are real when no entry of the difference has a nonzero
    imaginary part, the choice ``_real_if_exact`` makes on the dense
    difference."""
    groups = _label_groups(_join([idx for op in operands for idx, _ in op.block_form],
                                 operands[0].dim))
    stacks = _gather(operands[0], groups)
    if len(operands) == 2:
        stacks = [in_a - in_b for in_a, in_b in zip(stacks, _gather(operands[1], groups))]
    if np.iscomplexobj(stacks[0]) and not any(s.imag.any() for s in stacks):
        stacks = [s.real for s in stacks]
    return groups, stacks


def _spectrum(a, b=None, vectors: bool = False):
    """Eigensystem of the Hermitian ``a - b``, or of ``a`` when ``b`` is
    None; each operand a matrix or an :class:`Operator`.  Without
    ``vectors``: the eigenvalues, ascending.  With ``vectors``: the block
    eigensystem, a list of ``(idx, vals, vecs)``, one per block size s:
    ``idx`` the ``(nblocks, s)`` indices of each block, ``vals`` its
    ``(nblocks, s)`` eigenvalues, each row ascending, and ``vecs`` the
    ``(nblocks, s, s)`` eigenvectors, column j of block k the one of
    ``vals[k, j]`` on the indices ``idx[k]``.  A matrix solved whole is one
    block on all its indices.

    One rule: above ``_BLOCK_MIN_DIM``, operands that are all block
    operators are solved on the join of their partitions
    (:func:`_joined_stacks`), the blocks of each size as one
    ``(nblocks, s, s)`` stack, and neither the D x D difference nor a D x D
    eigenvector matrix is formed.  Any other operand is solved whole, as
    ``solve(_real_if_exact(a - b))``: its structure is whatever its builder
    gave it, never searched for here.
    """
    solve = np.linalg.eigh if vectors else np.linalg.eigvalsh
    operands = [op for op in (a, b) if op is not None]
    whole = None
    if (all(isinstance(op, Operator) and op.block_form is not None for op in operands)
            and a.dim > _BLOCK_MIN_DIM):
        groups, stacks = _joined_stacks(operands)
    else:
        a, b = (op.values if isinstance(op, Operator) else op for op in (a, b))
        whole = _real_if_exact(a if b is None else a - b)
        stacks = [whole]
    try:
        solved = [solve(stack) for stack in stacks]
    except np.linalg.LinAlgError as exc:
        raise EigsFailed(str(exc)) from exc
    if whole is not None:
        if not vectors:
            return solved[0]
        vals, vecs = solved[0]
        return [(np.arange(len(whole))[None], vals[None], vecs[None])]
    if not vectors:
        return _ascending(solved)
    return [(idx, vals, vecs) for idx, (vals, vecs) in zip(groups, solved)]


def _ascending(blocks) -> np.ndarray:
    """The eigenvalue arrays ``blocks`` concatenated and sorted ascending."""
    return np.sort(np.concatenate([vals.ravel() for vals in blocks]), kind="stable")


def trace_norm(m: Operator) -> float:
    """Sum of |eigenvalues|, the sum of singular values of a Hermitian matrix."""
    return float(np.abs(_spectrum(m)).sum())


def trace_distance(a: Operator, b: Operator) -> float:
    """Half the trace norm of the difference.

    The difference of two operators is Hermitian, since both were checked
    when they were built, so it goes straight to the eigenvalue solver
    under :func:`_spectrum`'s one rule: two block operators above
    ``_BLOCK_MIN_DIM`` are solved on the join of their partitions, each
    block gathered as ``a[idx] - b[idx]``, the dense difference's floats,
    and the D x D difference is never formed; any other pair is solved
    whole, as the dense difference.  The difference of two real operators
    is float64, the real part of their complex difference bit for bit.
    """
    if a.shape.dims != b.shape.dims:
        raise ShapeMismatch(f"shapes differ: {a.shape.dims} vs {b.shape.dims}")
    return 0.5 * float(np.abs(_spectrum(a, b)).sum())


def _require_psd(vals: np.ndarray, tol: float) -> None:
    if vals.size and vals.min() < -tol:
        raise NotPSD(f"eigenvalue {vals.min():.3e} below -{tol}")


def _psd_eigh(m, tol: float = PSD_TOL) -> list[tuple]:
    """The block eigensystem of :func:`_spectrum` of the matrix or
    operator ``m`` with every eigenvalue clipped at 0; ``NotPSD`` when one
    lies below ``-tol``."""
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


def _times(rows: np.ndarray, op: Operator) -> np.ndarray:
    """``rows @ op.values``, read from the blocks of a block operator so
    that its dense matrix is not assembled: each entry sums the products
    on one block, the nonzero terms of the dense product."""
    if op.block_form is None:
        return rows @ _real_if_exact(op.values)
    out = np.empty(rows.shape, dtype=np.result_type(rows, op.block_form[0][1]))
    for idx, block in op.block_form:
        out[:, idx] = np.einsum("kns,nst->knt", rows[:, idx], block)
    return out


def fidelity(a: Operator, b: Operator) -> float:
    """Squared-trace fidelity (Tr sqrt(sqrt(a) b sqrt(a)))^2.

    The middle matrix is formed on a's support only, the k eigenvectors V
    whose eigenvalues L lie above the eigensolver's rounding noise, as the
    k x k matrix sqrt(L) V^H b V sqrt(L); it has the nonzero spectrum of
    sqrt(a) b sqrt(a), with V^H b taken on b's blocks when b has them
    (:func:`_times`).  Its own spectrum is cut at the same floor.  Noise of
    order eps on either null space would otherwise enter F as sqrt(eps),
    about 1e-8 on a rank-deficient argument.
    """
    if a.shape.dims != b.shape.dims:
        raise ShapeMismatch(f"shapes differ: {a.shape.dims} vs {b.shape.dims}")
    dim = a.shape.total
    avals, avecs = _dense_eigh(_psd_eigh(a))
    support = _above_noise(avals, dim)
    avals, avecs = avals[support], avecs[:, support]
    _require_psd(_spectrum(b), PSD_TOL)  # validate the second argument too
    root = avecs * np.sqrt(avals)
    mid = _times(root.conj().T, b) @ root
    mid = 0.5 * (mid + mid.conj().T)
    mvals = _spectrum(mid)
    mvals = mvals[_above_noise(mvals, dim)]
    return float(np.sqrt(mvals).sum() ** 2)


def pinv_sqrt(m: Operator, cutoff: float = 1e-10) -> Operator:
    """Inverse square root on the support; eigenvalues <= cutoff go to 0.

    A block operator on the blocks of the block eigensystem, V diag(inv)
    V^H on each block's indices, O(sum s^3) rather than one O(D^3) product.
    """
    blocks = []
    for idx, vals, vecs in _psd_eigh(m):
        keep = vals > cutoff
        inv = np.where(keep, 1.0 / np.sqrt(np.where(keep, vals, 1.0)), 0.0)
        blocks.append((idx, (vecs * inv[:, None, :]) @ vecs.conj().swapaxes(1, 2)))
    return Operator(m.shape, blocks=blocks)


def numeric_rank(m: Operator, rel_threshold: float = RANK_TOL) -> int:
    """Count of eigenvalues with |lam| > rel_threshold * max |lam|."""
    vals = np.abs(_spectrum(m))
    if vals.size == 0:
        return 0
    top = vals.max()
    if top == 0.0:
        return 0
    return int((vals > rel_threshold * top).sum())
