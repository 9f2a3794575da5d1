"""Dense linear algebra over explicitly shaped register systems.

Operators and states are stored as complex128.  The spectral step
(``trace_norm``, ``trace_distance``, ``fidelity``, ``pinv_sqrt``,
``numeric_rank``) hands a matrix whose imaginary part is exactly zero to
LAPACK's real symmetric solver, which finds the same spectrum in a fraction
of the complex solver's time; a matrix with any nonzero imaginary entry
takes the complex Hermitian solver.  The choice is read from the input,
never set by a flag.

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
    "tensor",
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

    def concat(self, other: "RegisterShape") -> "RegisterShape":
        return RegisterShape(self.dims + other.dims)


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

    Entries are always stored as complex128; spectral functions solve in
    real arithmetic when the imaginary part is exactly zero.
    """

    shape: RegisterShape
    entries: np.ndarray = field(repr=False)
    hermitian_hint: bool = False

    def __post_init__(self) -> None:
        m = np.asarray(self.entries, dtype=np.complex128)
        n = self.shape.total
        if m.shape != (n, n):
            raise ShapeMismatch(f"entries shape {m.shape} != ({n}, {n})")
        if self.hermitian_hint:
            defect = float(np.abs(m - m.conj().T).max())
            if defect > HERM_TOL:
                raise ParameterError(f"hermitian_hint set but defect {defect:.3e} > {HERM_TOL}")
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.shape.total

    def trace(self) -> complex:
        return complex(np.trace(self.entries))


def tensor(a, b, cap: int = DEFAULT_DIM_CAP):
    """Kronecker product of two states or two operators (big-endian order)."""
    if isinstance(a, StateVector) and isinstance(b, StateVector):
        shape = a.shape.concat(b.shape).check_cap(cap)
        return StateVector(shape, np.kron(a.amplitudes, b.amplitudes))
    if isinstance(a, Operator) and isinstance(b, Operator):
        shape = a.shape.concat(b.shape).check_cap(cap)
        return Operator(shape, np.kron(a.entries, b.entries),
                        hermitian_hint=a.hermitian_hint and b.hermitian_hint)
    raise ShapeMismatch("tensor requires two StateVectors or two Operators")


def _as_legs(m: Operator) -> np.ndarray:
    dims = m.shape.dims
    return m.entries.reshape(dims + dims)


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


def _eigvalsh(m: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.eigvalsh(_real_if_exact(m))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - numpy rarely fails here
        raise EigsFailed(str(exc)) from exc


def trace_norm(m: Operator) -> float:
    """Sum of singular values; via eigenvalues when flagged Hermitian."""
    if m.hermitian_hint:
        return float(np.abs(_eigvalsh(m.entries)).sum())
    try:
        return float(np.linalg.svd(m.entries, compute_uv=False).sum())
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise EigsFailed(str(exc)) from exc


def trace_distance(a: Operator, b: Operator) -> float:
    """Half the trace norm of the difference."""
    if a.shape.dims != b.shape.dims:
        raise ShapeMismatch(f"shapes differ: {a.shape.dims} vs {b.shape.dims}")
    diff = Operator(a.shape, a.entries - b.entries,
                    hermitian_hint=a.hermitian_hint and b.hermitian_hint)
    return 0.5 * trace_norm(diff)


def _psd_eigh(m: np.ndarray, tol: float = PSD_TOL):
    try:
        vals, vecs = np.linalg.eigh(_real_if_exact(m))
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise EigsFailed(str(exc)) from exc
    if vals.size and vals.min() < -tol:
        raise NotPSD(f"eigenvalue {vals.min():.3e} below -{tol}")
    return np.clip(vals, 0.0, None), vecs


def fidelity(a: Operator, b: Operator) -> float:
    """Squared-trace fidelity (Tr sqrt(sqrt(a) b sqrt(a)))^2."""
    if a.shape.dims != b.shape.dims:
        raise ShapeMismatch(f"shapes differ: {a.shape.dims} vs {b.shape.dims}")
    avals, avecs = _psd_eigh(a.entries)
    _psd_eigh(b.entries)  # validate the second argument as well
    sqrt_a = (avecs * np.sqrt(avals)) @ avecs.conj().T
    mid = sqrt_a @ b.entries @ sqrt_a
    mid = 0.5 * (mid + mid.conj().T)
    mvals = np.clip(_eigvalsh(mid), 0.0, None)
    return float(np.sqrt(mvals).sum() ** 2)


def pinv_sqrt(m: Operator, cutoff: float = 1e-10) -> Operator:
    """Inverse square root on the support; eigenvalues <= cutoff go to 0."""
    vals, vecs = _psd_eigh(m.entries)
    inv = np.where(vals > cutoff, 1.0 / np.sqrt(np.where(vals > cutoff, vals, 1.0)), 0.0)
    out = (vecs * inv) @ vecs.conj().T
    return Operator(m.shape, out, hermitian_hint=True)


def numeric_rank(m: Operator, rel_threshold: float = 1e-8) -> int:
    """Count of eigenvalues with |lam| > rel_threshold * max |lam|."""
    vals = np.abs(_eigvalsh(m.entries))
    if vals.size == 0:
        return 0
    top = vals.max()
    if top == 0.0:
        return 0
    return int((vals > rel_threshold * top).sum())
