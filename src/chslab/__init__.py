"""Desk-scale verification lab for shared-Haar-state constructions.

Dense, exact linear algebra over shaped registers (:mod:`chslab.linalg`),
type-state combinatorics and Haar moments (:mod:`chslab.typespace`), keyed
phase generators with their hybrid distances and the rank distinguisher
(:mod:`chslab.pseudo`), a swap-test commitment (:mod:`chslab.commitment`),
two-party collision/transposition distinguishability (:mod:`chslab.locc`),
and a seeded experiment runner (:mod:`chslab.registry`, :mod:`chslab.cli`).
"""

__version__ = "0.1.0"

from .errors import (
    BadRegisterIndex,
    ChslabError,
    ConfigInvalid,
    DimensionOverflow,
    EigsFailed,
    EnumerationTooLarge,
    NotCollisionFree,
    NotPSD,
    NotUnitary,
    ParameterError,
    PreconditionViolated,
    ShapeMismatch,
)
from .linalg import (
    DEFAULT_DIM_CAP,
    Operator,
    RegisterShape,
    StateVector,
    fidelity,
    numeric_rank,
    partial_trace,
    partial_transpose,
    permute_registers,
    pinv_sqrt,
    trace_distance,
    trace_norm,
)
from .typespace import (
    DEFAULT_ENUM_CAP,
    PrefixParams,
    TypeVector,
    enumerate_types,
    haar_moment,
    is_l_fold_prefix_collision_free,
    prob_good_type,
    sample_haar,
    sym_projector,
    type_bipartition,
    type_state,
)

__all__ = [name for name in dir() if not name.startswith("_")]
