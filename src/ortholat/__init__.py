"""Orthogonality-based substitutes for infimum and supremum on the
self-adjoint part of matrix algebras and, as their commuting case, on the
coordinatewise lattice R^n, with axiom checkers, verification suites, and
a CLI."""

from .errors import (
    ComparablePair,
    DimensionMismatch,
    InternalInconsistency,
    NoConvergence,
    NotPositive,
    OrtholatError,
    PreconditionFailed,
)
from .linalg import (
    abs_general,
    complex_matrix,
    embed_offdiag,
    hermitian_eigendecompose,
    hermitian_matrix,
    jordan_decompose,
    matrix_from_json,
    matrix_to_json,
    sqrt_psd,
)
from .carriers import (
    BrokenOrthModel,
    CoordinateModel,
    MatrixSaModel,
    sup_norm,
)
from .orthogonality import (
    OrthReport,
    abs_infty_orth_sampled,
    alg_orth_general,
    check_prop2_equivalence,
    hereditary_check,
)
from .ortholattice import (
    WitnessResult,
    kadison_witness_search,
    ortho_inf_sup,
    verify_theorem4,
)
from .axioms import check_axioms, check_theorem7
from .tolerances import DEFAULT_TOL, Tolerances

__version__ = "0.1.0"
