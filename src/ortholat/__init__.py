"""Orthogonality-based substitutes for infimum and supremum on the
self-adjoint part of matrix algebras, with a coordinatewise-lattice model,
axiom checkers, verification suites, and a CLI."""

from .errors import (
    ComparablePair,
    ConfigError,
    DimensionMismatch,
    InternalInconsistency,
    NoConvergence,
    NotOrderUnit,
    NotPositive,
    OrtholatError,
    PreconditionFailed,
)
from .linalg import (
    Spectrum,
    abs_general,
    complex_matrix,
    embed_offdiag,
    hermitian_eigendecompose,
    hermitian_matrix,
    is_comparable,
    is_psd,
    jordan_decompose,
    loewner_le,
    matrix_from_json,
    matrix_to_json,
    sqrt_psd,
)
from .orthogonality import (
    KGrid,
    OrthReport,
    abs_infty_orth_sampled,
    alg_orth_general,
    alg_orth_positive,
    alg_orth_sa,
    check_prop2_equivalence,
    hereditary_check,
    infty_orth,
)
from .ortholattice import (
    WitnessResult,
    kadison_witness_search,
    ortho_inf,
    ortho_sup,
    uniqueness_falsify,
    verify_theorem4,
)
from .lattice import (
    am_norm_laws,
    join,
    lattice_orth,
    meet,
    prop6_check,
    sup_norm,
    verify_corollary5,
)
from .axioms import (
    BrokenOrthModel,
    CoordinateModel,
    MatrixSaModel,
    check_axioms,
    check_theorem7,
    make_model,
    order_unit_norm,
)
from .tolerances import DEFAULT_TOL, Tolerances

__version__ = "0.1.0"
