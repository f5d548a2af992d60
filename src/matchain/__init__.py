"""Chains of structured matrix factors: which products fill the space of
all matrices, and how to compute an explicit factorization.

The families module defines the factor families (banded, triangular,
Toeplitz-like, skew-symmetric, orthogonal, companion, Vandermonde, random
linear subspaces) with parameterizations and tangent frames.  The
dominance module measures the dimension of the image of the product map
from its Jacobian at random points.  The companion and vandermonde
modules carry the exact structured solves and determinant identities.
The solver fits a factor chain to a concrete target numerically, and io
plus cli expose files and a command line.
"""

from .companion import (
    CompanionResult,
    STATUS_NO_SOLUTION,
    STATUS_NON_UNIQUE,
    STATUS_UNIQUE,
    companion_matrix,
    decompose_companion,
    reconstruct_prefix,
)
from .dominance import (
    DecompositionProblem,
    DominanceReport,
    SKEW_TABLE,
    TARGET_CENTRO,
    TARGET_DET,
    TARGET_FULL,
    TargetSpace,
    chain_product,
    differential_apply,
    estimate_image_dimension,
    jacobian,
    lower_bound_cone,
    lower_bound_linear,
    numerical_rank,
    problem,
    skew_dimension_row,
    surjectivity_bound,
    two_factor_tangent_test,
)
from .errors import (
    DegeneratePointError,
    InfeasibleProblemError,
    MatChainError,
    MatrixParseError,
    NonGenericMatrixError,
    NonMemberError,
    ParameterRangeError,
)
from .families import (
    FamilyKind,
    FamilySpec,
    contains_identity,
    coordinates_of,
    exchange_matrix,
    family_dimension,
    family_spec,
    is_member,
    linear_basis,
    parameterize,
    pattern_mask,
    random_subspace,
    sample_point,
    tangent_basis,
)
from .io import (
    chain_from_dict,
    chain_to_dict,
    matrix_to_dict,
    read_chain,
    read_matrix,
    read_report,
    report_from_dict,
    report_to_dict,
    write_chain,
    write_matrix,
    write_report,
)
from .solver import (
    FactorChain,
    FitOptions,
    decompose_bidiagonal,
    decompose_centrosymmetric,
    fit_chain,
    lu_nopivot,
)
from .vandermonde import (
    VandTypeList,
    det_tilde,
    full_jacobian,
    jacobian_blocks,
    mp_block,
    type_list,
    unit_root,
    unit_root_factor,
    unit_root_inverse_pair,
    vand,
    vandermonde_dominance,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
