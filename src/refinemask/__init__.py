"""Exact rational calculus for polynomial refinement masks."""

from .algebra import (
    Matrix,
    as_rational,
    parse_rational,
    solve_upper_triangular,
    solve_vandermonde_dual,
)
from .exceptions import (
    NotRefinableError,
    ParseError,
    RefineMaskError,
    SingularMatrixError,
)
from .mask import Mask, ReducedMask, difference_power, reduce_mod_difference, refined_degree
from .polynomial import Polynomial
from .refinement import (
    CascadeReport,
    IntegrationConstant,
    RefinablePair,
    antiderivative_constant,
    cascade,
    equivalence_witness,
    extend_mask,
    mask_from_poly,
    mask_from_poly_at_nodes,
    masks_equivalent,
    poly_from_mask,
    refine_apply,
    refinement_matrix,
    verify_refines,
)

__version__ = "0.1.0"

__all__ = [
    "CascadeReport",
    "IntegrationConstant",
    "Mask",
    "Matrix",
    "NotRefinableError",
    "ParseError",
    "Polynomial",
    "ReducedMask",
    "RefinablePair",
    "RefineMaskError",
    "SingularMatrixError",
    "antiderivative_constant",
    "as_rational",
    "cascade",
    "difference_power",
    "equivalence_witness",
    "extend_mask",
    "mask_from_poly",
    "mask_from_poly_at_nodes",
    "masks_equivalent",
    "parse_rational",
    "poly_from_mask",
    "reduce_mod_difference",
    "refine_apply",
    "refined_degree",
    "refinement_matrix",
    "solve_upper_triangular",
    "solve_vandermonde_dual",
    "verify_refines",
]
