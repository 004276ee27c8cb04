"""Exact tools for refined q,t-Catalan polynomials.

The package computes the two-statistic path polynomials two independent
ways: by walking the paths with prescribed north-run lengths and scoring
them with a linear bounce pass, and by assembling rational
generating functions from half-open simplicial cones.  Everything is exact
(integer and rational arithmetic only), so each route can verify the other.
"""

from .catalog import (
    CaseSpec,
    LatticePiece,
    assemble_case,
    assemble_theorem,
    case_catalog,
    case_membership,
    printed_theorem,
    signed_multiplicity,
)
from .cones import (
    HalfOpenCone,
    RationalGF,
    gf_equals,
    gf_substitute,
    integer_point_transform,
    lattice_index,
    parallelepiped_points,
    parse_cone,
    series_expand,
)
from .errors import (
    DegenerateSubstitutionError,
    DomainError,
    InternalInvariantError,
    NonExpandableError,
    UsageError,
)
from .oracles import (
    SymmetryReport,
    carlitz_riordan,
    check_bounce_agreement,
    check_last_param,
    check_q_specializations,
    lambda_catalan,
    macmahon_q_catalan,
    q_binomial,
    refined_catalan,
    symmetry_report,
)
from .paths import (
    DyckPath,
    KVector,
    area_bounce_counts,
    count_paths,
    enumerate_paths,
    path_stats,
    stats_kaaa,
    stats_three,
)
from .polynomial import (
    QT_CONTEXT,
    LaurentPoly,
    VariableContext,
    coefficient_grid,
    is_qt_symmetric,
    qt_swap,
    substitute_monomials,
)
from .verify import TheoremReport, verify_theorem

__version__ = "0.1.0"
