"""Exact tools for refined q,t-Catalan polynomials.

The package computes the two-statistic path polynomials two independent
ways: by walking the paths with prescribed north-run lengths and scoring
them with a linear bounce pass, and by assembling rational
generating functions from half-open simplicial cones.  Everything is exact
(integer and rational arithmetic only), so each route can verify the other.

``import qtcatalan`` loads no submodule: each exported name is read from its
home module when accessed (PEP 562), and that module is imported the first
time, so a path command never loads the cone route.
"""

from importlib import import_module

# exported name -> the module it lives in
_EXPORTS = {
    "CaseSpec": "catalog",
    "assemble_case": "catalog",
    "assemble_theorem": "catalog",
    "case_catalog": "catalog",
    "case_membership": "catalog",
    "printed_theorem": "catalog",
    "signed_multiplicity": "catalog",
    "HalfOpenCone": "cones",
    "RationalGF": "cones",
    "gf_equals": "cones",
    "gf_substitute": "cones",
    "integer_point_transform": "cones",
    "lattice_index": "cones",
    "parallelepiped_points": "cones",
    "parse_cone": "cones",
    "series_expand": "cones",
    "DegenerateSubstitutionError": "errors",
    "DomainError": "errors",
    "InternalInvariantError": "errors",
    "NonExpandableError": "errors",
    "UsageError": "errors",
    "stats_kaaa": "families",
    "stats_three": "families",
    "SymmetryReport": "oracles",
    "check_last_param": "oracles",
    "lambda_catalan": "oracles",
    "refined_catalan": "oracles",
    "symmetry_report": "oracles",
    "DyckPath": "paths",
    "KVector": "paths",
    "area_bounce_counts": "paths",
    "count_paths": "paths",
    "enumerate_paths": "paths",
    "path_stats": "paths",
    "QT_CONTEXT": "polynomial",
    "LaurentPoly": "polynomial",
    "VariableContext": "polynomial",
    "coefficient_grid": "polynomial",
    "is_qt_symmetric": "polynomial",
    "qt_swap": "polynomial",
    "substitute_monomials": "polynomial",
    "TheoremReport": "verify",
    "verify_theorem": "verify",
}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    """An exported name, read from its home module, which is imported if need be."""
    try:
        module = _EXPORTS[name]
    except KeyError:
        # an unknown name, a submodule among them: `from qtcatalan import cones`
        # then imports the submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
