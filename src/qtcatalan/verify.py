"""Where the two routes meet: the cone route's series against the path route's counts.

:func:`verify_theorem` compares a family's assembled generating function
with its transcribed product formula, reads the formula's series against
the path polynomials of :func:`~qtcatalan.oracles.refined_catalan`, and
checks the formula's q,t-symmetry.  This is the only module besides the CLI
that imports both routes.

The cone route (``cones``, ``catalog``) is imported inside the functions
that use it, so loading this module, as the CLI does for every command,
loads only the path route.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .families import family
from .oracles import check_verify_work, refined_catalan
from .paths import LegTable
from .polynomial import QT_CONTEXT, LaurentPoly, qt_images

if TYPE_CHECKING:
    from .cones import RationalGF


def gf_qt_swap(g: RationalGF) -> RationalGF:
    """Exchange q and t throughout a generating function."""
    from .cones import gf_substitute

    return gf_substitute(g, g.context, qt_images(g.context))


class TheoremReport(NamedTuple):
    family: str
    bound: int
    formula_match: bool
    series_match: bool
    symmetric: bool

    @property
    def all_ok(self) -> bool:
        return self.formula_match and self.series_match and self.symmetric


def series_matches_paths(gf: RationalGF, name: str, bound: int) -> bool:
    """Compare series coefficients of ``gf`` against path enumeration.

    Every size variable weighs 1, so the members compared are those whose
    sizes sum to at most ``bound``.  The expansion is grouped by its size
    exponents once; each size's coefficient is read from its own group, and
    a size with no group has coefficient zero.  The members' path counts
    share one :class:`~qtcatalan.paths.LegTable`.
    """
    from .cones import series_expand

    fam = family(name)
    expansion = series_expand(gf, dict.fromkeys(fam.size_names, 1), bound)
    groups, zero = expansion.group_terms(fam.size_names), LaurentPoly.zero(expansion.context)
    members = list(fam.sizes(bound))
    legs = LegTable(fam.kvector(sizes) for sizes in members)
    for sizes in members:
        part = groups.get(sizes, zero)
        coefficient = part.extract_coefficient(dict(zip(fam.size_names, sizes)), QT_CONTEXT)
        if coefficient != refined_catalan(fam.kvector(sizes), legs):
            return False
    return True


def verify_theorem(family: str, bound: int) -> TheoremReport:
    check_verify_work(family, bound)
    from .catalog import assemble_theorem, printed_theorem
    from .cones import gf_equals

    printed = printed_theorem(family)
    assembled = assemble_theorem(family)
    formula_match = gf_equals(assembled, printed)
    series_match = series_matches_paths(printed, family, bound)
    symmetric = gf_equals(printed, gf_qt_swap(printed))
    return TheoremReport(
        family=family,
        bound=bound,
        formula_match=formula_match,
        series_match=series_match,
        symmetric=symmetric,
    )
