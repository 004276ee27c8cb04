"""The monomial substitution that ``cones.gf_substitute`` made before it
computed the linear image once, kept as a test oracle.

The numerator goes through one full substitution, and each denominator factor
through another, as a one-term polynomial.  The code is unchanged; the tests
compare the shared image with it.
"""

from __future__ import annotations

from operator import mul
from typing import Mapping, Sequence

from qtcatalan.cones import RationalGF
from qtcatalan.errors import DegenerateSubstitutionError, UsageError
from qtcatalan.polynomial import LaurentPoly, VariableContext, add_terms


def substitute_monomials(
    poly: LaurentPoly,
    target: VariableContext,
    images: Mapping[str, Sequence[int]],
) -> LaurentPoly:
    """Multiplicative substitution: each source variable maps to a monomial."""
    table = []
    for name in poly.context.names:
        if name not in images:
            raise UsageError(f"no image given for variable {name!r}")
        image = tuple(images[name])
        if len(image) != len(target):
            raise UsageError(f"image for {name!r} has wrong length for {target}")
        table.append(image)
    # a term's image exponent is one dot product per target variable
    columns = list(zip(*table))
    images_of = (
        (tuple(sum(map(mul, exps, column)) for column in columns), coef)
        for exps, coef in poly.terms.items()
    )
    return LaurentPoly(target, add_terms({}, images_of))


def gf_substitute(
    g: RationalGF, target: VariableContext, images: Mapping[str, Sequence[int]]
) -> RationalGF:
    """Apply a monomial substitution to numerator and denominator alike."""
    numerator = substitute_monomials(g.numerator, target, images)
    factors = []
    for m in g.denominator:
        # a monomial maps to one monomial with coefficient 1
        (image,) = substitute_monomials(LaurentPoly.monomial(g.context, m), target, images).terms
        if not any(image):
            raise DegenerateSubstitutionError(
                f"denominator factor {m} maps to the zero exponent vector"
            )
        factors.append(image)
    return RationalGF(target, numerator, factors)
