"""The sequential lift that ``cones.gf_sum`` used before it grouped numerators,
kept as a test oracle.

Each numerator is multiplied by every factor its denominator lacks, one
``(1 - z^m)`` after another, and only then are the products added up.  The
code is unchanged; ``cones.gf_sum`` now folds each GF into one running sum,
and the tests compare that fold with it.
"""

from __future__ import annotations

from collections import Counter
from operator import add
from typing import Dict, Iterable

from qtcatalan.cones import RationalGF
from qtcatalan.errors import UsageError
from qtcatalan.polynomial import Exponents, LaurentPoly, add_terms


def gf_sum(gfs: Iterable[RationalGF]) -> RationalGF:
    """Sum over the least common multiset of the denominators.

    Each numerator is multiplied by the factors its denominator lacks, each
    ``(1 - z^m)`` as a shift by ``m`` subtracted from the terms, and the
    products are added up once.
    """
    gfs = list(gfs)
    context = gfs[0].context
    common: Counter = Counter()
    for g in gfs:
        if g.context != context:
            raise UsageError("context mismatch between generating functions")
        common |= Counter(g.denominator)
    terms: Dict[Exponents, int] = {}
    for g in gfs:
        part = g.numerator.terms
        for m in (common - Counter(g.denominator)).elements():
            shifted = ((tuple(map(add, exps, m)), -coef) for exps, coef in part.items())
            part = add_terms(dict(part), shifted)
        add_terms(terms, part.items())
    return RationalGF(context, LaurentPoly(context, terms), common.elements())
