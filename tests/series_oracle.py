"""The power-by-power expansion, kept as a test oracle for ``cones.series_expand``.

This is how ``series_expand`` expanded before it worked one weight layer at
a time: each denominator factor, heaviest first, multiplies in its geometric
series by walking every term up through the factor's powers while the weight
stays within the bound.  The code is unchanged; the tests compare its
expansions with the layered one.
"""

from __future__ import annotations

import operator
from operator import add
from typing import Dict, Mapping

from qtcatalan.cones import RationalGF, _weight_of
from qtcatalan.errors import DomainError, NonExpandableError, UsageError, _integers
from qtcatalan.polynomial import Exponents, LaurentPoly


def series_expand(g: RationalGF, weights: Mapping[str, int], bound: int) -> LaurentPoly:
    """Truncate the power series of ``g`` to terms of weight <= bound.

    Weights are nonnegative integers per variable (absent names weigh 0).
    Every denominator factor must have positive total weight; every numerator
    term must have nonnegative weight, so truncation is exact.  A weight or
    bound that is not an integer is a DomainError.
    """
    ctx = g.context
    wvec = _integers([weights.get(name, 0) for name in ctx.names], "series weights")
    try:
        bound = operator.index(bound)
    except TypeError:
        raise DomainError(f"series bound must be an integer, got {bound!r}") from None
    if any(w < 0 for w in wvec):
        raise UsageError("weights must be nonnegative")
    for m in g.denominator:
        if _weight_of(m, wvec) <= 0:
            raise NonExpandableError(f"denominator factor {m} has nonpositive weight")
    result: Dict[Exponents, int] = {}
    for exps, coef in g.numerator.terms.items():
        w = _weight_of(exps, wvec)
        if w < 0:
            raise NonExpandableError("numerator term with negative weight")
        if w <= bound:
            result[exps] = coef
    # multiply in the geometric series of each factor, heaviest first; power i
    # of a factor of weight wm weighs i * wm
    for m in sorted(g.denominator, key=lambda mm: -_weight_of(mm, wvec)):
        wm = _weight_of(m, wvec)
        new: Dict[Exponents, int] = {}
        for key, coef in result.items():
            w = _weight_of(key, wvec)
            while w <= bound:
                val = new.get(key, 0) + coef
                if val:
                    new[key] = val
                else:
                    del new[key]
                key = tuple(map(add, key, m))
                w += wm
        result = new
    return LaurentPoly(ctx, result)
