"""The per-term loops that ``polynomial.add_terms`` replaced, kept as test oracles.

Before one accumulator added every coefficient into a term dict,
``cones.gf_sum`` summed numerators through its own ``_add_into``, and
``substitute_monomials`` built each term's image one source variable at a
time, adding it into the result in the same loop.  The code is unchanged;
the tests compare these loops with the new code.
"""

from __future__ import annotations

from collections import Counter
from operator import add
from typing import Dict, Iterable, Mapping, Optional, Sequence

from qtcatalan.cones import RationalGF
from qtcatalan.errors import UsageError
from qtcatalan.polynomial import Exponents, LaurentPoly, VariableContext


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
            part = _add_into(dict(part), part, -1, m)
        _add_into(terms, part)
    return RationalGF(context, LaurentPoly(context, terms), common.elements())


def _add_into(
    out: Dict[Exponents, int],
    terms: Mapping[Exponents, int],
    sign: int = 1,
    shift: Optional[Exponents] = None,
) -> Dict[Exponents, int]:
    """``out`` plus ``sign`` times the terms, shifted by ``shift`` if given, zeros dropped."""
    for exps, coef in terms.items():
        key = exps if shift is None else tuple(map(add, exps, shift))
        value = out.get(key, 0) + sign * coef
        if value:
            out[key] = value
        else:
            del out[key]
    return out


def substitute_monomials(
    poly: LaurentPoly,
    target: VariableContext,
    images: Mapping[str, Sequence[int]],
) -> LaurentPoly:
    """Multiplicative substitution: each source variable maps to a monomial.

    `images` assigns every variable of ``poly.context`` an exponent vector in
    ``target``.  Exponents combine additively, so this is a ring homomorphism.
    """
    width = len(target)
    table = []
    for name in poly.context.names:
        if name not in images:
            raise UsageError(f"no image given for variable {name!r}")
        image = tuple(images[name])
        if len(image) != width:
            raise UsageError(f"image for {name!r} has wrong length for {target}")
        table.append(image)
    out: Dict[Exponents, int] = {}
    for exps, coef in poly.terms.items():
        vec = [0] * width
        for e, image in zip(exps, table):
            if e:
                for i, ei in enumerate(image):
                    vec[i] += e * ei
        key = tuple(vec)
        new = out.get(key, 0) + coef
        if new:
            out[key] = new
        else:
            del out[key]
    return LaurentPoly(target, out)
