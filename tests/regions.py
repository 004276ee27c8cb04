"""Each family's path region, as points and as a generating function, shared by the tests.

``region_points`` writes each region out by hand, independently of the
package; ``region_gf`` reads the region from ``families.UPPER_BOUNDS``.
"""

import itertools

from qtcatalan.cones import RationalGF, gf_sum
from qtcatalan.families import FAMILIES, UPPER_BOUNDS
from qtcatalan.polynomial import LaurentPoly


def region_points(family, bound):
    """The family's region points up to ``bound``, written out by hand.

    The bound caps each size for three (each of k1, k2, k3) and for k4 (k),
    but the size sum k + m for kaaa; so three's points reach size sums of
    three times the bound.
    """
    if family == "three":
        for k1, k2, k3 in itertools.product(range(bound + 1), repeat=3):
            for r2 in range(k1 + 1):
                for r3 in range(r2 + k2 + 1):
                    yield (k1, k2, k3, r2, r3)
    elif family == "k4":
        for k in range(bound + 1):
            for a in range(k + 1):
                for b in range(2 * k - a + 1):
                    for c in range(3 * k - a - b + 1):
                        yield (k, a, b, c)
    else:
        for k in range(bound + 1):
            for m in range(bound - k + 1):
                for a in range(k + 1):
                    for b in range(2 * k + m - a + 1):
                        for c in range(3 * k + 2 * m - a - b + 1):
                            yield (k, m, a, b, c)


def _plus(u, v, times=1):
    return tuple(a + times * b for a, b in zip(u, v))


def region_gf(family):
    """``sum z^x`` over the family's region, by iterated geometric sums.

    A term is ``sign * z^const * prod w[y]^y / prod (1 - z^d)`` over the
    coordinates ``y`` not yet summed, each ``w[y]`` a monomial; at first
    there is one term, with ``w[y] = z_y``.  The coordinates are summed out
    innermost first.  An unbounded ``x`` gives ``1 / (1 - w[x])``.  A bounded
    one, ``x <= U = sum c_y y``, gives ``(1 - w[x]^(U + 1)) / (1 - w[x])``:
    the term splits into one without ``w[x]`` and one times ``-w[x]`` whose
    every ``w[y]`` gains ``w[x]^c_y``.
    """
    fam = FAMILIES[family]
    n = len(fam.coords)
    start = {y: tuple(int(i == j) for j in range(n)) for i, y in enumerate(fam.coords)}
    terms = [(1, (0,) * n, start, ())]
    for x in reversed(fam.coords):
        upper = UPPER_BOUNDS[family].get(x)
        summed = []
        for sign, const, w, denominator in terms:
            rest = {y: v for y, v in w.items() if y != x}
            summed.append((sign, const, rest, denominator + (w[x],)))
            if upper is not None:
                shifted = {y: _plus(v, w[x], upper.get(y, 0)) for y, v in rest.items()}
                summed.append((-sign, _plus(const, w[x]), shifted, denominator + (w[x],)))
        terms = summed
    zctx = fam.zctx
    return gf_sum(
        RationalGF(zctx, LaurentPoly(zctx, {const: sign}), denominator)
        for sign, const, _, denominator in terms
    )
