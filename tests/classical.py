"""Test oracles for two facts of the paper that only the tests check.

The closed-form statistics of :mod:`qtcatalan.families` agree with the
bounce pass :func:`~qtcatalan.paths.path_stats` on every path
(:func:`check_bounce_agreement`, which reads each path's coordinates through
:data:`COORDS_OF`), and at runs ``(1, ..., 1)`` the refined polynomial gives
back the classical one-variable q-Catalan numbers
(:func:`check_q_specializations`).  The code is as it was in
``qtcatalan.oracles`` and ``qtcatalan.families``, where no command used it,
but that the unit polynomial is the monomial ``q^0``: ``LaurentPoly.constant``,
which only this code called, is gone from the library too.
"""

from __future__ import annotations

from math import comb
from typing import Tuple

from qtcatalan.errors import DomainError, InternalInvariantError
from qtcatalan.families import Point, family
from qtcatalan.oracles import refined_catalan
from qtcatalan.paths import DyckPath, KVector, LegTable, enumerate_paths, path_stats
from qtcatalan.polynomial import LaurentPoly, VariableContext, substitute_monomials

Q_CONTEXT = VariableContext(("q",))


def _kaaa_coords(path: DyckPath) -> Point:
    parts, (_, r2, r3, r4) = path.kvec.parts, path.ranks
    k, m = parts[0], parts[1] - parts[0]
    a = k - r2
    b = 2 * k + m - a - r3
    c = 3 * k + 2 * m - a - b - r4
    return (k, m, a, b, c)


def _k4_coords(path: DyckPath) -> Point:
    k, _, a, b, c = _kaaa_coords(path)
    return (k, a, b, c)


# family -> the coordinates of a member's path
COORDS_OF = {
    "three": lambda path: path.kvec.parts + path.ranks[1:],
    "k4": _k4_coords,
    "kaaa": _kaaa_coords,
}


# -- closed-form vs algorithm agreement ---------------------------------------


def check_bounce_agreement(name: str, bound: int) -> bool:
    """Exhaustively compare the bounce pass :func:`path_stats` against the closed form.

    Raises :class:`InternalInvariantError` describing the first disagreement;
    a disagreement means one of the two implementations is wrong.
    """
    fam = family(name)
    vectors = [fam.kvector(sizes) for sizes in fam.sizes(bound)]
    legs = LegTable(vectors)
    for parts in vectors:
        for path in enumerate_paths(KVector(parts)):
            got = path_stats(path, legs)
            expected = fam.stats(*COORDS_OF[fam.name](path))
            if (got.area, got.bounce) != expected:
                raise InternalInvariantError(
                    f"stats disagree on runs {parts} ranks {path.ranks}: "
                    f"algorithm gives {(got.area, got.bounce)}, closed form {expected}"
                )
        legs.release(parts)
    return True


# -- one-variable specializations ----------------------------------------------


def q_binomial(n: int, k: int) -> LaurentPoly:
    """Gaussian binomial coefficient, by the q-Pascal recurrence.

    ``[i, j] = [i-1, j-1] + q^j [i-1, j]``, one row of ``[i, 0..k]`` at a time.
    """
    if not 0 <= k <= n:
        return LaurentPoly.zero(Q_CONTEXT)
    one = LaurentPoly.monomial(Q_CONTEXT, (0,))
    row = [one] + [LaurentPoly.zero(Q_CONTEXT)] * k
    for _ in range(n):
        row = [one] + [
            row[j - 1] + LaurentPoly.monomial(Q_CONTEXT, (j,)) * row[j] for j in range(1, k + 1)
        ]
    return row[k]


def carlitz_riordan(n: int) -> LaurentPoly:
    """q-Catalan polynomial from the weighted recurrence."""
    polys = [LaurentPoly.monomial(Q_CONTEXT, (0,))]
    for size in range(1, n + 1):
        total = LaurentPoly.zero(Q_CONTEXT)
        for k in range(1, size + 1):
            term = polys[k - 1] * polys[size - k]
            total = total + LaurentPoly.monomial(Q_CONTEXT, (k - 1,)) * term
        polys.append(total)
    return polys[n]


def macmahon_q_catalan(n: int) -> LaurentPoly:
    """``[2n, n] / [n + 1]``, as ``[2n, n] - q [2n, n + 1]`` (Fürlinger and Hofbauer)."""
    return q_binomial(2 * n, n) - LaurentPoly.monomial(Q_CONTEXT, (1,)) * q_binomial(2 * n, n + 1)


def _specialize_qt(poly: LaurentPoly, q_image: Tuple[int], t_image: Tuple[int]) -> LaurentPoly:
    return substitute_monomials(poly, Q_CONTEXT, {"q": q_image, "t": t_image})


def check_q_specializations(n: int) -> bool:
    """Classical one-variable identities for runs (1, 1, ..., 1) of length n."""
    if n < 1:
        raise DomainError("n must be positive")
    cn = refined_catalan((1,) * n)
    at_t1 = _specialize_qt(cn, (1,), (0,))
    at_q1 = _specialize_qt(cn, (0,), (1,))
    if at_t1 != carlitz_riordan(n):
        return False
    if at_t1 != at_q1:
        return False
    inverted = _specialize_qt(cn, (1,), (-1,))
    shifted = LaurentPoly.monomial(Q_CONTEXT, (comb(n, 2),)) * inverted
    return shifted == macmahon_q_catalan(n)
