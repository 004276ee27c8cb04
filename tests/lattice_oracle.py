"""The Fraction cosets and the base-by-base solve, kept as test oracles.

These are the algorithms ``parallelepiped_points`` and the catalog coverage
used before they moved to integers: Π from ``Fraction`` coset coefficients,
and coverage by one ``DiagonalForm.solve`` per base of every piece.  The
methods ``solve`` and ``cosets`` became functions of the form, and a piece is
a ``(bases, generators)`` pair of this file's own, read off a case's piece as
the numerator's terms and the denominator; otherwise the code is unchanged.
The tests compare the package's integer versions with them.  ``minor_gcd`` is an
independent index and rank check by cofactor expansion.  ``case_membership``
evaluates each region row by a plain sum, not through a compiled kernel.
``_multiplicity`` is the interpreter that read a coverage table row by row
before the table was compiled into straight-line code; it is a second
reference beside the per-base solve.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import mul
from typing import Iterator, List, Optional, Sequence, Tuple

from qtcatalan.catalog import CaseSpec, Coverage, case_catalog
from qtcatalan.cones import HalfOpenCone, RationalGF
from qtcatalan.errors import InternalInvariantError
from qtcatalan.lattice import DiagonalForm, diagonal_form

Vector = Tuple[int, ...]
Point = Tuple[int, ...]
Piece = Tuple[Tuple[Tuple[int, Point], ...], Tuple[Vector, ...]]  # (coef, base)s, generators


def _apply(matrix: Sequence[Sequence[int]], vector: Sequence) -> List:
    return [sum(map(mul, row, vector)) for row in matrix]


def minor_gcd(generators):
    """gcd of the maximal minors, each by cofactor expansion; 0 iff dependent."""

    def det(m):
        if not m:
            return 1
        return sum(
            (-1) ** j * m[0][j] * det([row[:j] + row[j + 1 :] for row in m[1:]])
            for j in range(len(m))
        )

    d = len(generators[0])
    return math.gcd(*(
        det([[g[i] for g in generators] for i in rows])
        for rows in itertools.combinations(range(d), len(generators))
    ))


def solve(form: DiagonalForm, target: Sequence[int]) -> Optional[Vector]:
    """An integer ``lam`` with ``V lam = target``, or None if there is none.

    With dependent columns the solution sets the free coordinates of
    ``right^-1 lam`` to zero.
    """
    mu = []
    for row, factor in zip(form.left, form.factors):
        quotient, remainder = divmod(sum(map(mul, row, target)), factor)
        if remainder:
            return None
        mu.append(quotient)
    if any(_apply(form.left[form.rank:], target)):
        return None
    mu += [0] * (len(form.right) - form.rank)
    return tuple(_apply(form.right, mu))


def cosets(form: DiagonalForm, shift: Sequence[Fraction]) -> Iterator[Tuple[Fraction, ...]]:
    """One ``lam`` per class of Q^k / Z^k with ``shift + V lam`` integral.

    Needs independent columns; yields nothing when ``shift`` lies off
    every lattice translate of the column span.
    """
    s = _apply(form.left, shift)
    if any(x.denominator != 1 for x in s[form.rank:]):
        return
    for y in itertools.product(*map(range, form.factors)):
        mu = [Fraction(entry - offset) / d for entry, offset, d in zip(y, s, form.factors)]
        yield tuple(_apply(form.right, mu))


def parallelepiped_points(cone: HalfOpenCone) -> List[Tuple[int, ...]]:
    """Integer points of the fundamental parallelepiped, sorted.

    A point qualifies when ``p - apex = sum lam_j v_j`` with each coefficient
    in [0, 1) for a closed generator and (0, 1] for an open one.  Each class
    of ``lam`` modulo 1 that lands on an integer point is reduced into that
    range, so there is one point per coset of the generators' lattice.
    """
    points = []
    for lams in cosets(diagonal_form(cone.generators), cone.apex):
        reduced = []
        for lam, is_open in zip(lams, cone.open_flags):
            lam -= math.floor(lam)
            reduced.append(1 if is_open and not lam else lam)
        points.append(tuple(
            int(a + sum(lam * g[i] for lam, g in zip(reduced, cone.generators)))
            for i, a in enumerate(cone.apex)
        ))
    points.sort()
    return points


def _gf_piece(gf: RationalGF) -> Piece:
    """A piece's numerator terms as signed bases over its denominator."""
    return tuple((coef, base) for base, coef in gf.numerator.terms.items()), gf.denominator


def _piece_covers(piece: Piece, point: Point) -> int:
    bases, generators = piece
    form = diagonal_form(generators)
    if form.rank != len(generators):
        raise InternalInvariantError("piece generators are linearly dependent")
    total = 0
    for coef, base in bases:
        lams = solve(form, tuple(p - b for p, b in zip(point, base)))
        if lams is not None and min(lams) >= 0:
            total += coef
    return total


def _parity_holds(spec: CaseSpec, point: Sequence[int]) -> bool:
    """Whether the point meets the case's parity constraint, if it has one."""
    if spec.parity is None:
        return True
    coord, residue = spec.parity
    return point[coord] % 2 == residue


def case_membership(spec: CaseSpec, point: Sequence[int]) -> bool:
    """Whether the point satisfies the case's region and parity constraints."""
    return all(
        const + sum(c * x for c, x in zip(row, point)) >= 0 for const, row in spec.region
    ) and _parity_holds(spec, point)


def realized_multiplicity(spec: CaseSpec, point: Sequence[int]) -> int:
    """Signed number of times the case's piece hits a point of its parity class."""
    point = tuple(int(x) for x in point)
    if not _parity_holds(spec, point):
        return 0
    return _piece_covers(_gf_piece(spec.piece), point)


def signed_multiplicity(family: str, point: Sequence[int]) -> int:
    """Signed number of catalog pieces covering a coordinate point."""
    return sum(realized_multiplicity(spec, point) for spec in case_catalog(family))


def _multiplicity(coverage: Coverage, point: Point) -> int:
    """Signed number of the table's bases from which the point is reached."""
    rows, groups = coverage
    values = [sum(map(mul, row, point)) for row in rows]
    total = 0
    for lcm, bases in groups:
        for coef, scaled, cokernel in bases:
            for i, v in scaled:
                u = values[i]
                if u < v or (u - v) % lcm:
                    break
            else:
                if all(values[i] == v for i, v in cokernel):
                    total += coef
    return total
