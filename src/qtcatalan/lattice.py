"""Exact integer lattice algebra through one diagonal form.

For integer columns ``V`` (a d x k matrix) :func:`diagonal_form` finds
unimodular ``U`` (d x d) and ``W`` (k x k) with ``U V W = diag(d_1, ..., d_r)``
and every ``d_i > 0``.  The factors need not form the divisibility chain of a
Smith normal form: the quotient of the saturated lattice by ``V Z^k`` is
``Z/d_1 + ... + Z/d_r`` either way.  Everything else follows from the form:

* the rank is ``r``;
* the index of ``V Z^k`` in its saturation is ``d_1 * ... * d_r``, which for
  ``k < d`` equals the gcd of the maximal minors;
* ``V lam = b`` has an integer solution iff ``U b`` vanishes past position
  ``r`` and each ``d_i`` divides entry ``i``, and then ``lam = W (y_i / d_i)``;
* the classes of ``lam`` modulo ``Z^k`` with ``shift + V lam`` integral are
  ``W ((y_i - s_i) / d_i)`` for ``s = U shift`` and ``y`` in the box of
  residues ``0 <= y_i < d_i``.

This module imports nothing from the rest of the package.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Iterator, List, Optional, Sequence, Tuple

Vector = Tuple[int, ...]
Matrix = Tuple[Vector, ...]


def _apply(matrix: Sequence[Sequence[int]], vector: Sequence) -> List:
    return [sum(map(mul, row, vector)) for row in matrix]


@dataclass(frozen=True)
class DiagonalForm:
    """``left @ V @ right = diag(factors)`` with unimodular ``left`` and ``right``."""

    factors: Vector
    left: Matrix
    right: Matrix

    @property
    def rank(self) -> int:
        return len(self.factors)

    @property
    def index(self) -> int:
        """Index of the lattice spanned by the columns inside its saturation."""
        return math.prod(self.factors)

    def solve(self, target: Sequence[int]) -> Optional[Vector]:
        """An integer ``lam`` with ``V lam = target``, or None if there is none.

        With dependent columns the solution sets the free coordinates of
        ``right^-1 lam`` to zero.
        """
        mu = []
        for row, factor in zip(self.left, self.factors):
            quotient, remainder = divmod(sum(map(mul, row, target)), factor)
            if remainder:
                return None
            mu.append(quotient)
        if any(_apply(self.left[self.rank:], target)):
            return None
        mu += [0] * (len(self.right) - self.rank)
        return tuple(_apply(self.right, mu))

    def cosets(self, shift: Sequence[Fraction]) -> Iterator[Tuple[Fraction, ...]]:
        """One ``lam`` per class of Q^k / Z^k with ``shift + V lam`` integral.

        Needs independent columns; yields nothing when ``shift`` lies off
        every lattice translate of the column span.
        """
        s = _apply(self.left, shift)
        if any(x.denominator != 1 for x in s[self.rank:]):
            return
        for y in itertools.product(*map(range, self.factors)):
            mu = [Fraction(entry - offset) / d for entry, offset, d in zip(y, s, self.factors)]
            yield tuple(_apply(self.right, mu))


def _identity(n: int) -> List[List[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


@lru_cache(maxsize=None)
def diagonal_form(columns: Tuple[Vector, ...]) -> DiagonalForm:
    """The diagonal form of the matrix whose columns are ``columns``.

    Pivots on the smallest nonzero entry left and clears its row and column
    by integer division until no remainder survives.
    """
    d, k = len(columns[0]), len(columns)
    a = [[columns[j][i] for j in range(k)] for i in range(d)]
    left, right = _identity(d), _identity(k)
    factors = []
    for t in range(min(d, k)):
        while True:
            nonzero = [(abs(a[i][j]), i, j) for i in range(t, d) for j in range(t, k) if a[i][j]]
            if not nonzero:
                break
            _, i, j = min(nonzero)
            a[t], a[i] = a[i], a[t]
            left[t], left[i] = left[i], left[t]
            for row in a + right:
                row[t], row[j] = row[j], row[t]
            pivot = a[t][t]
            cleared = True
            for i in range(t + 1, d):
                q = a[i][t] // pivot
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                    left[i] = [x - q * y for x, y in zip(left[i], left[t])]
                cleared = cleared and not a[i][t]
            for j in range(t + 1, k):
                q = a[t][j] // pivot
                if q:
                    for row in a + right:
                        row[j] -= q * row[t]
                cleared = cleared and not a[t][j]
            if cleared:
                break
        if not a[t][t]:
            break
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            left[t] = [-x for x in left[t]]
        factors.append(a[t][t])
    return DiagonalForm(
        tuple(factors), tuple(map(tuple, left)), tuple(map(tuple, right))
    )
