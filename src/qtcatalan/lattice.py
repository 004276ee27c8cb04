"""Exact integer lattice algebra through one diagonal form.

For integer columns ``V`` (a d x k matrix) :func:`diagonal_form` finds
unimodular ``U`` (d x d) and ``W`` (k x k) with ``U V W = diag(d_1, ..., d_r)``
and every ``d_i > 0``.  The factors need not form the divisibility chain of a
Smith normal form: the quotient of the saturated lattice by ``V Z^k`` is
``Z/d_1 + ... + Z/d_r`` either way.  Everything else follows from the form:

* the rank is ``r``;
* the index of ``V Z^k`` in its saturation is ``d_1 * ... * d_r``, which for
  ``k < d`` equals the gcd of the maximal minors;
* with ``L = lcm(d_1, ..., d_r)``, ``P = W[:, :r] diag(L / d_i) U[:r]`` and
  ``T = U[r:]``, ``V lam = b`` has an integer solution iff ``T b = 0`` and
  ``L`` divides every entry of ``P b``, and then ``lam = P b / L`` (the
  free coordinates of ``W^-1 lam`` set to zero);
* the classes of ``lam`` modulo ``Z^k`` with ``shift + V lam`` integral are
  ``W ((y_i - s_i) / d_i)`` for ``s = U shift`` and ``y`` in the box of
  residues ``0 <= y_i < d_i``.

From the rest of the package this module imports only the leaf ``errors``,
for the :class:`~qtcatalan.errors.Frozen` base of :class:`DiagonalForm`.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property, lru_cache
from operator import mul
from typing import Iterator, List, NamedTuple, Sequence, Tuple

from .errors import Frozen

Vector = Tuple[int, ...]
Matrix = Tuple[Vector, ...]


def _apply(matrix: Sequence[Sequence[int]], vector: Sequence) -> List:
    return [sum(map(mul, row, vector)) for row in matrix]


class Inverse(NamedTuple):
    """``V lam = b`` has an integer solution iff ``cokernel b = 0`` and ``lcm``
    divides ``scaled b``; the solution is then ``scaled b / lcm``."""

    scaled: Matrix
    cokernel: Matrix
    lcm: int


class DiagonalForm(Frozen):
    """``left @ V @ right = diag(factors)`` with unimodular ``left`` and ``right``;
    a frozen value of those three, whose ``inverse`` is cached in its dict."""

    # the cached inverse keeps its value in the instance dict
    _fields = ("factors", "left", "right")
    __slots__ = _fields + ("__dict__",)

    def __init__(self, factors: Vector, left: Matrix, right: Matrix):
        self._set(factors, left, right)

    @property
    def rank(self) -> int:
        return len(self.factors)

    @property
    def index(self) -> int:
        """Index of the lattice spanned by the columns inside its saturation."""
        return math.prod(self.factors)

    @cached_property
    def inverse(self) -> Inverse:
        """``(P, T, L)``: the integer solve of ``V lam = b`` described above."""
        lcm = math.lcm(*self.factors)
        # the columns of diag(L / d_i) U[:r], one per coordinate (empty ones at rank 0)
        scaled_left = ([lcm // d * x for x in row] for d, row in zip(self.factors, self.left))
        columns = list(zip(*scaled_left)) or [()] * len(self.left)
        scaled = tuple(tuple(sum(map(mul, right_row, c)) for c in columns) for right_row in self.right)
        return Inverse(scaled, self.left[self.rank:], lcm)

    def cosets(self, shift: Sequence[int], denominator: int) -> Iterator[Vector]:
        """``lam * S mod S`` for each class of ``lam`` in Q^k / Z^k with
        ``shift / denominator + V lam`` integral, where ``S = denominator * L``.

        Needs independent columns; yields nothing when the shift lies off
        every lattice translate of the column span.
        """
        s = _apply(self.left, shift)
        if any(x % denominator for x in s[self.rank:]):
            return
        lcm = self.inverse.lcm
        scale = denominator * lcm
        steps = [lcm // d for d in self.factors]
        for y in itertools.product(*map(range, self.factors)):
            mu = [(entry * denominator - offset) * step for entry, offset, step in zip(y, s, steps)]
            yield tuple(x % scale for x in _apply(self.right, mu))


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
