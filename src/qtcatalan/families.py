"""The three shape families of run-length vectors, in one place.

A family fixes the shape of the run-length vector: three free runs
``(k1, k2, k3)``, four equal runs ``(k, k, k, k)``, or one short run followed
by three equal longer runs ``(k, k+m, k+m, k+m)``.  :class:`FamilyInfo`
records all a caller needs to know about a shape: the sizes that index its
members and their run lengths, the coordinates of its points, their region
(stated once, in :data:`UPPER_BOUNDS`) and the closed-form statistics on
them, and the variables of the family's generating functions.

This module imports only the errors and the polynomial layer, so the path
oracles in :mod:`.oracles` can read family data without the cones.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, NamedTuple, Tuple

from .errors import DomainError, UsageError, _integers
from .polynomial import Exponents, VariableContext

Point = Tuple[int, ...]


class FamilyInfo(NamedTuple):
    name: str
    coords: Tuple[str, ...]
    out_ctx: VariableContext  # marking variables, then q and t
    theorem_ctx: VariableContext  # size variables, then q and t
    stats: Callable[..., Tuple[int, int]]  # (area, bounce) of a coordinate point
    sizes: Callable[[int], Iterable[Point]]  # sizes summing to at most the bound
    size_count: Callable[[int], int]  # how many sizes(bound) yields
    kvector: Callable[[Point], Point]  # run lengths of the member with these sizes

    def out_exponents(self, point: Point) -> Exponents:
        """Image of a lattice point: marks, then q^area t^bounce."""
        area, bounce = self.stats(*point)
        marks = len(self.out_ctx) - 2
        return tuple(point[:marks]) + (area, bounce)

    @property
    def zctx(self) -> VariableContext:
        """One variable per coordinate, named after it."""
        return VariableContext(self.coords)

    @property
    def size_names(self) -> Tuple[str, ...]:
        """The theorem variables whose exponents are the sizes."""
        return self.theorem_ctx.names[:-2]

    @property
    def specialize(self) -> Dict[str, Exponents]:
        """Output variables to theorem variables: marks that the theorem drops go to 1."""
        ctx = self.theorem_ctx
        return {
            name: ctx.monomial(**({name: 1} if name in ctx else {}))
            for name in self.out_ctx.names
        }


# A region: every coordinate is >= 0, and each bounded one is <= a linear form in
# those before it.  family -> bounded coordinate -> {outer coordinate: coefficient}
UPPER_BOUNDS: Dict[str, Dict[str, Dict[str, int]]] = {
    "three": {"r2": {"k1": 1}, "r3": {"r2": 1, "k2": 1}},
    "k4": {"a": {"k": 1}, "b": {"k": 2, "a": -1}, "c": {"k": 3, "a": -1, "b": -1}},
    "kaaa": {"a": {"k": 1}, "b": {"k": 2, "m": 1, "a": -1}, "c": {"k": 3, "m": 2, "a": -1, "b": -1}},
}


def _check_region(name: str, point: Point) -> None:
    """Refuse a point that is not integers, or is outside the family's region,
    naming the first bound it breaks."""
    point = _integers(point, f"{name} point")
    for i, x, upper in _REGION_ROWS[name]:
        bound = 0
        for j, c in upper:
            bound += point[j] * c
        if point[i] < 0 or upper and point[i] > bound:
            raise DomainError(f"{name} point {point} is outside 0 <= {x}" + (f" <= {bound}" if upper else ""))


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


# -- closed forms, one per shape family: each holds on the closure of the path
# region (sizes may be 0), which the cone catalog relies on.


def stats_three(k1: int, k2: int, k3: int, r2: int, r3: int) -> Tuple[int, int]:
    """Area and bounce for a three-run path given the free ranks r2, r3."""
    _check_region("three", (k1, k2, k3, r2, r3))
    return _three_stats(k1, k2, k3, r2, r3)


def _three_stats(k1: int, k2: int, k3: int, r2: int, r3: int) -> Tuple[int, int]:
    """The closed form of :func:`stats_three` on a point inside the region."""
    area = r2 + r3
    gap = r2 + k2 - r3
    if gap >= 2 * min(r2, k2):
        bounce = 2 * (k1 - r2) + gap - min(r2, k2)
    else:
        bounce = 2 * (k1 - r2) + _ceil_div(gap, 2)
    return area, bounce


def stats_kaaa(k: int, m: int, a: int, b: int, c: int) -> Tuple[int, int]:
    """Area and bounce for runs (k, k+m, k+m, k+m).

    Coordinates relate to ranks by ``r2 = k - a``, ``r3 = 2k + m - a - b``,
    ``r4 = 3k + 2m - a - b - c``.  At m = 0 these are four equal runs of length k.
    In the band ``b <= 2(k - a)`` one rule gives the bounce: odd b reads the
    band at c - 1, and b = 0 and c = 0 are faces of the band, not cases of
    their own.  Above the band, two more rules give it.
    """
    _check_region("kaaa", (k, m, a, b, c))
    return _kaaa_stats(k, m, a, b, c)


def _stats_k4(k: int, a: int, b: int, c: int) -> Tuple[int, int]:
    """:func:`stats_kaaa` at m = 0, refusing a point outside the k4 region."""
    _check_region("k4", (k, a, b, c))
    return _kaaa_stats(k, 0, a, b, c)


def _kaaa_stats(k: int, m: int, a: int, b: int, c: int) -> Tuple[int, int]:
    """The closed form of :func:`stats_kaaa` on a point inside the region."""
    area = 6 * k + 3 * m - 3 * a - 2 * b - c
    hb = _ceil_div(b, 2)
    if b <= 2 * (k - a):
        c -= b % 2
        if c <= 3 * (k - a - hb):
            bounce = 3 * a + 2 * hb + _ceil_div(c, 3)
        elif c <= 3 * (k - hb) - a + 2 * m:
            bounce = 2 * a + hb + k + _ceil_div(c - 3 * (k - a - hb), 2)
        else:
            bounce = c - 2 * k + 4 * a + 4 * hb - m
    else:
        if c <= 2 * (2 * k - a + m - b):
            bounce = 5 * a + 2 * b - 2 * k + _ceil_div(c, 2)
        else:
            bounce = 6 * a + 3 * b - 4 * k + c - m
    return area, bounce


THREE_OUT = VariableContext(("x1", "x2", "x3", "q", "t"))
K4_OUT = VariableContext(("x", "y1", "y2", "y3", "q", "t"))
K4_THEOREM = VariableContext(("x", "q", "t"))
KAAA_OUT = VariableContext(("x", "y", "z1", "z2", "z3", "q", "t"))
KAAA_THEOREM = VariableContext(("x", "y", "q", "t"))

FAMILIES: Dict[str, FamilyInfo] = {
    "three": FamilyInfo(
        name="three",
        coords=("k1", "k2", "k3", "r2", "r3"),
        out_ctx=THREE_OUT,
        theorem_ctx=THREE_OUT,
        stats=stats_three,
        sizes=lambda bound: (
            (k1, k2, k3)
            for k1 in range(1, bound + 1)
            for k2 in range(1, bound - k1 + 1)
            for k3 in range(1, bound - k1 - k2 + 1)
        ),
        size_count=lambda bound: math.comb(bound, 3),
        kvector=tuple,
    ),
    "k4": FamilyInfo(
        name="k4",
        coords=("k", "a", "b", "c"),
        out_ctx=K4_OUT,
        theorem_ctx=K4_THEOREM,
        stats=_stats_k4,
        sizes=lambda bound: ((k,) for k in range(1, bound + 1)),
        size_count=lambda bound: bound,
        kvector=lambda sizes: tuple(sizes) * 4,
    ),
    "kaaa": FamilyInfo(
        name="kaaa",
        coords=("k", "m", "a", "b", "c"),
        out_ctx=KAAA_OUT,
        theorem_ctx=KAAA_THEOREM,
        stats=stats_kaaa,
        sizes=lambda bound: ((k, m) for k in range(1, bound + 1) for m in range(bound - k + 1)),
        size_count=lambda bound: bound * (bound + 1) // 2,
        kvector=lambda sizes: (sizes[0],) + (sizes[0] + sizes[1],) * 3,
    ),
}

# family -> (index, coordinate, ((outer index, coefficient), ...)) per coordinate, in order
_REGION_ROWS = {
    name: [(i, x, [(fam.coords.index(y), c) for y, c in UPPER_BOUNDS[name].get(x, {}).items()])
           for i, x in enumerate(fam.coords)]
    for name, fam in FAMILIES.items()
}

# the family whose shape (k, a, a, a) the symmetry scan extends to other lengths
REPEATED_TAIL = "kaaa"


def family(name: str) -> FamilyInfo:
    """The family called ``name``; any other name is a usage error."""
    try:
        return FAMILIES[name]
    except KeyError:
        raise UsageError(f"unknown family {name!r}; expected one of {', '.join(FAMILIES)}") from None
