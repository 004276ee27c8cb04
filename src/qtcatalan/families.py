"""The three shape families of run-length vectors, in one place.

A family fixes the shape of the run-length vector: three free runs
``(k1, k2, k3)``, four equal runs ``(k, k, k, k)``, or one short run followed
by three equal longer runs ``(k, k+m, k+m, k+m)``.  :class:`FamilyInfo`
records all a caller needs to know about a shape: the sizes that index its
members and their run lengths, the coordinates of a path and the closed-form
statistics on them, and the variables of the family's generating functions.

This module imports only the path route and the polynomial layer, so the
path oracles in :mod:`.oracles` can read family data without the cones.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Dict, Iterable, NamedTuple, Tuple

from .errors import UsageError
from .paths import DyckPath, stats_kaaa, stats_three
from .polynomial import Exponents, VariableContext

Point = Tuple[int, ...]


class FamilyInfo(NamedTuple):
    name: str
    coords: Tuple[str, ...]
    out_ctx: VariableContext  # marking variables, then q and t
    theorem_ctx: VariableContext  # size variables, then q and t
    stats: Callable[..., Tuple[int, int]]  # (area, bounce) of a coordinate point
    sizes: Callable[[int], Iterable[Point]]  # sizes of the members checked up to a bound
    size_count: Callable[[int], int]  # how many of those sizes sum to at most the bound
    kvector: Callable[[Point], Point]  # run lengths of the member with these sizes
    coords_of: Callable[[DyckPath], Point]  # coordinates of a member's path

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
        sizes=lambda bound: itertools.product(range(1, bound + 1), repeat=3),
        size_count=lambda bound: math.comb(bound, 3),
        kvector=tuple,
        coords_of=lambda path: path.kvec.parts + path.ranks[1:],
    ),
    "k4": FamilyInfo(
        name="k4",
        coords=("k", "a", "b", "c"),
        out_ctx=K4_OUT,
        theorem_ctx=K4_THEOREM,
        stats=lambda k, a, b, c: stats_kaaa(k, 0, a, b, c),
        sizes=lambda bound: ((k,) for k in range(1, bound + 1)),
        size_count=lambda bound: bound,
        kvector=lambda sizes: tuple(sizes) * 4,
        coords_of=_k4_coords,
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
        coords_of=_kaaa_coords,
    ),
}

# the family whose shape (k, a, a, a) the symmetry scan extends to other lengths
REPEATED_TAIL = "kaaa"


def family(name: str) -> FamilyInfo:
    """The family called ``name``; any other name is a usage error."""
    try:
        return FAMILIES[name]
    except KeyError:
        raise UsageError(f"unknown family {name!r}; expected one of {', '.join(FAMILIES)}") from None
