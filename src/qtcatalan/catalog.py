"""Case catalogs that assemble the three product-formula generating functions.

Each supported shape family (three free run lengths; four equal runs; one
short run followed by three equal longer runs) comes with a fixed list of
:class:`CaseSpec` cases, declared as entries ``(case_id, own rows, parity,
{base: coefficient}, generators)`` and built by one builder, :func:`_cases`.
A case's five fields record, as literal data:

* ``case_id`` and ``family``,
* the ``region`` of path coordinates it covers, as integer rows
  ``(const, coefficients)`` over the family's coordinates, each meaning
  ``const + row . x >= 0``: the case's own rows, written by coordinate name
  with ``_ge``, ``_gt`` and ``_eq``, before the family's base rows from
  ``families.UPPER_BOUNDS``, which cannot tell one case from another, so
  :func:`case_membership` mostly stops at a case's own rows; and an optional
  ``parity`` test ``(coordinate index, residue mod 2)``,
* its lattice points as one ``piece`` ``sum c z^b / prod (1 - z^v)``, a
  :class:`~.cones.RationalGF` in the family's coordinate variables: signed
  base points over a free generator set, the case's sign in the coefficients.

``CaseSpec.__init__`` checks a case once, when it is built: a known family,
integer rows of the family's width, a parity test in range, a piece in the
family's coordinate variables and, under a parity test, every generator even
in its coordinate and every base in its class, so each point the piece covers
passes the test.

The four-equal-runs family k4 is the short-run family kaaa at m = 0, so its
entries are kaaa's cut to that face: each kaaa entry with a base at m = 0
gives one k4 entry, its own rows, bases and generators cut by one slice that
drops column m.  kaaa's entries are built once, into one immutable table that
both families read.

Lattice points map to generating-function monomials pointwise, through the
family's closed-form statistics.
:func:`assemble_case` turns one case into a rational generating function and
:func:`assemble_theorem` sums a family, specializing marking variables to 1,
which the verification layer compares against the transcribed product
formulas from :func:`printed_theorem`.

The partition checks :func:`signed_multiplicity` and :func:`case_membership`
run compiled kernels, each one Python function of integer code, built once:
each family's coverage table becomes one product per row direction and then a
tree of ``if`` tests, each test shared by the bases below it written once
(:func:`_coverage_kernel`); each distinct region with its parity test becomes
one ``and`` chain, which cases with the same region share.
The source of such a function is safe to compile.  It is assembled only from
literal templates in this module, the synthetic names ``x0, x1, ...`` and
``v0, v1, ...``, and numbers, values derived from a base's rows among them,
written with ``%d`` after an ``operator.index`` pass over each row or line of
them (``CaseSpec.__init__`` reads a case's rows and parity test as ints,
``_piece`` its bases, and ``_integers`` in ``_linear`` and ``_source`` each
line).  No outside text reaches it: a point is the function's argument, which
its first lines read once.  A plain tuple of ints of the family's width is
unpacked; any other point goes through ``coordinates``, :func:`_coordinates`
bound to the family, which raises its own error.  Only ``type``, ``int``,
``tuple``, ``len`` and ``coordinates`` are in its namespace.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Mapping, Set
from fractions import Fraction
from functools import cache, cached_property, lru_cache, partial
from operator import mul
from types import MappingProxyType
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .cones import RationalGF, gf_substitute, gf_sum
from .errors import Frozen, InternalInvariantError, UsageError, _integer, _integers
from .families import FAMILIES, UPPER_BOUNDS, FamilyInfo, Point, family as family_info
from .lattice import diagonal_form
from .polynomial import Exponents, LaurentPoly, add_terms


Row = Tuple[int, Point]  # (const, one coefficient per family coordinate): const + row . x >= 0
Entry = Tuple[str, Tuple[Row, ...], Optional[Tuple[int, int]], Mapping[Point, int], Sequence[Point]]


def _ge(fam: str, /, const=0, **coeffs) -> Row:
    """``const + sum coeff * coordinate >= 0`` as a row over the family's coordinates,
    times the lcm of its denominators; a name that is not a coordinate is a UsageError."""
    coords = family_info(fam).coords
    if not all(type(c) is int for c in (const, *coeffs.values())):  # scale by the lcm
        const, coeffs = Fraction(const), {name: Fraction(c) for name, c in coeffs.items()}
        scale = math.lcm(const.denominator, *(c.denominator for c in coeffs.values()))
        const, coeffs = int(const * scale), {name: int(c * scale) for name, c in coeffs.items()}
    row = tuple(coeffs.pop(name, 0) for name in coords)
    if coeffs:  # the names left are no coordinates
        raise UsageError(f"{sorted(coeffs)} are not coordinates of {fam}")
    return const, row


def _gt(fam: str, /, const=0, **coeffs) -> Row:
    """``... > 0``: the scaled value is an integer on integer points, so ``>= 1``."""
    const, row = _ge(fam, const, **coeffs)
    return const - 1, row


def _eq(fam: str, /, const=0, **coeffs) -> Tuple[Row, Row]:
    """``... == 0`` as the two opposite inequalities."""
    return _ge(fam, const, **coeffs), _ge(fam, -const, **{name: -c for name, c in coeffs.items()})


class CaseSpec(Frozen):
    """One case of a family's catalog, checked once when it is built (see the module docstring)."""

    # membership_kernel keeps its value in the instance dict
    _fields = ("case_id", "family", "region", "piece", "parity")
    __slots__ = _fields + ("__dict__",)

    def __init__(self, case_id: str, family: str, region: Sequence[Row], piece: RationalGF,
                 parity: Optional[Tuple[int, int]] = None):
        fam = family_info(family)
        width = len(fam.coords)
        region = tuple(region)
        if not all(isinstance(row, tuple) and len(row) == 2 for row in region):
            raise UsageError(f"{case_id}: a region row is not a pair (const, coefficients)")
        region = tuple((_integer(c, "region constants"), _integers(row, "region rows")) for c, row in region)
        if any(len(row) != width for _, row in region):
            raise UsageError(f"{case_id}: a region row does not have {width} coefficients")
        if not isinstance(piece, RationalGF) or piece.context != fam.zctx:
            raise UsageError(f"{case_id}: the piece is not in the variables {fam.zctx}")
        if parity is not None:
            parity = _integers(parity, "parity test")
            if len(parity) != 2 or not 0 <= parity[0] < width or parity[1] not in (0, 1):
                raise UsageError(f"{case_id}: parity test {parity} is not (coordinate index, 0 or 1)")
            (coord, residue), name = parity, fam.coords[parity[0]]
            if any(g[coord] % 2 for g in piece.denominator):
                raise InternalInvariantError(f"{case_id}: a generator is odd in {name}")
            if any(b[coord] % 2 != residue for b in piece.numerator.terms):
                raise InternalInvariantError(f"{case_id}: a base is not {('even', 'odd')[residue]} in {name}")
        self._set(case_id, family, region, piece, parity)

    @cached_property
    def membership_kernel(self) -> Callable[..., bool]:
        """:func:`case_membership` as one compiled ``and`` chain, shared by every case
        with the same family, rows and parity test."""
        return _membership_kernel(self.family, self.region, self.parity)


def _base(name: str) -> Tuple[Row, ...]:
    """The region's rows that a family's cases share: ``x >= 0``, then ``U - x >= 0`` if ``x <= U``."""
    rows = []
    for x in FAMILIES[name].coords:
        rows.append(_ge(name, **{x: 1}))
        if x in UPPER_BOUNDS[name]:
            rows.append(_ge(name, **UPPER_BOUNDS[name][x], **{x: -1}))
    return tuple(rows)


def _piece(family: str, bases: Mapping[Point, int], generators: Sequence[Point]) -> RationalGF:
    """``sum coef z^base / prod (1 - z^v)`` in the family's coordinate variables;
    a base, coefficient or generator that is not an integer is a DomainError."""
    zctx = FAMILIES[family].zctx
    terms = {_integers(base, "piece bases"): coef for base, coef in bases.items()}
    return RationalGF(zctx, LaurentPoly(zctx, terms), generators)


def _cases(family: str, entries: Iterable[Entry]) -> Tuple[CaseSpec, ...]:
    """The family's catalog: one case per entry ``(case_id, own rows, parity test,
    {base: coefficient}, generators)``, its own rows before the family's base rows."""
    base = _base(family)
    return tuple(
        CaseSpec(case_id, family, rows + base, _piece(family, bases, generators), parity)
        for case_id, rows, parity, bases, generators in entries
    )


# -- family "three": coordinates (k1, k2, k3, r2, r3) -------------------------

_E1 = (1, 0, 0, 0, 0)
_E2 = (0, 1, 0, 0, 0)
_E3 = (0, 0, 1, 0, 0)
_U = (1, 0, 0, 1, 0)
_S = (1, 0, 0, 1, 1)
_G = (1, 1, 0, 1, 0)
_H = (0, 1, 0, 0, 1)


def _three_entries() -> List[Entry]:
    ge, gt, eq = (partial(f, "three") for f in (_ge, _gt, _eq))
    c3 = (gt(k2=1, r2=-1, r3=1), gt(r2=1, k2=-1, r3=1))
    c3_gens, origin = (_E1, _E3, _G, _S, _H), (0,) * 5
    return [
        ("three.C1", (ge(r2=1, k2=-1, r3=-1), ge(r2=1, k2=-1)), None, {origin: 1}, (_E1, _E3, _U, _S, _G)),
        # gap condition relative to r2, the smaller side here
        ("three.C2", (ge(k2=1, r2=-1, r3=-1), ge(k2=1, r2=-1)), None, {origin: 1}, (_E1, _E2, _E3, _G, _H)),
        ("three.C3A", c3, None, {(1, 1, 0, 1, 2): 1}, c3_gens),
        ("three.C3B", c3, None, {(1, 1, 0, 1, 1): 1}, c3_gens),
        ("three.overlap", eq(r2=1, k2=-1) + eq(r3=1), None, {origin: -1}, (_E1, _E3, _G)),
    ]


# -- family "kaaa": coordinates (k, m, a, b, c) --------------------------------
#
# The pieces are reconstructed from the per-case generating functions: each
# denominator factor is a generator, each numerator term a base point, read
# off in the coordinates (k, m, a, b, c).

_W_KA = (1, 0, 1, 0, 0)  # one long-run unit of a
_W_M = (0, 1, 0, 0, 0)
_W_K = (1, 0, 0, 0, 0)
_W_C3 = (1, 0, 0, 0, 3)
_W_MC2 = (0, 1, 0, 0, 2)
_W_B2 = (1, 0, 0, 2, 0)
_W_AC2 = (1, 0, 1, 0, 2)
_W_B2C = (1, 0, 0, 2, 1)
_W_MB = (0, 1, 0, 1, 0)
_W_AB = (1, 0, 1, 1, 0)
_W_MBC = (0, 1, 0, 1, 1)
_W_ABC = (1, 0, 1, 1, 1)
_B_EVEN, _B_ODD = ((FAMILIES["kaaa"].coords.index("b"), r) for r in (0, 1))  # parity tests on b


def _kaaa_entries() -> List[Entry]:
    """kaaa's entries as a fresh list of the one table that kaaa and k4 read."""
    return list(_kaaa_table())


@cache
def _kaaa_table() -> Tuple[Entry, ...]:
    ge, gt, eq = (partial(f, "kaaa") for f in (_ge, _gt, _eq))
    in_band = (gt(b=1), ge(k=2, a=-2, b=-1))  # 0 < b <= 2(k - a)
    above_band = gt(b=1, k=-2, a=2)  # b > 2(k - a)
    p1c1 = eq(b=1) + eq(c=1)
    p1c2 = eq(b=1) + (gt(c=1), ge(k=3, a=-3, c=-1))
    p1c3 = eq(b=1) + (gt(c=1, k=-3, a=3),)
    p2 = in_band + eq(c=1)
    p3c1 = in_band + (gt(c=1), ge(k=3, a=-3, b=Fraction(-3, 2), c=-1))
    p3c2 = in_band + (
        gt(c=1, k=-3, a=3, b=Fraction(3, 2)),
        ge(k=3, m=2, a=-1, b=Fraction(-3, 2), c=-1),
    )
    p3c3 = in_band + (gt(c=1, k=-3, m=-2, a=1, b=Fraction(3, 2)),)
    p4c1 = in_band + (
        ge(const=-1, c=1),
        ge(const=Fraction(-1, 2), k=3, a=-3, b=Fraction(-3, 2), c=-1),
    )
    p4c2 = in_band + (
        gt(const=Fraction(1, 2), c=1, k=-3, a=3, b=Fraction(3, 2)),
        ge(const=Fraction(-1, 2), k=3, m=2, a=-1, b=Fraction(-3, 2), c=-1),
    )
    p4c3 = in_band + (gt(const=Fraction(1, 2), c=1, k=-3, m=-2, a=1, b=Fraction(3, 2)),)
    p5c1 = (above_band, ge(k=4, m=2, a=-2, b=-2, c=-1))
    p5c2 = (above_band, gt(c=1, k=-4, m=-2, a=2, b=2))

    entries = [
        ("kaaa.P1C1", p1c1, None, [(0, 0, 0, 0, 0)], [_W_KA, _W_M, _W_K]),
        (
            "kaaa.P1C2",
            p1c2,
            None,
            [(1, 0, 0, 0, 1), (1, 0, 0, 0, 2), (1, 0, 0, 0, 3)],
            [_W_C3, _W_K, _W_KA, _W_M],
        ),
        (
            "kaaa.P1C3a",
            p1c3,
            None,
            [(0, 1, 0, 0, 1), (0, 1, 0, 0, 2)],
            [_W_C3, _W_M, _W_KA, _W_MC2],
        ),
        (
            "kaaa.P1C3b",
            p1c3,
            None,
            [(1, 0, 1, 0, 1), (1, 0, 1, 0, 2)],
            [_W_C3, _W_KA, _W_AC2, _W_MC2],
        ),
        (
            "kaaa.P2",
            p2,
            None,
            [(1, 0, 0, 1, 0), (1, 0, 0, 2, 0)],
            [_W_KA, _W_M, _W_B2, _W_K],
        ),
        (
            "kaaa.P3C1",
            p3c1,
            _B_EVEN,
            [(2, 0, 0, 2, 1), (2, 0, 0, 2, 2), (2, 0, 0, 2, 3)],
            [_W_M, _W_B2, _W_KA, _W_C3, _W_K],
        ),
        (
            "kaaa.P3C2a",
            p3c2,
            _B_EVEN,
            [(1, 1, 0, 2, 1), (1, 1, 0, 2, 2)],
            [_W_M, _W_MC2, _W_C3, _W_B2, _W_KA],
        ),
        (
            "kaaa.P3C2b",
            p3c2,
            _B_EVEN,
            [(2, 0, 1, 2, 1), (2, 0, 1, 2, 2)],
            [_W_MC2, _W_C3, _W_B2, _W_KA, _W_AC2],
        ),
        (
            "kaaa.P3C3",
            p3c3,
            _B_EVEN,
            [(1, 0, 0, 2, 1)],
            [_W_C3, _W_MC2, _W_AC2, _W_B2, _W_B2C],
        ),
        (
            "kaaa.P4C1",
            p4c1,
            _B_ODD,
            [(1, 0, 0, 1, 1), (2, 0, 0, 1, 2), (2, 0, 0, 1, 3)],
            [_W_M, _W_B2, _W_KA, _W_C3, _W_K],
        ),
        (
            "kaaa.P4C2a",
            p4c2,
            _B_ODD,
            [(1, 1, 0, 1, 2), (1, 1, 0, 1, 3)],
            [_W_C3, _W_B2, _W_MC2, _W_KA, _W_M],
        ),
        (
            "kaaa.P4C2b",
            p4c2,
            _B_ODD,
            [(2, 0, 1, 1, 2), (2, 0, 1, 1, 3)],
            [_W_C3, _W_B2, _W_MC2, _W_KA, _W_AC2],
        ),
        (
            "kaaa.P4C3",
            p4c3,
            _B_ODD,
            [(1, 0, 0, 1, 2)],
            [_W_C3, _W_MC2, _W_AC2, _W_B2, _W_B2C],
        ),
        (
            "kaaa.P5C1a",
            p5c1,
            None,
            [(0, 1, 0, 1, 0), (0, 2, 0, 1, 1)],
            [_W_M, _W_MC2, _W_MB, _W_B2, _W_KA],
        ),
        (
            "kaaa.P5C1b",
            p5c1,
            None,
            [(1, 1, 1, 1, 1), (1, 1, 1, 1, 2)],
            [_W_MC2, _W_MB, _W_B2, _W_KA, _W_AC2],
        ),
        (
            "kaaa.P5C1c",
            p5c1,
            None,
            [(1, 0, 1, 1, 0), (2, 0, 2, 1, 1)],
            [_W_MB, _W_B2, _W_KA, _W_AC2, _W_AB],
        ),
        (
            "kaaa.P5C2a",
            p5c2,
            None,
            [(0, 1, 0, 1, 1)],
            [_W_MC2, _W_MB, _W_MBC, _W_B2, _W_AC2],
        ),
        (
            "kaaa.P5C2b",
            p5c2,
            None,
            [(1, 1, 0, 3, 2)],
            [_W_MC2, _W_MBC, _W_B2, _W_B2C, _W_AC2],
        ),
        (
            "kaaa.P5C2c",
            p5c2,
            None,
            [(1, 1, 1, 2, 1)],
            [_W_MB, _W_MBC, _W_B2, _W_AC2, _W_AB],
        ),
        (
            "kaaa.P5C2d",
            p5c2,
            None,
            [(2, 0, 1, 3, 1)],
            [_W_MBC, _W_B2, _W_B2C, _W_AC2, _W_AB],
        ),
        (
            "kaaa.P5C2e",
            p5c2,
            None,
            [(1, 0, 1, 1, 1)],
            [_W_MBC, _W_B2C, _W_AC2, _W_AB, _W_ABC],
        ),
    ]
    return tuple((case_id, rows, parity, MappingProxyType(dict.fromkeys(bases, 1)), tuple(gens))
                 for case_id, rows, parity, bases, gens in entries)


# -- family "k4": coordinates (k, a, b, c), kaaa's face m = 0 -------------------


def _k4_entries() -> List[Entry]:
    """kaaa's entries at m = 0, where runs (k, k+m, k+m, k+m) are (k, k, k, k).

    No kaaa base or generator has a negative m part, so a piece's points with
    m = 0 are its bases with m = 0 over its generators with m = 0; an entry
    with no such base has no point there.  An entry's own rows lose their m
    column, and the kaaa base rows at m = 0 are k4's (``families.UPPER_BOUNDS``).
    """
    m = FAMILIES["kaaa"].coords.index("m")  # the column that kaaa has and k4 lacks
    cut = lambda v: v[:m] + v[m + 1:]  # one slice for rows, bases and generators
    entries = []
    for case_id, rows, parity, bases, gens in _kaaa_entries():
        if any(v[m] < 0 for v in (*bases, *gens)):
            raise InternalInvariantError(f"{case_id}: a base or generator has m < 0")
        face = {cut(v): coef for v, coef in bases.items() if v[m] == 0}
        if face:
            entries.append(("k4" + case_id[4:], tuple((const, cut(row)) for const, row in rows),
                            parity and (parity[0] - (parity[0] > m), parity[1]),
                            face, [cut(g) for g in gens if g[m] == 0]))
    return entries


_CASES = {
    "three": lambda: _cases("three", _three_entries()),
    "k4": lambda: _cases("k4", _k4_entries()),
    "kaaa": lambda: _cases("kaaa", _kaaa_entries()),
}


@lru_cache(maxsize=None)
def case_catalog(name: str) -> Tuple[CaseSpec, ...]:
    """The fixed, ordered case list of a family."""
    return _CASES[family_info(name).name]()


def case_membership(spec: CaseSpec, point: Sequence[int]) -> bool:
    """Whether the point satisfies the case's region and parity constraints."""
    return spec.membership_kernel(point)


def _pointwise_map(zgf: RationalGF, fam: FamilyInfo) -> RationalGF:
    """Rebuild a coordinate-space GF in the output variables via statistics.

    Base points map through the family's closed-form statistics; each
    generator maps to the common increment it induces, which must agree
    across all base points.
    """
    bases = sorted(zgf.numerator.terms.items())
    if not bases:
        raise InternalInvariantError("cannot map an empty generating function")
    out = cache(fam.out_exponents)
    factors: List[Exponents] = []
    for gen in zgf.denominator:
        deltas = {
            tuple(o - b for o, b in zip(out(tuple(p + g for p, g in zip(base, gen))), out(base)))
            for base, _ in bases
        }
        if len(deltas) != 1:
            raise InternalInvariantError(
                f"generator {gen} induces inconsistent statistic increments: {sorted(deltas)}"
            )
        factors.append(deltas.pop())
    terms = add_terms({}, ((out(base), coef) for base, coef in bases))
    return RationalGF(fam.out_ctx, LaurentPoly(fam.out_ctx, terms), factors)


def assemble_case(spec: CaseSpec) -> RationalGF:
    """Signed generating function of one case, in the family's marked output variables."""
    return _pointwise_map(spec.piece, FAMILIES[spec.family])


def assemble_theorem(name: str) -> RationalGF:
    """Signed sum of the family's cases, marking variables set to 1.

    The substitution is a ring homomorphism, so each case is specialized
    first and the cases are added over one common denominator.
    """
    fam = family_info(name)
    images = fam.specialize
    return gf_sum(gf_substitute(assemble_case(spec), fam.theorem_ctx, images) for spec in case_catalog(name))


# -- transcribed product formulas ---------------------------------------------
#
# Each numerator is a signed sum of (stem, sign, body) groups, one per
# monomial in the size variables; each denominator lists the monomials m of
# its (1 - m) factors.  Overall signs are normalized so that the constant
# term is +1.

_THREE_NUMERATOR_GROUPS = (  # (1 - x1*x2*q*t^2)(1 - x1*x2*q^2*t), expanded
    ("1", 1, "1"),
    ("x1*x2", -1, "q*t^2 + q^2*t"),
    ("x1^2*x2^2", 1, "q^3*t^3"),
)

_K4_NUMERATOR_GROUPS = (
    ("1", 1, "1"),
    ("x", 1, "q^5*t + q*t^5 + q^4*t^2 + q^2*t^4 + q^4*t + q*t^4 + q^3*t^2 + q^2*t^3 + q^3*t^3"),
    ("x^2", 1,
     "-q^7*t^3 - q^3*t^7 + q^6*t^5 + q^5*t^6 - q^6*t^4 - q^4*t^6 - q^5*t^5 - q^5*t^4 - q^4*t^5"),
    ("x^3", -1, "q^8*t^8 + q^9*t^6 + q^6*t^9 + q^8*t^7 + q^7*t^8"),
)

_KAAA_NUMERATOR_GROUPS = (
    ("x^3*y^2", -1,
     "q^13*t^7 + q^7*t^13 + q^12*t^8 + q^8*t^12 + q^9*t^12 + q^12*t^9 + q^11*t^11"
     " + q^10*t^11 + q^11*t^10 + q^9*t^11 + q^11*t^9 + q^10*t^10"),
    ("x^2*y^2", 1,
     "q^11*t^5 + q^5*t^11 + q^10*t^6 + q^6*t^10 + q^8*t^9 + q^9*t^8 + q^7*t^9"
     " + q^9*t^7 + q^8*t^8 - q^7*t^8 - q^8*t^7 + q^7*t^7"),
    ("x*y^2", 1, "q^7*t^4 + q^4*t^7 + q^6*t^5 + q^5*t^6"),
    ("x^3*y", 1,
     "q^12*t^6 + q^6*t^12 + q^8*t^11 + q^11*t^8 + q^10*t^8 + q^8*t^10 + q^7*t^11"
     " + q^11*t^7 + q^7*t^10 + q^10*t^7 + 2*q^9*t^9 + q^8*t^9 + q^9*t^8"),
    ("x^2*y", 1,
     "q^10*t^3 + q^3*t^10 + q^5*t^7 + q^7*t^5 - q^5*t^9 - q^9*t^5 + q^4*t^9"
     " + q^9*t^4 + q^4*t^8 + q^8*t^4 + q^5*t^6 + q^6*t^5 - q^8*t^6 - q^6*t^8"),
    ("x*y", -1,
     "q*t^8 + q^8*t + q*t^7 + q^7*t + q^6*t^3 + q^3*t^6 + q^4*t^5 + q^5*t^4"
     " + q^2*t^5 + q^5*t^2 + 2*q^4*t^4 + q^5*t^3 + q^3*t^5 + 2*q^3*t^4 + 2*q^4*t^3"
     " + q^7*t^2 + q^2*t^7 + q^6*t^2 + q^2*t^6"),
    ("y", 1, "q^2*t + q*t^2"),
    ("x^3", -1, "q^9*t^6 + q^6*t^9 + q^8*t^7 + q^7*t^8 + q^8*t^8"),
    ("x^2", -1,
     "q^7*t^3 + q^3*t^7 - q^5*t^6 - q^6*t^5 + q^4*t^6 + q^6*t^4 + q^5*t^5 + q^4*t^5 + q^5*t^4"),
    ("x", 1, "q*t^5 + q^5*t + q^2*t^4 + q^4*t^2 + q*t^4 + q^4*t + q^3*t^3 + q^2*t^3 + q^3*t^2"),
    ("1", 1, "1"),
)

_FORMULAS = {
    "three": (_THREE_NUMERATOR_GROUPS, "x2*q x2*t x1*q*t x1*t^2 x1*q^2 x1*x2*q*t x3"),
    "k4": (_K4_NUMERATOR_GROUPS, "x*q^3*t x*q*t^3 x*q^2*t^2 x*q^6 x*t^6"),
    "kaaa": (
        _KAAA_NUMERATOR_GROUPS,
        "x*q^6 x*t^6 x*q^3*t x*q*t^3 x*q^2*t^2 y*q^3 y*t^3 y*q*t",
    ),
}


@lru_cache(maxsize=None)
def printed_theorem(name: str) -> RationalGF:
    """The closed product form that the family's assembled series must equal."""
    ctx = family_info(name).theorem_ctx
    groups, denominator = _FORMULAS[name]
    numerator = sum(
        (sign * LaurentPoly.parse(ctx, stem) * LaurentPoly.parse(ctx, body)
         for stem, sign, body in groups),
        LaurentPoly.zero(ctx),
    )
    factors = [next(iter(LaurentPoly.parse(ctx, m).terms)) for m in denominator.split()]
    return RationalGF(ctx, numerator, factors)


# -- signed point coverage (partition checks) ----------------------------------
#
# A piece covers ``point`` once per base ``b`` with ``point - b`` a nonnegative
# integer combination of its generators.  With the generators' integer
# inverse ``(P, T, L)`` that holds iff ``T point = T b`` and each entry of
# ``P point - P b`` is nonnegative and divisible by ``L``.  A coverage table
# keeps each distinct row of every ``P`` and ``T`` once, and each base as the
# values of its rows.  Compiled, a point costs one product per row direction
# and then only comparisons, each test that several bases share made once.

RowValues = Tuple[Tuple[int, int], ...]  # (row index, the row's value at the base)
Base = Tuple[int, RowValues, RowValues]  # signed coefficient, rows of P, rows of T
Group = Tuple[int, Tuple[Base, ...]]  # L, bases
Coverage = Tuple[Tuple[Point, ...], Tuple[Group, ...]]  # distinct rows, groups


def _coordinates(family: str, point: Sequence[int]) -> Point:
    """The point as ints, one per coordinate of the family; a set or mapping is a UsageError."""
    if isinstance(point, (Set, Mapping)):
        raise UsageError(f"a point must be a sequence, got a {type(point).__name__}")
    point = _integers(point, "point coordinates")
    expected = len(FAMILIES[family].coords)
    if len(point) != expected:
        raise UsageError(f"point has {len(point)} coordinates, expected {expected}")
    return point


def _coverage(specs: Iterable[CaseSpec]) -> Coverage:
    """The coverage table of the cases' pieces, bases grouped by generator set."""
    rows: Dict[Point, int] = {}
    groups: Dict[Tuple[Point, ...], Tuple[int, List[Base]]] = {}

    def values_at(matrix: Sequence[Point], base: Point) -> RowValues:
        return tuple((rows.setdefault(row, len(rows)), sum(map(mul, row, base))) for row in matrix)

    for spec in specs:
        piece = spec.piece
        generators = piece.denominator
        form = diagonal_form(generators)
        if form.rank != len(generators):
            raise InternalInvariantError("piece generators are linearly dependent")
        scaled, cokernel, lcm = form.inverse
        _, bases = groups.setdefault(generators, (lcm, []))
        bases.extend(
            (coef, values_at(scaled, base), values_at(cokernel, base))
            for base, coef in piece.numerator.terms.items()
        )
    return tuple(rows), tuple((lcm, tuple(bases)) for lcm, bases in groups.values())


@lru_cache(maxsize=None)
def _family_kernel(family: str) -> Callable[..., int]:
    """The family's coverage table as compiled code; an unknown family is
    a UsageError from :func:`case_catalog` before anything is built."""
    return _coverage_kernel(_coverage(case_catalog(family)), family)


def signed_multiplicity(family: str, point: Sequence[int]) -> int:
    """Signed number of catalog pieces covering a coordinate point."""
    return _family_kernel(family)(point)


# -- compiled kernels (see the module docstring for why the source is safe)


def _source(template: str, numbers: Sequence[int]) -> str:
    """``template`` with each number written by ``%d`` after ``operator.index``,
    one check for a whole line; a number that is not an integer is a DomainError."""
    return template % _integers(numbers, "kernel numbers")


def _linear(row: Sequence[int], const: int = 0) -> str:
    """``const + row . x`` as source, e.g. ``2*x0 -x2 +3``."""
    const, *row = _integers((const, *row), "kernel numbers")
    terms = ["%+d*x%d" % (c, i) for i, c in enumerate(row) if c]
    if const or not terms:
        terms.append("%+d" % const)
    # "+1*x2" is written "+x2", a multiply less; the leading "+" is dropped
    return " ".join(terms).replace("+1*", "+").replace("-1*", "-").lstrip("+")


@lru_cache(maxsize=None)
def _row_test(row: Row) -> str:
    """``row . x >= -const`` for a row ``(const, coefficients)``."""
    const, coeffs = row
    return _linear(coeffs) + _source(" >= %d", (-const,))


@lru_cache(maxsize=None)
def _membership_kernel(
    family: str, rows: Tuple[Row, ...], parity: Optional[Tuple[int, int]]
) -> Callable[..., bool]:
    """One ``and`` chain over a case's rows, ending in its parity test."""
    tests = [_row_test(row) for row in rows]
    if parity is not None:
        tests.append(_source("x%d %% 2 == %d", parity))
    return _kernel(family, [], " and ".join(tests) or "True")


def _kernel(family: str, lines: Sequence[str], result: str) -> Callable[..., int]:
    """The function of a point, read as the family's coordinates ``x0, x1, ...``
    (see the module docstring), that runs ``lines`` and returns ``result``."""
    width = len(FAMILIES[family].coords)
    names = "".join("x%d, " % i for i in range(width))
    ints = " or ".join("type(x%d) is not int" % i for i in range(width))
    read = ("if type(point) is not tuple or len(point) != %d: point = coordinates(point)" % width,
            names + "= point", f"if {ints}: {names}= coordinates(point)")
    body = "".join(f"    {line}\n" for line in [*read, *lines, f"return {result}"])
    namespace: dict = {"__builtins__": {}, "type": type, "int": int, "tuple": tuple, "len": len,
                       "coordinates": partial(_coordinates, family)}
    exec(f"def kernel(point):\n{body}", namespace)
    return namespace.pop("kernel")


# A base's tests on the value ``u`` of one direction (see ``_coverage_kernel``):
# (kind, direction index, numbers), written by the kind's template.  Sorting
# puts the equalities, which fail most often, first in each ``and`` chain.
Test = Tuple[int, ...]
_TESTS = ("v%d == %d", "v%d %% %d == %d", "v%d >= %d", "-v%d >= %d")


def _coverage_kernel(coverage: Coverage, family: str) -> Callable[..., int]:
    """The table's signed multiplicity: one product per row direction, then a
    tree of shared tests (:func:`_tree`).

    Each row is ``m`` times a primitive direction (first nonzero entry > 0)
    with value ``u`` at the point, and ``m*w`` at a base, ``w`` an integer as
    bases are integral.  So a cokernel test is ``u == w``, and a scaled test,
    ``m*u >= m*w`` with ``L | m*(u - w)``, is ``u % M == w % M`` for
    ``M = L // gcd(m, L)``, left out when ``M == 1``, and ``u >= w``, or
    ``-u >= -w`` when ``m < 0``.
    """
    rows, groups = coverage
    lines, directions, scales = [], {}, []  # direction -> its index; per row (index, m)
    for row in rows:  # no row of a generator inverse is zero
        g = math.gcd(*row)
        unit = tuple(x // g for x in row)
        direction, m = max((unit, g), (tuple(-x for x in unit), -g))  # first nonzero entry > 0
        if direction not in directions:
            directions[direction] = len(directions)
            lines.append(_source("v%d = ", (directions[direction],)) + _linear(direction))
        scales.append((directions[direction], m))
    bases = []
    for lcm, group in groups:
        for coef, scaled, cokernel in group:
            tests = {(0, scales[i][0], v // scales[i][1]) for i, v in cokernel}
            for i, v in scaled:
                j, m = scales[i]
                w, modulus = v // m, lcm // math.gcd(m, lcm)
                if modulus != 1:
                    tests.add((1, j, modulus, w % modulus))
                tests.add((2, j, w) if m > 0 else (3, j, -w))
            bases.append((coef, frozenset(tests)))
    return _kernel(family, [*lines, "t = 0", *_tree(bases)], "t")


def _tree(bases: Sequence[Tuple[int, FrozenSet[Test]]]) -> List[str]:
    """Lines that add each base's coefficient to ``t`` when its tests hold.

    The test held by the most bases (ties broken by the test itself) opens an
    ``if`` with every test its bases share; their other tests make the block,
    and the bases left are treated the same way.  A base with no test left
    adds its coefficient at once, so a test held by one base alone ends as
    ``if ...: t += c``; a block that adds nothing is dropped.
    """
    constant = sum(coef for coef, tests in bases if not tests)
    lines = [_source("t += %d", (constant,))] if constant else []
    bases = [(coef, tests) for coef, tests in bases if tests]
    while bases:
        counts = Counter(test for _, tests in bases for test in tests)
        split = min(counts, key=lambda test: (-counts[test], test))
        held = [(coef, tests) for coef, tests in bases if split in tests]
        bases = [(coef, tests) for coef, tests in bases if split not in tests]
        shared = frozenset.intersection(*(tests for _, tests in held))
        body = _tree([(coef, tests - shared) for coef, tests in held])
        condition = " and ".join(_source(_TESTS[kind], numbers) for kind, *numbers in sorted(shared))
        if len(body) == 1 and not body[0].startswith("if "):
            lines.append(f"if {condition}: {body[0]}")
        elif body:
            lines += [f"if {condition}:", *("    " + line for line in body)]
    return lines
