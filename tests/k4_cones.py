"""The paper's own cones, kept as an oracle: three-run C1, C2 and the overlap,
and the nine cases of four equal runs.

The catalog stores each case as one piece.  Three's C1, C2 and overlap are
pieces with the single base 0, and ``catalog.case_catalog("k4")`` derives its
cases from kaaa's at m = 0.  The cones below are the paper's own, written out
by hand (``CONES``, by case id): for k4, fractional apexes, open facets and one
correction piece.  ``CASES`` builds each hand k4 case's piece from its cone:
the cone's integer-point transform, kept to the case's parity class, then
summed with its correction.  The tests check that three's pieces are these
cones' transforms, and that the hand k4 catalog assembles to the same printed
formula and covers the same points as the derived one.
"""

from fractions import Fraction
from functools import partial
from typing import Optional, Tuple

from qtcatalan.catalog import CaseSpec, _base, _ge, _gt, _piece
from qtcatalan.cones import HalfOpenCone, RationalGF, gf_sum, integer_point_transform
from qtcatalan.families import FAMILIES
from qtcatalan.polynomial import LaurentPoly

# three: coordinates (k1, k2, k3, r2, r3)
_E1 = (1, 0, 0, 0, 0)
_E2 = (0, 1, 0, 0, 0)
_E3 = (0, 0, 1, 0, 0)
_U = (1, 0, 0, 1, 0)
_S = (1, 0, 0, 1, 1)
_G = (1, 1, 0, 1, 0)
_H = (0, 1, 0, 0, 1)

# k4: coordinates (k, a, b, c)
_V1 = (1, 0, 2, 0)
_V2 = (1, 0, 0, 0)
_V3 = (1, 1, 0, 0)
_V4 = (1, 1, 1, 0)
_V5 = (1, 1, 1, 1)
_V6 = (1, 0, 2, 1)
_V7 = (1, 0, 0, 3)
_V8 = (1, 1, 0, 2)

ge, gt = partial(_ge, "k4"), partial(_gt, "k4")  # rows over k4's coordinates
_B_EVEN, _B_ODD = (2, 0), (2, 1)  # parity tests on b, coordinate 2

_K4_PART1 = ge(b=1, k=-2, a=2)  # b >= 2k - 2a
_K4_PART23 = gt(k=2, a=-2, b=-1)  # b < 2k - 2a
_HALF = Fraction(1, 2)

CONES = {
    "three.C1": HalfOpenCone(5, (0,) * 5, (_E1, _E3, _U, _S, _G)),
    "three.C2": HalfOpenCone(5, (0,) * 5, (_E1, _E2, _E3, _G, _H)),
    "three.overlap": HalfOpenCone(5, (0,) * 5, (_E1, _E3, _G)),
    "k4.P1C1A": HalfOpenCone(4, (0,) * 4, (_V1, _V4, _V6, _V8)),
    "k4.P1C1B": HalfOpenCone(4, (0,) * 4, (_V4, _V5, _V6, _V8), (False, True, False, False)),
    "k4.P1C2": HalfOpenCone(4, (0,) * 4, (_V1, _V3, _V4, _V8), (False, True, False, False)),
    "k4.P2C1": HalfOpenCone(4, (0,) * 4, (_V1, _V6, _V7, _V8), (False, False, True, False)),
    "k4.P2C2": HalfOpenCone(4, (0,) * 4, (_V1, _V3, _V7, _V8), (False, True, True, False)),
    "k4.P2C3": HalfOpenCone(4, (0,) * 4, (_V1, _V2, _V3, _V7), (False, True, False, False)),
    "k4.P3C1": HalfOpenCone(
        4, (-_HALF, 0, -1, -_HALF), (_V1, _V6, _V7, _V8), (False, False, True, False)
    ),
    "k4.P3C2": HalfOpenCone(4, (0, 0, 0, -_HALF), (_V1, _V3, _V7, _V8), (False, True, True, False)),
    "k4.P3C3": HalfOpenCone(
        4, (Fraction(1, 6), 0, 0, 0), (_V1, _V2, _V3, _V7), (False, True, False, False)
    ),
}


def _case(
    case_id: str, region: tuple, parity: Optional[Tuple[int, int]] = None,
    correction: Optional[RationalGF] = None,
) -> CaseSpec:
    """The hand k4 case: its cone's integer-point transform, with the bases
    outside its parity class dropped, then summed with its correction."""
    zctx = FAMILIES["k4"].zctx
    piece = integer_point_transform(CONES[case_id], zctx)
    if parity is not None:
        coord, residue = parity
        kept = {b: c for b, c in piece.numerator.terms.items() if b[coord] % 2 == residue}
        piece = RationalGF(zctx, LaurentPoly(zctx, kept), piece.denominator)
    if correction is not None:
        piece = gf_sum([piece, correction])
    return CaseSpec(case_id, "k4", region + _base("k4"), piece, parity)


CASES = (
    _case("k4.P1C1A", (_K4_PART1, ge(c=1, k=-4, a=2, b=2))),
    _case("k4.P1C1B", (_K4_PART1, ge(c=1, k=-4, a=2, b=2))),
    _case("k4.P1C2", (_K4_PART1, gt(k=4, a=-2, b=-2, c=-1))),
    _case("k4.P2C1", (_K4_PART23, ge(c=1, k=-3, a=1, b=Fraction(3, 2))), _B_EVEN),
    _case(
        "k4.P2C2",
        (
            _K4_PART23,
            ge(c=1, k=-3, a=3, b=Fraction(3, 2)),
            gt(k=3, a=-1, b=Fraction(-3, 2), c=-1),
        ),
        _B_EVEN,
    ),
    _case("k4.P2C3", (_K4_PART23, gt(k=3, a=-3, b=Fraction(-3, 2), c=-1)), _B_EVEN),
    _case(
        "k4.P3C1",
        (_K4_PART23, ge(const=_HALF, c=1, k=-3, a=1, b=Fraction(3, 2))),
        _B_ODD,
        _piece("k4", {(0, 0, -1, 1): -1}, (_V7, _V8)),
    ),
    _case(
        "k4.P3C2",
        (
            _K4_PART23,
            ge(const=_HALF, c=1, k=-3, a=3, b=Fraction(3, 2)),
            gt(const=-_HALF, k=3, a=-1, b=Fraction(-3, 2), c=-1),
        ),
        _B_ODD,
    ),
    _case(
        "k4.P3C3",
        (_K4_PART23, gt(const=-_HALF, k=3, a=-3, b=Fraction(-3, 2), c=-1)),
        _B_ODD,
    ),
)
