"""The paper's own k4 case catalog: nine half-open cones, kept as an oracle.

``catalog.case_catalog("k4")`` derives its cases from kaaa's at m = 0.  The
cases below are the four-equal-runs theorem's own decomposition, written out
by hand: fractional apexes, open facets and one correction piece.  The tests
check that it assembles to the same printed formula and covers the same
points as the derived catalog.
"""

from fractions import Fraction
from typing import Tuple

from qtcatalan.catalog import CaseSpec, _base, _ge, _gt, _piece
from qtcatalan.cones import HalfOpenCone

_V1 = (1, 0, 2, 0)
_V2 = (1, 0, 0, 0)
_V3 = (1, 1, 0, 0)
_V4 = (1, 1, 1, 0)
_V5 = (1, 1, 1, 1)
_V6 = (1, 0, 2, 1)
_V7 = (1, 0, 0, 3)
_V8 = (1, 1, 0, 2)

_K4_PART1 = _ge(b=1, k=-2, a=2)  # b >= 2k - 2a
_K4_PART23 = _gt(k=2, a=-2, b=-1)  # b < 2k - 2a


def _k4_cases() -> Tuple[CaseSpec, ...]:
    base = _base("k4")
    half = Fraction(1, 2)
    return (
        CaseSpec(
            case_id="k4.P1C1A",
            family="k4",
            region=(_K4_PART1, _ge(c=1, k=-4, a=2, b=2)) + base,
            realization=HalfOpenCone(4, (0,) * 4, (_V1, _V4, _V6, _V8)),
        ),
        CaseSpec(
            case_id="k4.P1C1B",
            family="k4",
            region=(_K4_PART1, _ge(c=1, k=-4, a=2, b=2)) + base,
            realization=HalfOpenCone(
                4, (0,) * 4, (_V4, _V5, _V6, _V8), (False, True, False, False)
            ),
        ),
        CaseSpec(
            case_id="k4.P1C2",
            family="k4",
            region=(_K4_PART1, _gt(k=4, a=-2, b=-2, c=-1)) + base,
            realization=HalfOpenCone(
                4, (0,) * 4, (_V1, _V3, _V4, _V8), (False, True, False, False)
            ),
        ),
        CaseSpec(
            case_id="k4.P2C1",
            family="k4",
            region=(_K4_PART23, _ge(c=1, k=-3, a=1, b=Fraction(3, 2))) + base,
            realization=HalfOpenCone(
                4, (0,) * 4, (_V1, _V6, _V7, _V8), (False, False, True, False)
            ),
            parity=("b", "even"),
        ),
        CaseSpec(
            case_id="k4.P2C2",
            family="k4",
            region=(
                _K4_PART23,
                _ge(c=1, k=-3, a=3, b=Fraction(3, 2)),
                _gt(k=3, a=-1, b=Fraction(-3, 2), c=-1),
            ) + base,
            realization=HalfOpenCone(
                4, (0,) * 4, (_V1, _V3, _V7, _V8), (False, True, True, False)
            ),
            parity=("b", "even"),
        ),
        CaseSpec(
            case_id="k4.P2C3",
            family="k4",
            region=(_K4_PART23, _gt(k=3, a=-3, b=Fraction(-3, 2), c=-1)) + base,
            realization=HalfOpenCone(
                4, (0,) * 4, (_V1, _V2, _V3, _V7), (False, True, False, False)
            ),
            parity=("b", "even"),
        ),
        CaseSpec(
            case_id="k4.P3C1",
            family="k4",
            region=(_K4_PART23, _ge(const=half, c=1, k=-3, a=1, b=Fraction(3, 2))) + base,
            realization=HalfOpenCone(
                4, (-half, 0, -1, -half), (_V1, _V6, _V7, _V8), (False, False, True, False)
            ),
            parity=("b", "odd"),
            corrections=(_piece("k4", {(0, 0, -1, 1): -1}, (_V7, _V8)),),
        ),
        CaseSpec(
            case_id="k4.P3C2",
            family="k4",
            region=(
                _K4_PART23,
                _ge(const=half, c=1, k=-3, a=3, b=Fraction(3, 2)),
                _gt(const=-half, k=3, a=-1, b=Fraction(-3, 2), c=-1),
            ) + base,
            realization=HalfOpenCone(
                4, (0, 0, 0, -half), (_V1, _V3, _V7, _V8), (False, True, True, False)
            ),
            parity=("b", "odd"),
        ),
        CaseSpec(
            case_id="k4.P3C3",
            family="k4",
            region=(_K4_PART23, _gt(const=-half, k=3, a=-3, b=Fraction(-3, 2), c=-1)) + base,
            realization=HalfOpenCone(
                4, (Fraction(1, 6), 0, 0, 0), (_V1, _V2, _V3, _V7), (False, True, False, False)
            ),
            parity=("b", "odd"),
        ),
    )


CASES = _k4_cases()
