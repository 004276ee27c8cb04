"""Golden tests for the case catalogs.

Every per-case generating function display is frozen here, in both the
coordinate variables (integer-point transforms) and the marked output
variables, and the assembled family sums are compared against the
transcribed product formulas.  The k4 cases are kaaa's at m = 0 and are
checked against them point by point; the frozen k4 displays are those of the
paper's hand-written cones in ``k4_cones``, kept as an oracle.
"""

import hashlib
import itertools
import math
import re
import tokenize
from fractions import Fraction
from functools import cache, partial
from io import StringIO
from typing import NamedTuple

import constraint_oracle
import k4_cones
import lattice_oracle
import pytest
from frozen_replace import replace
from hypothesis import example, given, settings
from hypothesis import strategies as st
from lattice_oracle import minor_gcd
from lift_oracle import gf_sum as sequential_gf_sum
from regions import region_gf, region_points

from qtcatalan import catalog
from qtcatalan.catalog import (
    CaseSpec,
    _coordinates,
    _coverage,
    _coverage_kernel,
    _eq,
    _ge,
    _gt,
    _kernel,
    _linear,
    _piece,
    _pointwise_map,
    assemble_case,
    assemble_theorem,
    case_catalog,
    case_membership,
    printed_theorem,
    signed_multiplicity,
)
from qtcatalan.cones import (
    RationalGF,
    gf_equals,
    gf_substitute,
    gf_sum,
    integer_point_transform,
    series_expand,
)
from qtcatalan.errors import DomainError, InternalInvariantError, UsageError
from qtcatalan.families import FAMILIES, UPPER_BOUNDS
from qtcatalan.oracles import refined_catalan
from qtcatalan.polynomial import QT_CONTEXT, LaurentPoly, VariableContext

Z4 = VariableContext(("y", "z1", "z2", "z3"))
OUT3 = FAMILIES["three"].out_ctx
OUT4 = FAMILIES["k4"].out_ctx
OUT5 = FAMILIES["kaaa"].out_ctx


def mono(ctx, text):
    ((exps, coef),) = LaurentPoly.parse(ctx, text).terms.items()
    assert coef == 1
    return exps


def gf(ctx, numerator, denominators):
    return RationalGF(ctx, LaurentPoly.parse(ctx, numerator), [mono(ctx, d) for d in denominators])


def by_id(family):
    return {spec.case_id: spec for spec in case_catalog(family)}


K4_HAND = {spec.case_id: spec for spec in k4_cones.CASES}  # the paper's own k4 cones


@cache
def realized(spec):
    """The case's own coverage table as straight-line code: the signed number
    of times its piece hits a point."""
    return _coverage_kernel(_coverage([spec]), spec.family)


def test_catalog_shapes():
    assert [s.case_id for s in case_catalog("three")] == [
        "three.C1",
        "three.C2",
        "three.C3A",
        "three.C3B",
        "three.overlap",
    ]
    assert len(case_catalog("k4")) == 13
    assert len(case_catalog("kaaa")) == 21
    assert list(case_catalog("three")[-1].piece.numerator.terms.values()) == [-1]
    with pytest.raises(UsageError):
        case_catalog("nope")


CATALOG_SHA256 = {  # of each catalog's repr: every id, row, parity test, base and generator, in order
    "three": "68de885a8521ad2928f5abe1c799adc81be10024916984f33b924fb2c7f3ce2a",
    "k4": "6a04a0fbf3005ff587ec8e39e4ed3c7c8661ccfbf3336f9262a9346a468f8f0e",
    "kaaa": "e9312dcfaf37739216b9985833515b252bc2d03f5e1ba45c2cb11708300fcd13",
}


@pytest.mark.parametrize("family", ["three", "k4", "kaaa"])
def test_the_catalog_data_is_pinned(family):
    assert hashlib.sha256(repr(case_catalog(family)).encode()).hexdigest() == CATALOG_SHA256[family]


# -- three-run family ---------------------------------------------------------


THREE_MARKED = {
    "three.C1": ("1", ["x1*t^2", "x3", "x1*q*t", "x1*q^2", "x1*x2*q*t"]),
    "three.C2": ("1", ["x1*t^2", "x2*t", "x3", "x1*x2*q*t", "x2*q"]),
    "three.C3A": ("x1*x2*q^3", ["x1*t^2", "x3", "x1*x2*q*t", "x2*q", "x1*q^2"]),
    "three.C3B": ("x1*x2*q^2*t", ["x1*t^2", "x3", "x1*x2*q*t", "x2*q", "x1*q^2"]),
    "three.overlap": ("-1", ["x1*t^2", "x3", "x1*x2*q*t"]),  # the piece carries the case's sign
}


def test_three_marked_displays():
    specs = by_id("three")
    for case_id, (num, den) in THREE_MARKED.items():
        assert assemble_case(specs[case_id]) == gf(OUT3, num, den), case_id


def test_three_split_cases_sum_to_the_whole_cone():
    specs = by_id("three")
    total = None
    for case_id in ("three.C3A", "three.C3B"):
        part = assemble_case(specs[case_id])
        total = part if total is None else RationalGF(
            OUT3, total.numerator + part.numerator, total.denominator
        )
    want = gf(
        OUT3,
        "x1*x2*q^3 + x1*x2*q^2*t",
        ["x1*t^2", "x3", "x1*x2*q*t", "x2*q", "x1*q^2"],
    )
    assert total == want


def test_three_s_cone_cases_are_their_cones_transforms():
    """C1, C2 and the overlap are closed cones at 0 with lattice index 1, so
    Π = {0} and each piece is its cone's integer-point transform, negated for
    the overlap."""
    zctx = FAMILIES["three"].zctx
    specs = by_id("three")
    for case_id in ("three.C1", "three.C2", "three.overlap"):
        cone = k4_cones.CONES[case_id]
        assert lattice_oracle.parallelepiped_points(cone) == [(0,) * 5], case_id
        transform = integer_point_transform(cone, zctx)
        assert specs[case_id].piece == (-transform if case_id == "three.overlap" else transform), case_id


def test_three_assembled_matches_printed():
    assert gf_equals(assemble_theorem("three"), printed_theorem("three"))


def test_three_printed_numerator():
    printed = printed_theorem("three")
    want = LaurentPoly.parse(OUT3, "1 - x1*x2*q*t^2") * LaurentPoly.parse(
        OUT3, "1 - x1*x2*q^2*t"
    )
    assert printed.numerator == want
    assert len(printed.denominator) == 7


# -- four-equal-runs family -----------------------------------------------------


K4_TRANSFORMS = {
    "k4.P1C1A": ("1", ["y*z2^2", "y*z1*z2", "y*z2^2*z3", "y*z1*z3^2"]),
    "k4.P1C1B": ("y*z1*z2*z3", ["y*z1*z2", "y*z1*z2*z3", "y*z2^2*z3", "y*z1*z3^2"]),
    "k4.P1C2": ("y*z1 + y*z1*z3", ["y*z2^2", "y*z1", "y*z1*z2", "y*z1*z3^2"]),
    "k4.P2C1": ("y*z3^3 + y*z2*z3^2", ["y*z2^2", "y*z2^2*z3", "y*z3^3", "y*z1*z3^2"]),
    # the odd-exponent bases below are discarded by the parity filter; they
    # are frozen from the verified parallelepiped computation
    "k4.P2C2": (
        "y^2*z1*z3^3 + y^2*z1*z3^4 + y^2*z1*z2*z3^2 + y^2*z1*z2*z3^3",
        ["y*z2^2", "y*z1", "y*z3^3", "y*z1*z3^2"],
    ),
    "k4.P2C3": (
        "y + y*z2 + y*z3 + y*z2*z3 + y*z3^2 + y^2*z2*z3^2",
        ["y*z2^2", "y", "y*z1", "y*z3^3"],
    ),
    "k4.P3C1": (
        "z2^-1*z3 + y*z3^3",
        ["y*z2^2", "y*z2^2*z3", "y*z3^3", "y*z1*z3^2"],
    ),
    "k4.P3C2": (
        "y^2*z1*z2*z3 + y^2*z1*z2*z3^2 + y^2*z1*z3^3 + y^2*z1*z3^4",
        ["y*z2^2", "y*z1", "y*z3^3", "y*z1*z3^2"],
    ),
    "k4.P3C3": (
        "y + y*z2 + y*z3 + y^2*z2*z3 + y*z3^2 + y^2*z2*z3^2",
        ["y*z2^2", "y", "y*z1", "y*z3^3"],
    ),
}


def test_k4_integer_point_transforms():
    for case_id, (num, den) in K4_TRANSFORMS.items():
        got = integer_point_transform(k4_cones.CONES[case_id], Z4)
        assert got == gf(Z4, num, den), case_id


K4_MARKED = {
    "k4.P1C1A": ("1", ["x*y2^2*q^2*t^2", "x*y1*y2*q*t^5", "x*y2^2*y3*q*t^3", "x*y1*y3^2*q*t^4"]),
    "k4.P1C1B": (
        "x*y1*y2*y3*t^6",
        ["x*y1*y2*q*t^5", "x*y1*y2*y3*t^6", "x*y2^2*y3*q*t^3", "x*y1*y3^2*q*t^4"],
    ),
    "k4.P1C2": (
        "x*y1*q^3*t^3 + x*y1*y3*q^2*t^4",
        ["x*y2^2*q^2*t^2", "x*y1*q^3*t^3", "x*y1*y2*q*t^5", "x*y1*y3^2*q*t^4"],
    ),
    "k4.P2C1": (
        "x*y3^3*q^3*t",
        ["x*y2^2*q^2*t^2", "x*y2^2*y3*q*t^3", "x*y3^3*q^3*t", "x*y1*y3^2*q*t^4"],
    ),
    "k4.P2C2": (
        "x^2*y1*y3^3*q^6*t^4 + x^2*y1*y3^4*q^5*t^5",
        ["x*y2^2*q^2*t^2", "x*y1*q^3*t^3", "x*y3^3*q^3*t", "x*y1*y3^2*q*t^4"],
    ),
    "k4.P2C3": (
        "x*q^6 + x*y3*q^5*t + x*y3^2*q^4*t",
        ["x*y2^2*q^2*t^2", "x*q^6", "x*y1*q^3*t^3", "x*y3^3*q^3*t"],
    ),
    "k4.P3C1": (
        "x*y2*y3*q^3*t^2 + x*y2*y3^2*q^2*t^3 - x^2*y2^3*y3^2*q^4*t^5",
        ["x*y2^2*q^2*t^2", "x*y2^2*y3*q*t^3", "x*y3^3*q^3*t", "x*y1*y3^2*q*t^4"],
    ),
    "k4.P3C2": (
        "x^2*y1*y2*y3*q^6*t^5 + x^2*y1*y2*y3^2*q^5*t^6",
        ["x*y2^2*q^2*t^2", "x*y1*q^3*t^3", "x*y3^3*q^3*t", "x*y1*y3^2*q*t^4"],
    ),
    "k4.P3C3": (
        "x*y2*q^4*t^2 + x^2*y2*y3*q^9*t^2 + x^2*y2*y3^2*q^8*t^3",
        ["x*y2^2*q^2*t^2", "x*q^6", "x*y1*q^3*t^3", "x*y3^3*q^3*t"],
    ),
}


def test_k4_marked_displays():
    specs = K4_HAND
    for case_id, (num, den) in K4_MARKED.items():
        assert assemble_case(specs[case_id]) == gf(OUT4, num, den), case_id


def test_k4_assembled_matches_printed():
    assert gf_equals(assemble_theorem("k4"), printed_theorem("k4"))


def test_k4_printed_series_is_classical_at_x1():
    printed = printed_theorem("k4")
    series = series_expand(printed, {"x": 1}, 1)
    coefficient = series.extract_coefficient({"x": 1}, QT_CONTEXT)
    assert coefficient == refined_catalan((1, 1, 1, 1))
    assert len(coefficient.terms) == 14


# k4 is kaaa's face m = 0: runs (k, k+m, k+m, k+m) are (k, k, k, k) there.


def test_the_printed_kaaa_formula_at_y_0_is_the_printed_k4_formula():
    """Numerator terms and denominator factors with a positive y exponent
    vanish at y = 0, which is a value only because no exponent of y is negative."""
    kaaa, k4 = printed_theorem("kaaa"), printed_theorem("k4")
    y = kaaa.context.names.index("y")
    assert all(e[y] >= 0 for e in (*kaaa.numerator.terms, *kaaa.denominator))
    assert k4.context.names == kaaa.context.names[:y] + kaaa.context.names[y + 1:]
    numerator = {e[:y] + e[y + 1:]: c for e, c in kaaa.numerator.terms.items() if e[y] == 0}
    factors = [f[:y] + f[y + 1:] for f in kaaa.denominator if f[y] == 0]
    assert gf_equals(RationalGF(k4.context, LaurentPoly(k4.context, numerator), factors), k4)


def test_no_kaaa_base_or_generator_has_a_negative_m_part():
    m = FAMILIES["kaaa"].coords.index("m")
    for spec in case_catalog("kaaa"):
        piece = spec.piece
        assert all(v[m] >= 0 for v in (*piece.numerator.terms, *piece.denominator)), spec.case_id


def test_a_kaaa_base_with_a_negative_m_part_is_an_invariant_error(monkeypatch):
    """The face m = 0 of a piece is its bases and generators with m = 0 only
    when nothing has a negative m part; the derivation refuses anything else."""
    kaaa = catalog._kaaa_entries()
    case_id, rows, parity, _, generators = kaaa[0]
    kaaa[0] = (case_id, rows, parity, {(1, -1, 0, 0, 0): 1}, generators)
    monkeypatch.setattr(catalog, "_kaaa_entries", lambda: kaaa)
    with pytest.raises(InternalInvariantError, match="m < 0"):
        catalog._CASES["k4"]()


def test_the_kaaa_region_at_m_0_is_the_k4_region():
    kaaa, k4 = FAMILIES["kaaa"], FAMILIES["k4"]
    assert k4.coords == tuple(x for x in kaaa.coords if x != "m")
    at_zero = {x: {y: c for y, c in upper.items() if y != "m"}
               for x, upper in UPPER_BOUNDS["kaaa"].items()}
    assert at_zero == UPPER_BOUNDS["k4"]


def _named_parity(spec):
    """The case's parity test with its coordinate by name."""
    return spec.parity and (FAMILIES[spec.family].coords[spec.parity[0]], spec.parity[1])


def test_each_k4_case_is_its_kaaa_case_at_m_0():
    """At every point of [-1, 3]^4, outside the region too, a k4 case's
    membership and coverage are its kaaa case's at the point with m = 0, and
    a kaaa case without a k4 case covers no such point."""
    k4 = by_id("k4")
    for kaaa in case_catalog("kaaa"):
        spec = k4.pop("k4" + kaaa.case_id[4:], None)
        covers = realized(kaaa)
        if spec is not None:
            face = [coef for base, coef in kaaa.piece.numerator.terms.items() if base[1] == 0]
            assert sorted(spec.piece.numerator.terms.values()) == sorted(face)
            assert _named_parity(spec) == _named_parity(kaaa), kaaa.case_id
            face_covers = realized(spec)
        for k, a, b, c in itertools.product(range(-1, 4), repeat=4):
            lifted = (k, 0, a, b, c)
            if spec is None:
                assert covers(lifted) == 0, (kaaa.case_id, lifted)
                continue
            point = (k, a, b, c)
            assert case_membership(spec, point) == case_membership(kaaa, lifted), (kaaa.case_id, point)
            assert face_covers(point) == covers(lifted), (kaaa.case_id, point)
    assert k4 == {}


def test_the_derived_k4_pieces_sum_to_the_hand_catalog_s():
    """In coordinate space, signed case by case, before any statistics."""
    derived = gf_sum(spec.piece for spec in case_catalog("k4"))
    assert gf_equals(derived, gf_sum(spec.piece for spec in k4_cones.CASES))


def test_the_hand_k4_catalog_assembles_to_the_printed_formula():
    fam = FAMILIES["k4"]
    assembled = gf_sum(gf_substitute(assemble_case(spec), fam.theorem_ctx, fam.specialize)
                       for spec in k4_cones.CASES)
    assert gf_equals(assembled, printed_theorem("k4"))


def test_the_hand_k4_catalog_covers_what_the_derived_one_covers():
    """Every point of [-1, 3]^4, outside the region too."""
    hand = _coverage_kernel(_coverage(k4_cones.CASES), "k4")
    for point in itertools.product(range(-1, 4), repeat=4):
        assert hand(point) == signed_multiplicity("k4", point), point


# -- short-run family -----------------------------------------------------------


KAAA_MARKED = {
    "kaaa.P1C1": ("1", ["x*z1*q^3*t^3", "y*q^3", "x*q^6"]),
    "kaaa.P1C2": (
        "x*z3*q^5*t + x*z3^2*q^4*t + x*z3^3*q^3*t",
        ["x*z3^3*q^3*t", "x*q^6", "x*z1*q^3*t^3", "y*q^3"],
    ),
    "kaaa.P1C3a": (
        "y*z3*q^2*t + y*z3^2*q*t",
        ["x*z3^3*q^3*t", "y*q^3", "x*z1*q^3*t^3", "y*z3^2*q*t"],
    ),
    "kaaa.P1C3b": (
        "x*z1*z3*q^2*t^4 + x*z1*z3^2*q*t^4",
        ["x*z3^3*q^3*t", "x*z1*q^3*t^3", "x*z1*z3^2*q*t^4", "y*z3^2*q*t"],
    ),
    "kaaa.P2": (
        "x*z2*q^4*t^2 + x*z2^2*q^2*t^2",
        ["x*z1*q^3*t^3", "y*q^3", "x*z2^2*q^2*t^2", "x*q^6"],
    ),
    "kaaa.P3C1": (
        "x^2*z2^2*z3*q^7*t^3 + x^2*z2^2*z3^2*q^6*t^3 + x^2*z2^2*z3^3*q^5*t^3",
        ["y*q^3", "x*z2^2*q^2*t^2", "x*z1*q^3*t^3", "x*z3^3*q^3*t", "x*q^6"],
    ),
    "kaaa.P3C2a": (
        "x*y*z2^2*z3*q^4*t^3 + x*y*z2^2*z3^2*q^3*t^3",
        ["y*q^3", "y*z3^2*q*t", "x*z3^3*q^3*t", "x*z2^2*q^2*t^2", "x*z1*q^3*t^3"],
    ),
    "kaaa.P3C2b": (
        "x^2*z1*z2^2*z3*q^4*t^6 + x^2*z1*z2^2*z3^2*q^3*t^6",
        ["y*z3^2*q*t", "x*z3^3*q^3*t", "x*z2^2*q^2*t^2", "x*z1*q^3*t^3", "x*z1*z3^2*q*t^4"],
    ),
    "kaaa.P3C3": (
        "x*z2^2*z3*q*t^3",
        ["x*z3^3*q^3*t", "y*z3^2*q*t", "x*z1*z3^2*q*t^4", "x*z2^2*q^2*t^2", "x*z2^2*z3*q*t^3"],
    ),
    "kaaa.P4C1": (
        "x*z2*z3*q^3*t^2 + x^2*z2*z3^2*q^8*t^3 + x^2*z2*z3^3*q^7*t^3",
        ["y*q^3", "x*z2^2*q^2*t^2", "x*z1*q^3*t^3", "x*z3^3*q^3*t", "x*q^6"],
    ),
    "kaaa.P4C2a": (
        "x*y*z2*z3^2*q^5*t^3 + x*y*z2*z3^3*q^4*t^3",
        ["x*z3^3*q^3*t", "x*z2^2*q^2*t^2", "y*z3^2*q*t", "x*z1*q^3*t^3", "y*q^3"],
    ),
    "kaaa.P4C2b": (
        "x^2*z1*z2*z3^2*q^5*t^6 + x^2*z1*z2*z3^3*q^4*t^6",
        ["x*z3^3*q^3*t", "x*z2^2*q^2*t^2", "y*z3^2*q*t", "x*z1*q^3*t^3", "x*z1*z3^2*q*t^4"],
    ),
    "kaaa.P4C3": (
        "x*z2*z3^2*q^2*t^3",
        ["x*z3^3*q^3*t", "y*z3^2*q*t", "x*z1*z3^2*q*t^4", "x*z2^2*q^2*t^2", "x*z2^2*z3*q*t^3"],
    ),
    "kaaa.P5C1a": (
        "y*z2*q*t^2 + y^2*z2*z3*q^3*t^3",
        ["y*q^3", "y*z3^2*q*t", "y*z2*q*t^2", "x*z2^2*q^2*t^2", "x*z1*q^3*t^3"],
    ),
    "kaaa.P5C1b": (
        "x*y*z1*z2*z3*q^3*t^6 + x*y*z1*z2*z3^2*q^2*t^6",
        ["y*z3^2*q*t", "y*z2*q*t^2", "x*z2^2*q^2*t^2", "x*z1*q^3*t^3", "x*z1*z3^2*q*t^4"],
    ),
    "kaaa.P5C1c": (
        "x*z1*z2*q*t^5 + x^2*z1^2*z2*z3*q^3*t^9",
        ["y*z2*q*t^2", "x*z2^2*q^2*t^2", "x*z1*q^3*t^3", "x*z1*z3^2*q*t^4", "x*z1*z2*q*t^5"],
    ),
    "kaaa.P5C2a": (
        "y*z2*z3*t^3",
        ["y*z3^2*q*t", "y*z2*q*t^2", "y*z2*z3*t^3", "x*z2^2*q^2*t^2", "x*z1*z3^2*q*t^4"],
    ),
    "kaaa.P5C2b": (
        "x*y*z2^3*z3^2*q*t^6",
        ["y*z3^2*q*t", "y*z2*z3*t^3", "x*z2^2*q^2*t^2", "x*z2^2*z3*q*t^3", "x*z1*z3^2*q*t^4"],
    ),
    "kaaa.P5C2c": (
        "x*y*z1*z2^2*z3*q*t^8",
        ["y*z2*q*t^2", "y*z2*z3*t^3", "x*z2^2*q^2*t^2", "x*z1*z3^2*q*t^4", "x*z1*z2*q*t^5"],
    ),
    "kaaa.P5C2d": (
        "x^2*z1*z2^3*z3*q^2*t^8",
        ["y*z2*z3*t^3", "x*z2^2*q^2*t^2", "x*z2^2*z3*q*t^3", "x*z1*z3^2*q*t^4", "x*z1*z2*q*t^5"],
    ),
    "kaaa.P5C2e": (
        "x*z1*z2*z3*t^6",
        ["y*z2*z3*t^3", "x*z2^2*z3*q*t^3", "x*z1*z3^2*q*t^4", "x*z1*z2*q*t^5", "x*z1*z2*z3*t^6"],
    ),
}


def test_kaaa_marked_displays():
    specs = by_id("kaaa")
    assert set(specs) == set(KAAA_MARKED)
    for case_id, (num, den) in KAAA_MARKED.items():
        assert assemble_case(specs[case_id]) == gf(OUT5, num, den), case_id


def test_kaaa_assembled_matches_printed():
    assert gf_equals(assemble_theorem("kaaa"), printed_theorem("kaaa"))


def test_kaaa_printed_constant_term_is_one():
    printed = printed_theorem("kaaa")
    constant = series_expand(printed, {"x": 1, "y": 1}, 0)
    assert constant == LaurentPoly.parse(FAMILIES["kaaa"].theorem_ctx, "1")


# -- membership and coverage -----------------------------------------------------


def test_case_membership_examples():
    k4 = K4_HAND
    assert case_membership(k4["k4.P1C1A"], (1, 1, 1, 1))
    assert case_membership(k4["k4.P1C1B"], (1, 1, 1, 1))
    for case_id in ("k4.P2C1", "k4.P2C2", "k4.P2C3"):
        assert not case_membership(k4[case_id], (1, 0, 1, 0))
    three = by_id("three")
    assert case_membership(three["three.C1"], (1, 0, 0, 1, 0))
    with pytest.raises(UsageError):
        case_membership(three["three.C1"], (1, 0, 0))


K4_COORDS = FAMILIES["k4"].coords
RATIONALS = st.one_of(
    st.just(0),
    st.integers(-3, 3),
    st.sampled_from([Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2), Fraction(-3, 2)]),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


def _holds(constraints, point):
    spec = CaseSpec("test", "k4", tuple(constraints), _piece("k4", {}, ()))
    return case_membership(spec, point)


@settings(max_examples=400)
@given(
    coeffs=st.tuples(*[RATIONALS] * len(K4_COORDS)),
    const=RATIONALS,
    point=st.tuples(*[st.integers(-4, 4)] * len(K4_COORDS)),
    on_hyperplane=st.booleans(),
)
@example(coeffs=(0, 0, Fraction(3, 2), 1), const=Fraction(-1, 2), point=(0, 0, 1, -1),
         on_hyperplane=False)
@example(coeffs=(1, -1, 0, 0), const=0, point=(2, 3, 0, 0), on_hyperplane=False)
def test_scaled_constraints_agree_with_rational_evaluation(coeffs, const, point, on_hyperplane):
    """``_ge``, ``_gt`` and ``_eq`` hold exactly where the rational inequality does."""
    if on_hyperplane:  # move the constant so that the value at the point is the drawn one
        const -= sum(Fraction(c) * x for c, x in zip(coeffs, point))
    named = dict(zip(K4_COORDS, coeffs))
    value = Fraction(const) + sum(Fraction(c) * x for c, x in zip(coeffs, point))
    for built in (_ge("k4", const, **named), _gt("k4", const, **named), *_eq("k4", const, **named)):
        assert type(built[0]) is int and all(type(c) is int for c in built[1])
    assert _holds([_ge("k4", const, **named)], point) == (value >= 0)
    assert _holds([_gt("k4", const, **named)], point) == (value > 0)
    assert _holds(_eq("k4", const, **named), point) == (value == 0)


SCALARS = RATIONALS | st.booleans() | st.integers(-(10**20), 10**20)


@settings(max_examples=200)
@given(const=SCALARS, coeffs=st.dictionaries(st.sampled_from(K4_COORDS), SCALARS))
def test_integer_constraints_are_the_fraction_constraints(const, coeffs):
    """The int fast path of ``_ge``, ``_gt`` and ``_eq`` builds exactly what
    the Fraction-only builders build, down to the types of the numbers."""
    for built, name in ((_ge, "_ge"), (_gt, "_gt"), (_eq, "_eq")):
        oracle = constraint_oracle.densified(name)
        assert repr(built("k4", const, **coeffs)) == repr(oracle("k4", const, **coeffs))


@pytest.mark.parametrize("family", ["three", "k4", "kaaa"])
def test_every_catalog_constraint_is_the_fraction_constraint(monkeypatch, family):
    """Each constraint a catalog builds, checked call by call against the
    Fraction-only builders, and the catalog built by those builders equal
    to the cached one.  k4's entries are cut from kaaa's, built the same way."""
    calls = []

    def checked(name):
        built, oracle = getattr(catalog, name), constraint_oracle.densified(name)

        def build(*args, **kwargs):
            calls.append(name)
            result = built(*args, **kwargs)
            assert repr(result) == repr(oracle(*args, **kwargs)), (name, args, kwargs)
            return result

        return build

    with monkeypatch.context() as patch:
        for name in ("_ge", "_gt", "_eq"):
            patch.setattr(catalog, name, checked(name))
        assert catalog._CASES[family]() == case_catalog(family)
    assert calls
    for name in ("_ge", "_gt", "_eq"):
        monkeypatch.setattr(catalog, name, constraint_oracle.densified(name))
    assert catalog._CASES[family]() == case_catalog(family)
    assert k4_cones._K4_PART1 == constraint_oracle.dense("k4", constraint_oracle._ge(b=1, k=-2, a=2))
    assert k4_cones._K4_PART23 == constraint_oracle.dense("k4", constraint_oracle._gt(k=2, a=-2, b=-1))


@pytest.mark.parametrize("family", ["three", "k4", "kaaa"])
def test_partition_property(family):
    for point in region_points(family, 3):
        assert signed_multiplicity(family, point) == 1, point
        assert any(case_membership(s, point) for s in case_catalog(family)), point


@pytest.mark.parametrize("family", ["three", "k4", "kaaa"])
def test_assemble_theorem_is_the_sequential_lift(family):
    """The family's cases summed by the sequential lift give exactly the
    assembled theorem's terms and denominator."""
    fam = FAMILIES[family]
    cases = []
    for spec in case_catalog(family):
        case = _pointwise_map(spec.piece, fam)
        cases.append(gf_substitute(case, fam.theorem_ctx, fam.specialize))
    sequential = sequential_gf_sum(cases)
    assembled = assemble_theorem(family)
    assert assembled.numerator.terms == sequential.numerator.terms
    assert assembled.denominator == sequential.denominator


@pytest.mark.parametrize("family", ["three", "k4", "kaaa"])
def test_the_cases_partition_the_whole_region_exactly(family):
    # every point of the region, not only the small ones: the signed sum of
    # the pieces is the region's own generating function, which the pieces
    # do not read
    assert gf_equals(gf_sum(spec.piece for spec in case_catalog(family)), region_gf(family))


def _mutants(cases):
    """``(name, i, changes)``: case ``i`` dropped (no changes), its sign flipped
    or its parity flipped."""
    for i, spec in enumerate(cases):
        yield f"{spec.case_id} dropped", i, None
        yield f"{spec.case_id} sign flipped", i, {"piece": -spec.piece}
        if spec.parity is not None:
            coord, residue = spec.parity
            yield f"{spec.case_id} parity flipped", i, {"parity": (coord, 1 - residue)}


@pytest.mark.parametrize(
    "family, count", [("three", 10), ("k4", 32), ("kaaa", 50), ("k4_cones", 24)]
)
def test_every_mutated_catalog_breaks_the_partition(family, count):
    cases = k4_cones.CASES if family == "k4_cones" else case_catalog(family)
    region = region_gf(cases[0].family)
    mutants = list(_mutants(cases))
    assert len(mutants) == count
    survivors, refused = [], []
    for name, i, changes in mutants:
        try:
            replaced = () if changes is None else (replace(cases[i], **changes),)
        except InternalInvariantError:  # its bases are all outside the flipped class
            refused.append(name)
            continue
        total = gf_sum(spec.piece for spec in [*cases[:i], *replaced, *cases[i + 1:]])
        if gf_equals(total, region):
            survivors.append(name)
    assert survivors == []
    assert refused == [name for name, _, _ in mutants if name.endswith("parity flipped")]


@pytest.mark.parametrize("family", ["three", "k4", "kaaa"])
def test_realized_points_stay_in_region(family):
    for spec in case_catalog(family):
        covers = realized(spec)
        for point in region_points(family, 3):
            if covers(point) != 0:  # the overlap's piece counts -1
                assert case_membership(spec, point), (spec.case_id, point)


@pytest.mark.parametrize("family, regions", [("three", 4), ("k4", 12), ("kaaa", 12)])
def test_each_region_is_covered_once_by_the_cases_that_share_it(family, regions):
    """The cases that share a region and parity test cover each small
    point of the family's region once, with one sign, if the point is in their
    region, and not at all if it is not: each case's own rows match its piece.
    The sign is -1 for the three-run overlap alone."""
    shared = {}
    for spec in case_catalog(family):
        shared.setdefault((spec.region, spec.parity), []).append(spec)
    assert len(shared) == regions
    wrong = []
    for cases in shared.values():
        kernel = _coverage_kernel(_coverage(cases), family)
        sign = -1 if [spec.case_id for spec in cases] == ["three.overlap"] else 1
        for point in region_points(family, 3):
            want = sign if case_membership(cases[0], point) else 0
            if kernel(point) != want:
                wrong.append((cases[0].case_id, point, kernel(point), want))
    assert wrong == []


def _family_table(family):
    return _coverage(case_catalog(family))


@pytest.mark.parametrize("family", ["three", "k4", "kaaa"])
def test_coverage_agrees_with_the_per_base_solve(family):
    """Every point of [-1, 3]^n, outside the region too, against the oracle
    and the table interpreter; case membership against the plain sum of each
    row."""
    specs = [(spec, realized(spec)) for spec in case_catalog(family)]
    table = _family_table(family)
    for point in itertools.product(range(-1, 4), repeat=len(FAMILIES[family].coords)):
        got = signed_multiplicity(family, point)
        assert got == lattice_oracle.signed_multiplicity(family, point), point
        assert got == lattice_oracle._multiplicity(table, point), point
        for spec, covers in specs:
            assert covers(point) == lattice_oracle.realized_multiplicity(
                spec, point
            ), (spec.case_id, point)
            assert case_membership(spec, point) == lattice_oracle.case_membership(
                spec, point
            ), (spec.case_id, point)


BIG = 10**30


@st.composite
def far_points(draw):
    """A family and a point far out: either any entries within 10^30, or a
    small offset plus huge nonnegative multiples of one case's generators,
    which lands in the case's cosets now and then."""
    family = draw(st.sampled_from(["three", "k4", "kaaa"]))
    width = len(FAMILIES[family].coords)
    if draw(st.booleans()):
        return family, draw(st.tuples(*[st.integers(-BIG, BIG)] * width))
    spec = draw(st.sampled_from(case_catalog(family)))
    point = list(draw(st.tuples(*[st.integers(-2, 3)] * width)))
    for g in spec.piece.denominator:
        n = draw(st.integers(0, BIG))
        point = [x + n * e for x, e in zip(point, g)]
    return family, tuple(point)


@settings(max_examples=150, deadline=None)
@given(far_points())
def test_kernels_agree_with_the_oracles_on_far_points(drawn):
    family, point = drawn
    got = signed_multiplicity(family, point)
    assert got == lattice_oracle._multiplicity(_family_table(family), point)
    assert got == lattice_oracle.signed_multiplicity(family, point)
    for spec in case_catalog(family):
        assert realized(spec)(point) == lattice_oracle.realized_multiplicity(
            spec, point
        ), spec.case_id
        assert case_membership(spec, point) == lattice_oracle.case_membership(
            spec, point
        ), spec.case_id


@settings(max_examples=200, deadline=None)
@given(
    row=st.lists(st.integers(-12, 12) | st.integers(-BIG, BIG), min_size=5, max_size=5),
    const=st.integers(-12, 12) | st.integers(-BIG, BIG),
    point=st.tuples(*[st.integers(-BIG, BIG)] * 5),
)
@example(row=[1, -1, 11, -11, 21], const=1, point=(1, 2, 3, 4, 5))
@example(row=[0, 0, 0, 0, 0], const=0, point=(1, 2, 3, 4, 5))
def test_a_compiled_row_is_the_row(row, const, point):
    """The source of a row, ``+1*``/``-1*`` shortened, evaluates to the row."""
    kernel = _kernel("kaaa", [], _linear(row, const))
    assert kernel(point) == const + sum(c * x for c, x in zip(row, point))


KERNEL_NAMES = re.compile(r"x\d+|v\d+|t|point|type|int|tuple|len|coordinates|is|not|or|and|if|return|True")
KERNEL_OPERATORS = {"=", "==", "!=", ">=", "%", "+", "-", "*", "+=", ",", "(", ")", ":"}
KERNEL_BUILTINS = {"type": type, "int": int, "tuple": tuple, "len": len}


def _directions(rows):
    """The rows up to scale and sign."""
    directions = set()
    for row in rows:
        unit = tuple(x // math.gcd(*row) for x in row)
        directions.add(max(unit, tuple(-x for x in unit)))
    return directions


@pytest.mark.parametrize("family, directions", [("three", 10), ("k4", 13), ("kaaa", 20)])
def test_every_kernel_is_compiled_from_the_module_s_alphabet(monkeypatch, family, directions):
    """Every kernel the family compiles sees only ``type``, ``int``, ``tuple``,
    ``len`` and ``_coordinates`` bound to the family, and its source holds only
    the names, integers and operators that the module docstring allows; the
    family kernel takes one product per row direction, and the cases share one
    membership kernel per distinct region."""
    sources = []

    def compile_kernel(source, namespace):
        sources.append(source)
        exec(source, namespace)

    monkeypatch.setattr(catalog, "exec", compile_kernel, raising=False)
    catalog._membership_kernel.cache_clear()
    cases = catalog._CASES[family]()  # built afresh, so no kernel is cached yet
    table = _coverage(cases)
    kernels = [_coverage_kernel(table, family)]
    memberships = {}
    for spec in cases:
        kernels.append(_coverage_kernel(_coverage([spec]), family))
        memberships.setdefault(spec.membership_kernel, []).append(spec)
    kernels += memberships
    regions = {"three": 4, "k4": 12, "kaaa": 12}[family]  # distinct (region, parity)
    assert len(memberships) == regions
    assert len(sources) == len(kernels) == 1 + len(cases) + regions
    for a, b in itertools.combinations(cases, 2):
        same_region = (a.region, a.parity) == (b.region, b.parity)
        assert (a.membership_kernel is b.membership_kernel) == same_region, (a.case_id, b.case_id)
    for kernel in kernels:
        namespace = dict(kernel.__globals__)
        coordinates = namespace.pop("coordinates")
        assert namespace == {"__builtins__": {}, **KERNEL_BUILTINS}
        assert (coordinates.func, coordinates.args, coordinates.keywords) == (_coordinates, (family,), {})
    for source in sources:
        header, body = source.split("\n", 1)
        assert header == "def kernel(point):"
        for token in tokenize.generate_tokens(StringIO(body).readline):
            kind, text = tokenize.tok_name[token.type], token.string
            if kind == "NAME":
                assert KERNEL_NAMES.fullmatch(text), text
            elif kind == "NUMBER":
                assert text.isdigit(), text
            elif kind == "OP":
                assert text in KERNEL_OPERATORS, text
            else:
                assert kind in {"NEWLINE", "NL", "INDENT", "DEDENT", "ENDMARKER"}, (kind, text)
    products = re.findall(r"^ +v\d+ = .*x\d", sources[0], re.MULTILINE)
    assert len(products) == len(_directions(table[0])) == directions


K4_CASE = case_catalog("k4")[0]


@pytest.mark.parametrize(
    "bases, generators",
    [
        (((1, (0.5, 0, 0, 0)),), ((1, 0, 0, 0),)),
        (((1, ("1", 0, 0, 0)),), ((1, 0, 0, 0),)),
        (((1, (0, 0, 0, 0)),), ((1.0, 0, 0, 0),)),
        (((1, (0, 0, 0, 0)),), ((1, Fraction(1), 0, 0),)),
        (((0.5, (0, 0, 0, 0)),), ((1, 0, 0, 0),)),
        (((1, 0),), ((1, 0, 0, 0),)),
    ],
)
def test_lattice_piece_refuses_non_integers(bases, generators):
    with pytest.raises(DomainError):
        _piece("k4", {base: coef for coef, base in bases}, generators)


def test_a_region_row_that_is_not_integer_is_a_domain_error():
    with pytest.raises(DomainError):
        CaseSpec("drawn", "k4", ((0, (0, 0.5, 0, 0)),), _piece("k4", {}, ()))


K4_PIECE = _piece("k4", {(0, 0, 0, 0): 1}, ((1, 0, 2, 0),))


@pytest.mark.parametrize(
    "make, error, message",
    [
        pytest.param(lambda: _ge("k4", const=-5, kk=1), UsageError, "['kk'] are not coordinates of k4",
                     id="row naming no coordinate"),
        pytest.param(lambda: _gt("k4", m=1), UsageError, "['m'] are not coordinates of k4",
                     id="row naming m in k4"),
        pytest.param(lambda: _eq("k4", b=1, zz=2), UsageError, "['zz'] are not coordinates of k4",
                     id="equation naming no coordinate"),
        pytest.param(lambda: _ge("nope", b=1), UsageError,
                     "unknown family 'nope'; expected one of three, k4, kaaa", id="row of no family"),
        pytest.param(lambda: CaseSpec("c", "k4", (), K4_PIECE, (2, "Odd")), DomainError,
                     "parity test must be a sequence of integers, got (2, 'Odd')", id="residue 'Odd'"),
        pytest.param(lambda: CaseSpec("c", "k4", (), K4_PIECE, (2, 2)), UsageError,
                     "c: parity test (2, 2) is not (coordinate index, 0 or 1)", id="residue 2"),
        pytest.param(lambda: CaseSpec("c", "k4", (), K4_PIECE, ("zz", 1)), DomainError,
                     "parity test must be a sequence of integers, got ('zz', 1)", id="parity on 'zz'"),
        pytest.param(lambda: CaseSpec("c", "k4", (), K4_PIECE, (4, 1)), UsageError,
                     "c: parity test (4, 1) is not (coordinate index, 0 or 1)", id="parity index 4"),
        pytest.param(lambda: CaseSpec("c", "nope", (), K4_PIECE), UsageError,
                     "unknown family 'nope'; expected one of three, k4, kaaa", id="case of no family"),
        pytest.param(lambda: CaseSpec("c", "kaaa", (), K4_PIECE), UsageError,
                     "c: the piece is not in the variables VariableContext(k, m, a, b, c)",
                     id="k4 piece in a kaaa case"),
        pytest.param(lambda: CaseSpec("c", "k4", ((0, (1, 0, 0, 0, 0)),), K4_PIECE), UsageError,
                     "c: a region row does not have 4 coefficients", id="row of the wrong width"),
        pytest.param(lambda: CaseSpec("c", "k4", (5,), K4_PIECE), UsageError,
                     "c: a region row is not a pair (const, coefficients)", id="row that is no pair"),
        pytest.param(lambda: CaseSpec("c", "k4", ((0, 5),), K4_PIECE), DomainError,
                     "region rows must be a sequence of integers, got 5", id="row of no coefficients"),
        pytest.param(lambda: CaseSpec("c", "k4", ((0.5, (1, 0, 0, 0)),), K4_PIECE), DomainError,
                     "region constants must be an integer, got 0.5", id="row constant 0.5"),
    ],
)
def test_a_case_is_refused_when_it_is_built(make, error, message):
    """A row naming no coordinate of its family (k4 has no m), a parity test
    that is not an index and a residue of 0 or 1, an unknown family and a piece
    in another family's variables are each the package's own error, raised
    when the literal or the case is written and not at its first use."""
    with pytest.raises(Exception) as info:
        make()
    assert type(info.value) is error
    assert str(info.value) == message


class K4Point(NamedTuple):
    k: object
    a: object
    b: object
    c: object


class Long(NamedTuple):
    k: int
    a: int
    b: int
    c: int
    d: int


POINT_CHECKS = (
    lambda point: signed_multiplicity("k4", point),
    lambda point: realized(K4_CASE)(point),
    lambda point: case_membership(K4_CASE, point),
)


@pytest.mark.parametrize(
    "point, error",
    [
        ((1.9, 1, 1, 1), DomainError),
        ((1, Fraction(1), 1, 1), DomainError),
        ("1111", DomainError),
        (1, DomainError),
        ((1, 1, 1), UsageError),
        ((1, 1, 1, 1, 1), UsageError),
        pytest.param(lambda: (x for x in (1, 1, 1)), UsageError, id="one-shot generator"),
        pytest.param([1, 1.5, 1, 1], DomainError, id="list"),
        pytest.param(K4Point(1, 1, 1, 1.5), DomainError, id="NamedTuple"),
        pytest.param(Long(1, 1, 1, 1, 1), UsageError, id="long NamedTuple"),
        pytest.param((1, 1, 1, 1, 1.5), DomainError, id="long, then not an integer"),
        pytest.param((1, 1, 1, 1, 1, 1.5), DomainError, id="longer, then not an integer"),
        pytest.param((True, True, True), UsageError, id="short bools"),
        pytest.param((True, 1.5, True, True), DomainError, id="bools and not an integer"),
        pytest.param({3: 1, 1: 0, 2: 1, 0: 0}, UsageError, id="mapping"),
        pytest.param({0, 1, 2, 3}, UsageError, id="set"),
        pytest.param(frozenset({0, 1, 2, 3}), UsageError, id="frozenset"),
        pytest.param(lambda: {0: 1, 1: 0, 2: 1, 3: 0}.keys(), UsageError, id="mapping keys"),
    ],
)
def test_coverage_refuses_malformed_points(point, error):
    """Each check refuses a point with ``_coordinates``' own class and message,
    whether or not the point first went to a kernel."""
    make = point if callable(point) else lambda: point
    with pytest.raises(error) as expected:
        _coordinates("k4", make())
    for check in POINT_CHECKS:
        with pytest.raises(error) as refused:
            check(make())
        assert type(refused.value) is type(expected.value)
        assert str(refused.value) == str(expected.value)


@pytest.mark.parametrize(
    "make",
    [
        lambda: (x for x in (1, 0, 1, 0)),
        lambda: [1, 0, 1, 0],
        lambda: K4Point(1, 0, 1, 0),
        lambda: (True, False, True, False),
    ],
    ids=["one-shot generator", "list", "NamedTuple", "bools"],
)
def test_any_sequence_of_integers_is_a_point(make):
    """A point that is not a plain tuple of ints is read as ``_coordinates`` reads it."""
    for check in POINT_CHECKS:
        assert check(make()) == check((1, 0, 1, 0))


@pytest.mark.parametrize("family", ["three", "k4", "kaaa"])
def test_a_region_point_is_read_without_coordinates(monkeypatch, family):
    """Through either entry point, no region point of size <= 4 reaches
    ``_coordinates``, in the module or in a kernel's namespace; a list does,
    once per call.  The answers are the oracles'."""
    seen = []

    def spy(*args):
        seen.append(args)
        return _coordinates(*args)

    monkeypatch.setattr(catalog, "_coordinates", spy)
    specs = case_catalog(family)
    for kernel in {catalog._family_kernel(family), *(spec.membership_kernel for spec in specs)}:
        monkeypatch.setitem(kernel.__globals__, "coordinates", partial(spy, family))
    for point in region_points(family, 4):
        assert signed_multiplicity(family, point) == lattice_oracle.signed_multiplicity(family, point), point
        for spec in specs:
            assert case_membership(spec, point) == lattice_oracle.case_membership(spec, point), point
    assert seen == []
    point = [0] * len(FAMILIES[family].coords)
    assert signed_multiplicity(family, point) == 1
    assert case_membership(specs[0], point) == lattice_oracle.case_membership(specs[0], point)
    assert seen == [(family, point)] * 2


BOX = 2  # the drawn pieces are counted on the points of [-BOX, BOX]^4


@st.composite
def lattice_pieces(draw):
    """A piece in four dimensions with 1-4 generators, square or not.

    Each generator's first entry is positive, so ``base + sum n_i v_i`` has
    first coordinate at least ``base[0] + sum n_i`` and a brute count needs
    only ``n_i <= BOX - base[0]``.
    """
    rank = draw(st.integers(1, 4))
    generators = draw(st.lists(
        st.tuples(st.integers(1, 3), *[st.integers(-3, 3)] * 3), min_size=rank, max_size=rank
    ))
    bases = draw(st.lists(
        st.tuples(st.sampled_from((-1, 1, 2)), st.tuples(*[st.integers(-BOX, BOX)] * 4)),
        min_size=1, max_size=3,
    ))
    terms = {}  # a base drawn twice has the sum of its coefficients
    for coef, base in bases:
        terms[base] = terms.get(base, 0) + coef
    return _piece("k4", terms, tuple(generators))


def brute_piece_count(piece):
    """Signed count of ``base + sum n_i v_i`` over the points of the box."""
    counts = {}
    generators = piece.denominator
    for base, coef in piece.numerator.terms.items():
        for ns in itertools.product(range(BOX - base[0] + 1), repeat=len(generators)):
            point = tuple(
                b + sum(n * g[i] for n, g in zip(ns, generators)) for i, b in enumerate(base)
            )
            if all(abs(x) <= BOX for x in point):
                counts[point] = counts.get(point, 0) + coef
    return counts


PARITIES = st.none() | st.tuples(st.integers(0, len(K4_COORDS) - 1), st.integers(0, 1))


@settings(max_examples=150, deadline=None)
@given(lattice_pieces(), PARITIES)
@example(_piece("k4", {(0, 0, 0, 0): 1}, ((1, 0, 0, 0), (2, 0, 0, 0))), None)
@example(_piece("k4", {(-2, 0, 1, 0): 1}, ((1, 2, 0, 0), (1, 0, 2, 0))), None)
@example(_piece("k4", {(-2, 0, 0, 0): 1, (-2, 0, 1, 0): -1}, ((1, 0, 1, 0),)), (2, 1))
def test_realized_multiplicity_counts_drawn_pieces(piece, parity):
    """With a drawn parity, the parity coordinate of every generator is doubled
    first, so that the rule's precondition holds, and the case keeps the bases
    in the parity class: a base outside it is refused.  The count is then the
    brute count of the drawn piece restricted to the parity class.  The
    compiled kernel and the table interpreter both give it."""
    counted = piece
    if parity is not None:
        coord, residue = parity
        counted = _piece("k4", piece.numerator.terms, tuple(
            g[:coord] + (2 * g[coord],) + g[coord + 1:] for g in piece.denominator
        ))
        kept = {b: c for b, c in counted.numerator.terms.items() if b[coord] % 2 == residue}
        piece = _piece("k4", kept, counted.denominator)
        if kept != counted.numerator.terms:
            with pytest.raises(InternalInvariantError, match="^drawn: a base is not"):
                CaseSpec("drawn", "k4", (), counted, parity)
    spec = CaseSpec("drawn", "k4", (), piece, parity)
    if minor_gcd(piece.denominator) == 0:
        with pytest.raises(InternalInvariantError):
            realized(spec)((0, 0, 0, 0))
        return
    counts = brute_piece_count(counted)
    table, covers = _coverage([spec]), realized(spec)
    for point in itertools.product(range(-BOX, BOX + 1), repeat=4):
        expected = counts.get(point, 0)
        if parity is not None and point[coord] % 2 != residue:
            expected = 0
        assert covers(point) == expected, point
        assert lattice_oracle._multiplicity(table, point) == expected, point


def test_a_parity_case_with_an_odd_generator_is_an_invariant_error():
    """Every point of a piece is in its bases' parity classes only when every
    generator is even in the parity coordinate, a summed correction's included."""
    p2c1 = K4_HAND["k4.P2C1"]
    odd_in_b = (1, 1, 1, 0)
    zctx = FAMILIES["k4"].zctx
    generators = (odd_in_b,) + p2c1.piece.denominator[1:]
    correction = _piece("k4", {(0, 0, 0, 1): -1}, (odd_in_b,))
    for piece in (RationalGF(zctx, p2c1.piece.numerator, generators), gf_sum([p2c1.piece, correction])):
        with pytest.raises(InternalInvariantError, match="^k4.P2C1: a generator is odd in b$"):
            replace(p2c1, piece=piece)
        with pytest.raises(InternalInvariantError, match="^k4.P2C1: a generator is odd in b$"):
            CaseSpec(p2c1.case_id, "k4", p2c1.region, piece, p2c1.parity)


def test_a_parity_case_with_a_base_outside_its_class_is_an_invariant_error():
    """Such a base used to be dropped silently.  It is refused, naming the case,
    when the case is built, so no assembly or coverage ever reads it."""
    spec = by_id("kaaa")["kaaa.P3C1"]
    piece = spec.piece
    odd = _piece("kaaa", {**piece.numerator.terms, (2, 0, 0, 3, 1): 1}, piece.denominator)
    refusal = "^kaaa.P3C1: a base is not even in b$"
    with pytest.raises(InternalInvariantError, match=refusal):
        replace(spec, piece=odd)
    with pytest.raises(InternalInvariantError, match=refusal):
        CaseSpec(spec.case_id, "kaaa", spec.region, odd, spec.parity)


def test_a_piece_base_that_is_not_integer_is_refused_before_any_kernel_is_compiled(monkeypatch):
    """``LaurentPoly`` refuses a base exponent of 1.5.  A piece built around
    both it and ``_piece`` may hold one; alone or beside integer bases it is a
    DomainError from ``_source``, and no kernel source is ever run."""
    compiled = []
    monkeypatch.setattr(catalog, "exec", lambda *args: compiled.append(args), raising=False)
    p1c1a = K4_HAND["k4.P1C1A"]
    zctx = FAMILIES["k4"].zctx
    generators = p1c1a.piece.denominator
    bad = {(1, 1.5, 0, 0): 1}
    for terms in (bad, {**p1c1a.piece.numerator.terms, **bad}):
        with pytest.raises(DomainError, match="exponents"):
            LaurentPoly(zctx, terms)
        numerator = LaurentPoly._trusted(zctx, terms)
        spec = replace(p1c1a, piece=RationalGF(zctx, numerator, generators))
        with pytest.raises(DomainError, match="kernel numbers"):
            realized(spec)((1, 1, 1, 1))
    assert compiled == []


def _marks_exponents(fam, point, area, bounce):
    return tuple(point[: len(fam.out_ctx) - 2]) + (area, bounce)


@pytest.mark.parametrize("family", ["three", "k4", "kaaa"])
def test_case_series_match_statistics(family):
    """Each case's GF enumerates exactly its region points, correctly scored.

    The signed sum of marked monomials over region points of weight <= 4,
    with statistics from the closed forms, must equal the truncated case
    series; this ties regions, pieces, and statistics together.
    """
    fam = FAMILIES[family]
    bound = 4
    weights = dict.fromkeys(fam.size_names, 1)
    for spec in case_catalog(family):
        series = series_expand(assemble_case(spec), weights, bound)
        covers, expected = realized(spec), {}
        for point in region_points(family, bound):
            count = covers(point)
            if count == 0:
                continue
            area, bounce = fam.stats(*point)
            exps = _marks_exponents(fam, point, area, bounce)
            weight = sum(e * weights.get(name, 0) for e, name in zip(exps, fam.out_ctx.names))
            if weight > bound:
                continue
            expected[exps] = expected.get(exps, 0) + count
        assert series == LaurentPoly(fam.out_ctx, expected), spec.case_id
