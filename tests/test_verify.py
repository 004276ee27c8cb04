import itertools
import re

import grid_witness
import pytest
from classical import (
    Q_CONTEXT,
    carlitz_riordan,
    check_bounce_agreement,
    check_q_specializations,
    macmahon_q_catalan,
    q_binomial,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qtcatalan.catalog import printed_theorem
from qtcatalan.cones import RationalGF
from qtcatalan.errors import DomainError, UsageError
from qtcatalan.oracles import (
    check_last_param,
    kvectors_of_length,
    lambda_catalan,
    refined_catalan,
    rearrangements,
    repeated_tail_vectors,
    symmetry_report,
    _symmetry_witness,
)
from qtcatalan.paths import KVector, count_paths
from qtcatalan.polynomial import (
    QT_CONTEXT,
    LaurentPoly,
    VariableContext,
    coefficient_grid,
    qt_swap,
)
from qtcatalan.verify import gf_qt_swap, series_matches_paths, verify_theorem

P = lambda s: LaurentPoly.parse(QT_CONTEXT, s)


def test_refined_catalan_goldens():
    assert refined_catalan((1, 1, 1)) == P("q^3 + q^2*t + q*t + q*t^2 + t^3")
    assert refined_catalan((1, 2)) == P("q + t")
    assert refined_catalan((2, 1)) == P("q^2 + q*t + t^2")
    assert refined_catalan((1, 2, 1)) == P(
        "q^4 + q^3*t + q^2*t^2 + q*t^3 + t^4 + q^2*t + q*t^2"
    )
    # non-integer parts used to be cut by int(): refined_catalan([1.5, 1]) gave q + t
    for parts in [(1.5, 1), (1, 2.0), ("1", "2")]:
        with pytest.raises(DomainError):
            refined_catalan(parts)


def test_refined_catalan_counting_identity():
    for parts in [(1, 1, 1), (2, 3), (1, 2, 1, 2), (3, 1, 1)]:
        poly = refined_catalan(parts)
        assert sum(poly.terms.values()) == count_paths(KVector(parts))


def test_lambda_catalan_goldens():
    assert lambda_catalan((2, 1)) == P("q^2 + q*t + t^2 + q + t")
    assert lambda_catalan((5,)) == P("1")
    total = lambda_catalan((2, 1, 1, 1))
    assert total == qt_swap(total)
    for partition in [(1, 2), (2.5, 1), (2, 1.0)]:
        with pytest.raises(DomainError):
            lambda_catalan(partition)


def _grid_from_cells(cells):
    max_q = max(i for _, i, _ in cells)
    max_t = max(j for _, _, j in cells)
    grid = [[0] * (max_t + 1) for _ in range(max_q + 1)]
    for value, i, j in cells:
        grid[i][j] = value
    return grid


# coefficient tables for the four-run examples, copied from the source figures
GRID_1131 = _grid_from_cells(
    [(1, 8, 0), (1, 7, 1), (1, 6, 2), (1, 5, 3), (1, 4, 4), (1, 3, 5), (1, 2, 6), (1, 1, 7),
     (1, 0, 8), (1, 6, 1), (1, 5, 2), (1, 4, 3), (2, 3, 4), (2, 2, 5), (1, 1, 6), (1, 5, 1),
     (2, 4, 2), (2, 3, 3), (1, 2, 4), (1, 1, 5)]
)
GRID_1113 = _grid_from_cells(
    [(1, 6, 0), (1, 5, 1), (1, 4, 2), (1, 3, 3), (1, 2, 4), (1, 1, 5), (1, 0, 6),
     (1, 4, 1), (1, 3, 2), (1, 2, 3), (1, 1, 4), (1, 3, 1), (1, 2, 2), (1, 1, 3)]
)
GRID_3111 = _grid_from_cells(
    [(1, 12, 0), (1, 11, 1), (1, 10, 2), (1, 9, 3), (1, 8, 4), (1, 7, 5), (1, 6, 6),
     (1, 5, 7), (1, 4, 8), (1, 3, 9), (1, 2, 10), (1, 1, 11), (1, 0, 12),
     (1, 10, 1), (1, 9, 2), (1, 8, 3), (1, 7, 4), (1, 6, 5), (1, 5, 6), (1, 4, 7),
     (1, 3, 8), (1, 2, 9), (1, 1, 10),
     (1, 9, 1), (2, 8, 2), (3, 7, 3), (3, 6, 4), (3, 5, 5), (3, 4, 6), (3, 3, 7),
     (2, 2, 8), (1, 1, 9), (1, 6, 3), (1, 5, 4), (1, 4, 5), (1, 3, 6)]
)
GRID_1121 = _grid_from_cells(
    [(1, 7, 0), (1, 6, 1), (1, 5, 2), (1, 4, 3), (1, 3, 4), (1, 2, 5), (1, 1, 6), (1, 0, 7),
     (1, 5, 1), (1, 4, 2), (1, 3, 3), (2, 2, 4), (1, 1, 5), (1, 4, 1), (2, 3, 2), (1, 2, 3),
     (1, 1, 4)]
)
GRID_1211 = _grid_from_cells(
    [(1, 8, 0), (1, 7, 1), (1, 6, 2), (1, 5, 3), (1, 4, 4), (1, 3, 5), (1, 2, 6), (1, 1, 7),
     (1, 0, 8), (1, 6, 1), (1, 5, 2), (1, 4, 3), (1, 3, 4), (1, 2, 5), (1, 1, 6), (1, 5, 1),
     (2, 4, 2), (2, 3, 3), (1, 2, 4), (1, 1, 5), (1, 2, 3)]
)
GRID_2111 = _grid_from_cells(
    [(1, 9, 0), (1, 8, 1), (1, 7, 2), (1, 6, 3), (1, 5, 4), (1, 4, 5), (1, 3, 6), (1, 2, 7),
     (1, 1, 8), (1, 0, 9), (1, 7, 1), (1, 6, 2), (1, 5, 3), (1, 4, 4), (1, 3, 5), (1, 2, 6),
     (1, 1, 7), (1, 6, 1), (2, 5, 2), (2, 4, 3), (2, 3, 4), (2, 2, 5), (1, 1, 6), (1, 3, 3)]
)
GRID_1311 = _grid_from_cells(
    [(1, 10, 0), (1, 9, 1), (1, 8, 2), (1, 7, 3), (1, 6, 4), (1, 5, 5), (1, 4, 6), (1, 3, 7),
     (1, 2, 8), (1, 1, 9), (1, 0, 10), (1, 8, 1), (1, 7, 2), (1, 6, 3), (1, 5, 4), (1, 4, 5),
     (2, 3, 6), (1, 2, 7), (1, 1, 8), (1, 7, 1), (2, 6, 2), (3, 5, 3), (2, 4, 4), (1, 3, 5),
     (1, 2, 6), (1, 1, 7), (1, 4, 3), (1, 3, 4), (1, 2, 5), (0, 5, 2)]
)


@pytest.mark.parametrize(
    "parts, grid",
    [
        ((1, 1, 3, 1), GRID_1131),
        ((1, 1, 1, 3), GRID_1113),
        ((3, 1, 1, 1), GRID_3111),
        ((1, 1, 2, 1), GRID_1121),
        ((1, 2, 1, 1), GRID_1211),
        ((2, 1, 1, 1), GRID_2111),
        ((1, 3, 1, 1), GRID_1311),
    ],
)
def test_four_run_coefficient_tables(parts, grid):
    assert coefficient_grid(refined_catalan(parts)) == grid


def test_symmetry_reports():
    report = symmetry_report((1, 1, 3, 1))
    assert not report.symmetric
    assert report.witness == ((2, 4), 1, 2)
    assert report.witness_line() == "q^4*t^2=2 vs q^2*t^4=1"

    assert symmetry_report((1, 1, 1, 3)).symmetric
    assert symmetry_report((3, 1, 1, 1)).symmetric
    assert not symmetry_report((1, 3, 1, 1)).symmetric
    assert not symmetry_report((1, 1, 2, 1)).symmetric
    assert not symmetry_report((1, 2, 1, 1)).symmetric


def test_lambda_symmetry_contrasts():
    # the two asymmetric length-4 summands cancel for the partition (2,1,1,1)
    total = lambda_catalan((2, 1, 1, 1))
    assert total == qt_swap(total)
    # ... but not for (3,1,1,1)
    total = lambda_catalan((3, 1, 1, 1))
    assert total != qt_swap(total)


def test_symmetry_scan_three_runs():
    reports = [symmetry_report(v) for v in kvectors_of_length(3, 3)]
    assert len(reports) == 27
    assert all(r.symmetric for r in reports)


def test_symmetry_scan_repeated_tails():
    reports = [symmetry_report(v) for v in repeated_tail_vectors(3, [4])]
    assert len(reports) == 9
    assert all(r.symmetric for r in reports)


@pytest.mark.parametrize(
    "scan, args",
    [
        (kvectors_of_length, (2, 1.5)),
        (kvectors_of_length, (1.5, 2)),
        (repeated_tail_vectors, (1.5, [3])),
        (repeated_tail_vectors, (2, [3.5])),
    ],
)
def test_scans_read_their_arguments_as_integers(scan, args):
    # range() and (a,) * length once raised TypeError
    with pytest.raises(DomainError):
        scan(*args)


def test_scans_refuse_short_lengths_when_called():
    with pytest.raises(UsageError):
        kvectors_of_length(-1, 2)
    # the call raises, not the first next() of what it returns
    with pytest.raises(UsageError, match="length >= 2"):
        repeated_tail_vectors(2, [1])
    assert list(kvectors_of_length(0, 2)) == [()]
    assert list(kvectors_of_length(2, 0)) == list(kvectors_of_length(2, -5)) == []
    assert list(kvectors_of_length(2, 2)) == [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert list(repeated_tail_vectors(2, [3])) == [(1, 1, 1), (1, 2, 2), (2, 1, 1), (2, 2, 2)]
    assert list(repeated_tail_vectors(0, [3])) == list(repeated_tail_vectors(2, [])) == []


def test_witness_agrees_with_the_grid_scan_on_every_small_vector():
    vectors = [v for length in range(1, 6) for v in kvectors_of_length(length, 3)]
    assert len(vectors) == 363
    for parts in vectors:
        poly = refined_catalan(parts)
        assert _symmetry_witness(poly) == grid_witness._symmetry_witness(poly), parts


@st.composite
def qt_polynomials(draw):
    """A q,t-polynomial with coefficients in -3..3, often symmetric up to one term."""
    cells = st.tuples(st.integers(0, 5), st.integers(0, 5))
    poly = LaurentPoly(QT_CONTEXT, draw(st.dictionaries(cells, st.integers(-3, 3), max_size=10)))
    if draw(st.booleans()):
        poly = poly + qt_swap(poly)
        poly = poly + LaurentPoly(QT_CONTEXT, draw(st.dictionaries(cells, st.integers(-3, 3), max_size=1)))
    return poly


@settings(max_examples=500, deadline=None)
@given(qt_polynomials())
@example(LaurentPoly.zero(QT_CONTEXT))
def test_witness_agrees_with_the_grid_scan_on_drawn_polynomials(poly):
    assert _symmetry_witness(poly) == grid_witness._symmetry_witness(poly)


def test_gf_qt_swap_exchanges_q_and_t_only():
    ctx = VariableContext(("x", "q", "t"))
    g = RationalGF(ctx, LaurentPoly.parse(ctx, "x*q^2*t"), [ctx.monomial(q=1), ctx.monomial(x=1, t=2)])
    swapped = gf_qt_swap(g)
    assert swapped.numerator == LaurentPoly.parse(ctx, "x*q*t^2")
    assert sorted(swapped.denominator) == sorted([ctx.monomial(t=1), ctx.monomial(x=1, q=2)])
    xy = VariableContext(("x", "y"))
    with pytest.raises(UsageError):
        gf_qt_swap(RationalGF(xy, LaurentPoly.parse(xy, "x"), [xy.monomial(y=1)]))


def test_check_last_param():
    assert check_last_param((1, 1, 1), 2, 3)
    grids = [
        coefficient_grid(refined_catalan((1, 1, 1) + (m,))) for m in (2, 3)
    ]
    assert grids[0] == grids[1] == GRID_1113
    for m, l in itertools.combinations((1, 2, 3), 2):
        assert check_last_param((2, 1), m, l)
    assert check_last_param((3, 2), 2, 2)


@pytest.mark.parametrize("family", ["three", "k4", "kaaa"])
def test_bounce_agreement(family):
    # three's members of size sum <= 12 include every triple of [1, 4]^3
    assert check_bounce_agreement(family, 12 if family == "three" else 4)


@pytest.mark.parametrize("family, bound", [("three", 6), ("k4", 3), ("kaaa", 3)])
def test_verify_theorem_small(family, bound):
    report = verify_theorem(family, bound)
    assert report.formula_match
    assert report.series_match
    assert report.symmetric
    assert report.all_ok


@pytest.mark.parametrize("family", ["three", "k4", "kaaa"])
@pytest.mark.parametrize("bound", [0, -1, 1.5, "3"])
def test_verify_theorem_reads_odd_bounds_before_predicting_work(family, bound):
    # a bound below 1 has no members to compare, so a report on it would pass
    # vacuously, and one that is not an integer is refused as the series
    # expansion refuses it; math.comb(-1, 3) would raise ValueError, and 1.5 or
    # "3" a TypeError
    if isinstance(bound, int):
        with pytest.raises(DomainError, match=re.escape(f"series bound must be at least 1, got {bound}")):
            verify_theorem(family, bound)
    else:
        with pytest.raises(DomainError, match=re.escape(f"series bound must be an integer, got {bound!r}")):
            verify_theorem(family, bound)


def test_q_binomial_golden():
    assert q_binomial(4, 2) == LaurentPoly.parse(Q_CONTEXT, "1 + q + 2*q^2 + q^3 + q^4")


def test_carlitz_riordan_golden():
    assert carlitz_riordan(3) == LaurentPoly.parse(Q_CONTEXT, "1 + 2*q + q^2 + q^3")
    assert macmahon_q_catalan(2) == LaurentPoly.parse(Q_CONTEXT, "1 + q^2")


def test_q_specializations():
    for n in range(1, 7):
        assert check_q_specializations(n), n
    with pytest.raises(DomainError):
        check_q_specializations(0)


def test_q_specializations_of_fourteen_unit_runs():
    # 2,674,440 paths, past the reach of the prefix walk in tier-1
    assert check_q_specializations(14)
    assert sum(refined_catalan((1,) * 14).terms.values()) == count_paths(KVector((1,) * 14))


def _plus_monomial(gf, coef, **exponents):
    ctx = gf.context
    return gf + RationalGF(ctx, LaurentPoly.monomial(ctx, ctx.monomial(**exponents), coef), ())


def test_series_check_rejects_a_wrong_coefficient():
    printed, bound = printed_theorem("three"), 4
    assert series_matches_paths(printed, "three", bound)
    # an extra term at the smallest size and at a size of sum exactly `bound`
    assert not series_matches_paths(_plus_monomial(printed, 1, x1=1, x2=1, x3=1), "three", bound)
    assert not series_matches_paths(_plus_monomial(printed, 1, x1=1, x2=1, x3=2, q=1), "three", bound)
    # a size of sum bound + 1 is not compared
    assert series_matches_paths(_plus_monomial(printed, 1, x1=1, x2=1, x3=3), "three", bound)
    # the (1,1,1) coefficient q^3 + q^2*t + q*t + q*t^2 + t^3 without its q*t
    missing = _plus_monomial(printed, -1, x1=1, x2=1, x3=1, q=1, t=1)
    assert not series_matches_paths(missing, "three", bound)
    # with every term of size (1,1,1) gone, that size has no group and coefficient zero
    emptied = printed
    for a, b in refined_catalan((1, 1, 1)).terms:
        emptied = _plus_monomial(emptied, -1, x1=1, x2=1, x3=1, q=a, t=b)
    assert not series_matches_paths(emptied, "three", bound)


def test_rearrangements_are_the_distinct_permutations_in_order():
    for parts in [(1,), (2, 1), (1, 1, 1), (3, 1, 1, 2), (2, 2, 1, 1, 1)]:
        assert list(rearrangements(parts)) == sorted(set(itertools.permutations(parts)))
    assert list(rearrangements((1,) * 40)) == [(1,) * 40]
