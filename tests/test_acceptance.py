"""Acceptance suite: every check is exact, finite, and time-budgeted.

Each test prints one ``[PASS]``/``[FAIL]`` line (run pytest with ``-s`` or
``-rA`` to see them all) and enforces its wall-clock budget.
"""

import itertools
import time

import k4_cones
from classical import check_bounce_agreement, check_q_specializations
from regions import region_points

from qtcatalan.catalog import (
    assemble_theorem,
    case_catalog,
    case_membership,
    printed_theorem,
    signed_multiplicity,
)
from qtcatalan.cones import (
    HalfOpenCone,
    gf_equals,
    lattice_index,
    parallelepiped_points,
)
from qtcatalan.oracles import (
    lambda_catalan,
    refined_catalan,
    repeated_tail_vectors,
    symmetry_report,
)
from qtcatalan.polynomial import QT_CONTEXT, LaurentPoly, is_qt_symmetric
from qtcatalan.verify import gf_qt_swap, series_matches_paths

P = lambda s: LaurentPoly.parse(QT_CONTEXT, s)


class _Budget:
    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.start
        return False


def _report(number, description, ok, budget):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number:2d} ({budget.elapsed:6.2f}s): {description}")
    assert ok, f"criterion {number}: {description}"
    assert budget.elapsed < budget.seconds, (
        f"criterion {number} exceeded its {budget.seconds}s budget ({budget.elapsed:.2f}s)"
    )


def test_criterion_01_golden_polynomials():
    with _Budget(1.0) as budget:
        ok = (
            refined_catalan((1, 1, 1)) == P("q^3 + q^2*t + q*t + q*t^2 + t^3")
            and refined_catalan((1, 2)) == P("q + t")
            and refined_catalan((2, 1)) == P("q^2 + q*t + t^2")
            and lambda_catalan((2, 1)) == P("q^2 + q*t + t^2 + q + t")
            and refined_catalan((1, 2, 1))
            == P("q^4 + q^3*t + q^2*t^2 + q*t^3 + t^4 + q^2*t + q*t^2")
        )
    _report(1, "golden refined polynomials", ok, budget)


def test_criterion_02_three_run_series():
    with _Budget(10.0) as budget:
        assembled = assemble_theorem("three")
        printed = printed_theorem("three")
        ok = gf_equals(assembled, printed) and series_matches_paths(printed, "three", 8)
    _report(2, "three-run formula and series to total size 8", ok, budget)


def test_criterion_03_four_equal_runs_series():
    with _Budget(30.0) as budget:
        assembled = assemble_theorem("k4")
        printed = printed_theorem("k4")
        ok = gf_equals(assembled, printed) and series_matches_paths(printed, "k4", 5)
    _report(3, "four-equal-runs formula and series for k = 1..5", ok, budget)


def test_criterion_04_short_run_series():
    with _Budget(60.0) as budget:
        assembled = assemble_theorem("kaaa")
        printed = printed_theorem("kaaa")
        ok = gf_equals(assembled, printed) and series_matches_paths(printed, "kaaa", 5)
    _report(4, "short-run formula and series for k + m <= 5", ok, budget)


def test_criterion_05_symmetry_of_formulas():
    with _Budget(1.0) as budget:
        ok = all(
            gf_equals(printed_theorem(family), gf_qt_swap(printed_theorem(family)))
            for family in ("three", "k4", "kaaa")
        )
    _report(5, "q,t-symmetry of all three product formulas", ok, budget)


def test_criterion_06_parallelepiped_goldens():
    with _Budget(1.0) as budget:
        cones = k4_cones.CONES
        c3 = HalfOpenCone(
            5,
            (0,) * 5,
            ((1, 0, 0, 0, 0), (0, 0, 1, 0, 0), (1, 1, 0, 1, 0), (1, 0, 0, 1, 1), (0, 1, 0, 0, 1)),
            (False, False, False, True, True),
        )
        ok = parallelepiped_points(c3) == [(1, 1, 0, 1, 1), (1, 1, 0, 1, 2)]
        ok = ok and parallelepiped_points(cones["k4.P2C3"]) == [
            (1, 0, 0, 0),
            (1, 0, 0, 1),
            (1, 0, 0, 2),
            (1, 0, 1, 0),
            (1, 0, 1, 1),
            (2, 0, 1, 2),
        ]
        ok = ok and lattice_index(cones["three.C1"]) == 1
        ok = ok and lattice_index(cones["three.C2"]) == 1
        ok = ok and lattice_index(c3) == 2
        ok = ok and lattice_index(cones["k4.P1C1A"]) == 1 and lattice_index(cones["k4.P1C1B"]) == 1
    _report(6, "parallelepiped golden sets and unimodularity verdicts", ok, budget)


def test_criterion_07_bounce_agreement():
    with _Budget(10.0) as budget:
        ok = (
            check_bounce_agreement("three", 12)
            and check_bounce_agreement("k4", 4)
            and check_bounce_agreement("kaaa", 4)
        )
    _report(7, "bounce pass equals closed forms on all small paths", ok, budget)


def test_criterion_08_partition_property():
    with _Budget(1.0) as budget:
        ok = True
        for family in ("three", "k4", "kaaa"):
            specs = case_catalog(family)
            for point in region_points(family, 4):
                if signed_multiplicity(family, point) != 1:
                    ok = False
                    break
                if not any(case_membership(s, point) for s in specs):
                    ok = False
                    break
            if not ok:
                break
    _report(8, "case regions cover each point with signed multiplicity 1", ok, budget)


def test_criterion_09_symmetry_table():
    with _Budget(5.0) as budget:
        report = symmetry_report((1, 1, 3, 1))
        ok = (
            symmetry_report((1, 1, 1, 3)).symmetric
            and symmetry_report((3, 1, 1, 1)).symmetric
            and is_qt_symmetric(lambda_catalan((2, 1, 1, 1)))
            and not report.symmetric
            and report.witness == ((2, 4), 1, 2)
            and not symmetry_report((1, 3, 1, 1)).symmetric
            and not is_qt_symmetric(lambda_catalan((3, 1, 1, 1)))
        )
    _report(9, "length-four symmetry table with coefficient witness", ok, budget)


def test_criterion_10_last_parameter_invariance():
    with _Budget(10.0) as budget:
        cache = {}

        def poly(parts):
            if parts not in cache:
                cache[parts] = refined_catalan(parts)
            return cache[parts]

        ok = poly((1, 1, 1, 2)) == poly((1, 1, 1, 3))
        prefixes = [
            prefix
            for length in (1, 2, 3)
            for prefix in itertools.product((1, 2, 3), repeat=length)
        ]
        for prefix in prefixes:
            reference = poly(prefix + (1,))
            for last in (2, 3):
                if poly(prefix + (last,)) != reference:
                    ok = False
    _report(10, "final run length never changes the polynomial", ok, budget)


def test_criterion_11_repeated_tail_scan():
    with _Budget(60.0) as budget:
        ok = all(
            symmetry_report(parts).symmetric
            for parts in repeated_tail_vectors(3, [2, 3, 4, 5])
        )
    _report(11, "all (k, a, ..., a) vectors up to 3 and length 5 are symmetric", ok, budget)


def test_criterion_12_one_variable_specializations():
    with _Budget(5.0) as budget:
        ok = all(check_q_specializations(n) for n in range(1, 7))
    _report(12, "recurrence, palindromy, and q-binomial identities to n = 6", ok, budget)
