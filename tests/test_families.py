"""The family table: its derived data and its lookup."""

import itertools
import re
from collections import Counter

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qtcatalan import families
from qtcatalan.catalog import (
    assemble_theorem,
    case_catalog,
    printed_theorem,
    signed_multiplicity,
)
from qtcatalan.errors import DomainError, UsageError
from qtcatalan.families import FAMILIES, UPPER_BOUNDS, family
from qtcatalan.paths import KVector, LegTable, area_bounce_counts
from qtcatalan.verify import series_matches_paths

from classical import check_bounce_agreement
from regions import region_points
from test_imports import package_imports


def test_member_vectors_up_to_a_bound():
    def members(name, bound):
        fam = family(name)
        return [fam.kvector(sizes) for sizes in fam.sizes(bound)]

    assert members("three", 3) == [(1, 1, 1)]
    assert members("k4", 3) == [(1, 1, 1, 1), (2, 2, 2, 2), (3, 3, 3, 3)]
    assert members("kaaa", 3) == [
        (1, 1, 1, 1), (1, 2, 2, 2), (1, 3, 3, 3), (2, 2, 2, 2), (2, 3, 3, 3), (3, 3, 3, 3),
    ]


def test_series_cases_are_the_members_of_total_size_at_most_the_bound():
    fam = family("three")
    cases = list(fam.sizes(5))
    assert cases == [
        (k1, k2, k3)
        for k1 in range(1, 6)
        for k2 in range(1, 6 - k1)
        for k3 in range(1, 6 - k1 - k2)
    ]
    assert fam.size_names == ("x1", "x2", "x3")
    assert family("k4").size_names == ("x",)
    assert family("kaaa").size_names == ("x", "y")


@pytest.mark.parametrize("name", ["three", "k4", "kaaa"])
def test_size_count_is_the_number_of_sizes_within_the_bound(name):
    fam = family(name)
    for bound in range(0, 16):
        assert fam.size_count(bound) == sum(1 for _ in fam.sizes(bound)), bound


@pytest.mark.parametrize("name", ["three", "k4", "kaaa"])
def test_sizes_are_exactly_those_summing_to_at_most_the_bound(name):
    fam = family(name)
    for bound in range(0, 16):
        sizes = list(fam.sizes(bound))
        assert len(sizes) == fam.size_count(bound), bound
        assert all(sum(s) <= bound for s in sizes), bound


def test_specialization_drops_only_the_marks():
    k4 = family("k4").specialize
    assert k4 == {
        "x": (1, 0, 0), "y1": (0, 0, 0), "y2": (0, 0, 0), "y3": (0, 0, 0),
        "q": (0, 1, 0), "t": (0, 0, 1),
    }
    kaaa = family("kaaa").specialize
    assert kaaa == {
        "x": (1, 0, 0, 0), "y": (0, 1, 0, 0),
        "z1": (0, 0, 0, 0), "z2": (0, 0, 0, 0), "z3": (0, 0, 0, 0),
        "q": (0, 0, 1, 0), "t": (0, 0, 0, 1),
    }
    three = family("three")
    assert all(
        image == three.theorem_ctx.monomial(**{name: 1})
        for name, image in three.specialize.items()
    )


def _table_points(name, free):
    """The region's points, bounded coordinates enumerated by ``UPPER_BOUNDS``, with the
    unbounded ones, in order, set to ``free``."""
    coords, bounds, free = FAMILIES[name].coords, UPPER_BOUNDS[name], iter(free)
    points = [{}]
    for x in coords:
        if x in bounds:
            points = [
                {**p, x: v}
                for p in points
                for v in range(sum(c * p[y] for y, c in bounds[x].items()) + 1)
            ]
        else:
            v = next(free)
            points = [{**p, x: v} for p in points]
    return [tuple(p[x] for x in coords) for p in points]


@pytest.mark.parametrize("name", ["three", "k4", "kaaa"])
def test_the_region_table_has_the_oracle_s_points(name):
    unbounded = [i for i, x in enumerate(FAMILIES[name].coords) if x not in UPPER_BOUNDS[name]]
    for size in range(7):
        expected = sorted(region_points(name, size))
        sizes = sorted({tuple(p[i] for i in unbounded) for p in expected})
        assert sorted(p for free in sizes for p in _table_points(name, free)) == expected, size


@pytest.mark.parametrize("name", ["three", "k4", "kaaa"])
def test_the_closed_forms_refuse_exactly_the_points_outside_the_region(name):
    fam = FAMILIES[name]
    inside = set(region_points(name, 6))
    for point in itertools.product(range(-1, 4), repeat=len(fam.coords)):
        if point in inside:
            fam.stats(*point)
        else:
            with pytest.raises(DomainError):
                fam.stats(*point)


@st.composite
def points_with_a_non_integer(draw):
    """A family and a point of its arity with one coordinate that is not an int."""
    name = draw(st.sampled_from(sorted(FAMILIES)))
    point = draw(st.lists(st.integers(-1, 4), min_size=len(FAMILIES[name].coords),
                          max_size=len(FAMILIES[name].coords)))
    odd = st.one_of(st.floats(), st.fractions(), st.text(max_size=2), st.none())
    point[draw(st.integers(0, len(point) - 1))] = draw(odd)
    return name, tuple(point)


@given(points_with_a_non_integer())
# each was read as it came: (0.5, 2.0), (4.5, 1.5), and a TypeError from "1" < 0
@example(("three", (1, 1, 1, 0.5, 0)))
@example(("kaaa", (1, 0, 0.5, 0, 0)))
@example(("kaaa", ("1", 0, 0, 0, 0)))
def test_the_closed_forms_refuse_a_point_that_is_not_integers(drawn):
    name, point = drawn
    with pytest.raises(DomainError, match=re.escape(f"{name} point must be a sequence of integers, got {point!r}")):
        FAMILIES[name].stats(*point)


def test_a_refused_point_is_named_in_its_own_family(monkeypatch):
    """k4 reuses kaaa's closed form at m = 0, but checks and names its own
    region, and each family's point is checked once."""
    with pytest.raises(DomainError) as refused:
        FAMILIES["k4"].stats(2, 1, 4, 0)
    assert str(refused.value) == "k4 point (2, 1, 4, 0) is outside 0 <= b <= 3"
    checked = []
    monkeypatch.setattr(families, "_check_region", lambda *args: checked.append(args))
    assert FAMILIES["k4"].stats(2, 1, 1, 0) == FAMILIES["kaaa"].stats(2, 0, 1, 1, 0)
    assert checked == [("k4", (2, 1, 1, 0)), ("kaaa", (2, 0, 1, 1, 0))]


@pytest.mark.parametrize(
    "call",
    [
        lambda: assemble_theorem("bogus"),
        lambda: printed_theorem("bogus"),
        lambda: case_catalog("bogus"),
        lambda: signed_multiplicity("bogus", (1, 1, 1, 1)),
        lambda: check_bounce_agreement("bogus", 2),
        lambda: series_matches_paths(printed_theorem("k4"), "bogus", 2),
    ],
    ids=[
        "assemble_theorem",
        "printed_theorem",
        "case_catalog",
        "signed_multiplicity",
        "check_bounce_agreement",
        "series_matches_paths",
    ],
)
def test_unknown_family_is_a_usage_error(call):
    with pytest.raises(UsageError, match="unknown family 'bogus'"):
        call()


@pytest.mark.parametrize("module", ["paths", "polynomial", "families"])
def test_path_route_does_not_import_the_cone_route(module):
    imported = package_imports(module)
    assert not imported & {"cones", "catalog", "lattice"}, imported


# each family's closed form on a point inside its region, without the region check
CLOSED_FORMS = {"three": families._three_stats, "kaaa": families._kaaa_stats}


@pytest.mark.parametrize("name", ["three", "kaaa"])
def test_the_closed_forms_count_each_member_s_paths_by_area_and_bounce(name):
    # every member of size sum at most 12: kaaa's band, with its faces b = 0 and c = 0 and
    # its odd b, at sizes that the path-by-path agreement check does not reach
    fam, closed_form = FAMILIES[name], CLOSED_FORMS[name]
    members = list(fam.sizes(12))
    legs = LegTable(fam.kvector(sizes) for sizes in members)
    for sizes in members:
        parts = fam.kvector(sizes)
        counts = Counter(closed_form(*point) for point in _table_points(name, sizes))
        assert counts == area_bounce_counts(KVector(parts), legs), parts
