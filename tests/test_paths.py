import contextlib
import functools
import io
import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtcatalan.errors import DomainError, InternalInvariantError
from qtcatalan import cli, paths
from qtcatalan.families import FAMILIES, stats_kaaa, stats_three
from qtcatalan.paths import (
    DyckPath,
    KVector,
    LegTable,
    _check_end,
    _fetch_leg,
    _legs,
    area_bounce_counts,
    count_paths,
    enumerate_paths,
    path_stats,
)

import forward_transfer
import prefix_walk
from classical import COORDS_OF
from closed_k4 import stats_k4
from tableau import tableau_stats


def stats_list(parts):
    return [(path_stats(p).area, path_stats(p).bounce) for p in enumerate_paths(KVector(parts))]


def test_validation():
    with pytest.raises(DomainError):
        KVector(())
    with pytest.raises(DomainError):
        KVector((1, 0))
    with pytest.raises(DomainError):
        DyckPath(KVector((1, 1)), (1, 0))
    with pytest.raises(DomainError):
        DyckPath(KVector((1, 1)), (0, 3))
    # non-integers used to be cut by int(): KVector([1.7, 2.9]).parts was (1, 2)
    for parts in [(1.7, 2.9), (2, 1.0), (Fraction(2), 1), ("1", "2"), (None,), 5]:
        with pytest.raises(DomainError):
            KVector(parts)
    for ranks in [(0, 1.9), (0.0, 1), (0, Fraction(1)), ("0", "1")]:
        with pytest.raises(DomainError):
            DyckPath(KVector((2, 1)), ranks)


def test_enumeration_counts():
    assert len(list(enumerate_paths(KVector((1, 1, 1))))) == 5
    assert len(list(enumerate_paths(KVector((1, 2))))) == 2
    assert len(list(enumerate_paths(KVector((2, 1))))) == 3
    for k in (1, 2, 5):
        paths = list(enumerate_paths(KVector((k,))))
        assert len(paths) == 1
        assert paths[0].ranks == (0,)


def test_count_paths_matches_enumeration():
    for parts in [(1, 1, 1), (2, 1), (1, 2), (3, 1, 2), (2, 2, 2), (1, 1, 1, 1), (2, 3, 1, 2)]:
        assert count_paths(KVector(parts)) == len(list(enumerate_paths(KVector(parts))))


def test_count_paths_catalan():
    catalan = [1, 1, 2, 5, 14, 42, 132]
    for n in range(1, 7):
        assert count_paths(KVector((1,) * n)) == catalan[n]


def test_stats_unit_runs():
    assert stats_list((1, 1, 1)) == [(3, 0), (2, 1), (1, 1), (1, 2), (0, 3)]


def test_stats_two_runs():
    assert stats_list((2, 1)) == [(2, 0), (1, 1), (0, 2)]
    assert stats_list((1, 2)) == [(1, 0), (0, 1)]


def test_stats_single_run():
    for k in (1, 2, 4):
        (only,) = enumerate_paths(KVector((k,)))
        stats = path_stats(only)
        assert (stats.area, stats.bounce) == (0, 0)


def test_trace_invariants():
    for parts in [(1, 1, 1), (2, 1), (1, 3, 2), (2, 2, 2, 2), (1, 4, 1, 3)]:
        kvec = KVector(parts)
        for path in enumerate_paths(kvec):
            stats = path_stats(path)
            assert sum(stats.legs) == kvec.m
            assert stats.bounce == sum(i * v for i, v in enumerate(stats.legs))
            trace = tableau_stats(path).trace
            assert stats.legs == trace.leg_lengths
            assert trace.bounce_points[-1] == (kvec.n, kvec.n)
            assert trace.bounce == trace.first_row_sum()
            assert tuple(len(col) for col in trace.tableau) == tuple(k + 1 for k in parts)


def _agrees_with_tableau(path):
    stats = path_stats(path)
    oracle = tableau_stats(path)
    return (stats.area, stats.bounce, stats.legs) == (
        oracle.area,
        oracle.bounce,
        oracle.trace.leg_lengths,
    )


# every vector of at most five parts in 1..3: 78,879 paths
SMALL_VECTORS = [
    parts for length in range(1, 6) for parts in itertools.product(range(1, 4), repeat=length)
]


def _tableau_scores(parts):
    """(area, bounce, legs) of each path of ``parts`` by the tableau, in enumeration order."""
    return tuple(
        (s.area, s.bounce, s.trace.leg_lengths)
        for s in map(tableau_stats, enumerate_paths(KVector(parts)))
    )


# the two tests over SMALL_VECTORS share one tableau score per path
_small_tableau_scores = functools.cache(_tableau_scores)


def test_linear_bounce_agrees_with_tableau_on_every_small_path():
    # every path's legs come from one table shared by all the small vectors
    legs = LegTable(SMALL_VECTORS)
    for parts in SMALL_VECTORS:
        paths = enumerate_paths(KVector(parts))
        for path, expected in zip(paths, _small_tableau_scores(parts), strict=True):
            stats = path_stats(path, legs)
            assert (stats.area, stats.bounce, stats.legs) == expected, (parts, path.ranks)
        legs.release(parts)
    assert legs._legs == {}


@st.composite
def dyck_paths(draw, parts=st.lists(st.integers(1, 6), min_size=1, max_size=9)):
    """A path of drawn run lengths, its ranks drawn one run at a time."""
    parts = draw(parts)
    ranks = [0]
    for k in parts[:-1]:
        ranks.append(draw(st.integers(0, ranks[-1] + k)))
    return DyckPath(KVector(parts), ranks)


@settings(max_examples=1000, deadline=None)
@given(dyck_paths())
def test_linear_bounce_agrees_with_tableau_on_drawn_paths(path):
    assert _agrees_with_tableau(path)


def _counts_agree(parts, tableau_scores):
    """The merged counts equal the prefix walk's and the tableau's, and sum to the path count."""
    kvec = KVector(parts)
    counts = area_bounce_counts(kvec)
    oracle = Counter((area, bounce) for area, bounce, _ in tableau_scores)
    walk = prefix_walk.area_bounce_counts(kvec)
    return counts == oracle == walk and sum(counts.values()) == count_paths(kvec)


def test_walk_agrees_with_enumeration_and_tableau_on_every_small_vector():
    # every vector of at most five parts in 1..3, as for the bounce pass above
    for parts in SMALL_VECTORS:
        kvec = KVector(parts)
        scored = Counter((s.area, s.bounce) for s in map(path_stats, enumerate_paths(kvec)))
        assert area_bounce_counts(kvec) == scored, parts
        assert _counts_agree(parts, _small_tableau_scores(parts)), parts


@st.composite
def few_path_vectors(draw, max_paths=300):
    """Up to eight parts in 1..4, cut back to the longest prefix with few paths.

    The oracle scores every path, so the cut keeps each example cheap; a
    prefix never has more paths than the whole vector.
    """
    parts = draw(st.lists(st.integers(1, 4), min_size=1, max_size=8))
    while count_paths(KVector(parts)) > max_paths:
        parts.pop()
    return parts


@settings(max_examples=1000, deadline=None)
@given(few_path_vectors())
def test_walk_agrees_with_tableau_on_drawn_vectors(parts):
    assert _counts_agree(parts, _tableau_scores(parts))


def test_merged_counts_agree_with_the_walk_on_twelve_unit_runs():
    kvec = KVector((1,) * 12)
    assert area_bounce_counts(kvec) == prefix_walk.area_bounce_counts(kvec)


def _shared_counts_agree(vectors):
    """Counts through one table for all of ``vectors`` equal the forward transfer's, one by one."""
    legs = LegTable(vectors)
    for parts in vectors:
        assert area_bounce_counts(KVector(parts), legs) == forward_transfer.area_bounce_counts(
            KVector(parts)
        ), parts
    # each segment's legs and each prefix's layer were dropped after the last vector that holds it
    assert legs._legs == {} and legs._layers == {} and legs._uses == {}


def test_shared_counts_agree_with_the_forward_transfer_on_every_small_vector():
    vectors = list(SMALL_VECTORS)
    random.Random(0).shuffle(vectors)
    _shared_counts_agree(vectors)


@settings(max_examples=100, deadline=None)
@given(st.lists(few_path_vectors(), min_size=10, max_size=10))
def test_shared_counts_agree_with_the_forward_transfer_on_drawn_vectors(vectors):
    # 100 examples of 10 vectors each: 1,000 drawn vectors, repeats included
    _shared_counts_agree(vectors)


def _members(name, bound):
    fam = FAMILIES[name]
    return [fam.kvector(sizes) for sizes in fam.sizes(bound)]


@pytest.mark.parametrize(
    "vectors",
    [
        [(1,) * 14],
        _members("three", 12),
        _members("kaaa", 16),
        sorted(set(itertools.permutations((3, 2, 2, 1, 1, 1, 1)))),
        list(itertools.product(range(1, 4), repeat=5)),
    ],
    ids=["fourteen unit runs", "three 12", "kaaa 16", "lambda 3221111", "length 5 up to 3"],
)
def test_shared_counts_agree_with_the_forward_transfer_on_large_commands(vectors):
    _shared_counts_agree(vectors)


@st.composite
def shared_prefix_vectors(draw):
    """Several tails of equal and unequal lengths on a few prefixes, in a drawn order."""
    runs = st.lists(st.integers(1, 3), min_size=1, max_size=3).map(tuple)
    prefixes = draw(st.lists(runs, min_size=1, max_size=3))
    tails = draw(st.lists(st.tuples(st.sampled_from(prefixes), runs), min_size=2, max_size=8))
    return draw(st.permutations([prefix + tail for prefix, tail in tails]))


@settings(max_examples=100, deadline=None)
@given(shared_prefix_vectors())
def test_vectors_that_share_prefixes_count_as_the_forward_transfer(vectors):
    _shared_counts_agree(vectors)


def test_a_layer_is_kept_only_while_another_vector_holds_its_prefix():
    legs = LegTable([(1, 2, 1), (1, 2, 3), (1, 1), (2, 2, 2)])
    area_bounce_counts(KVector((1, 2, 1)), legs)
    # (1, 2, 3) holds both prefixes; (1, 1) has another length, so m keys them apart
    assert set(legs._layers) == {(3, legs.span, (1,)), (3, legs.span, (1, 2))}
    area_bounce_counts(KVector((1, 2, 3)), legs)
    assert legs._layers == {}
    area_bounce_counts(KVector((2, 2, 2)), legs)
    area_bounce_counts(KVector((1, 1)), legs)
    assert legs._legs == {} and legs._layers == {} and legs._uses == {}


def test_a_vector_the_table_was_not_made_for_counts_correctly(monkeypatch):
    depths = []
    layer = LegTable.layer

    def spied(self, parts, span):
        kept, depth = layer(self, parts, span)
        depths.append(depth)
        return kept, depth

    monkeypatch.setattr(LegTable, "layer", spied)
    legs = LegTable([(1, 1, 1), (1, 1, 2), (1, 1, 2)])
    for parts in [(1, 1, 2), (1, 1, 5), (1, 1, 1), (1, 1, 2)]:
        # (1, 1, 5) has the larger span 7 * 3 + 1, so it keys its layers apart; (1, 1, 1) reuses
        assert area_bounce_counts(KVector(parts), legs) == forward_transfer.area_bounce_counts(
            KVector(parts)
        ), parts
    # releasing (1, 1, 5) lowers no use of the table's own vectors, so the last
    # (1, 1, 2) still finds the layer after (1, 1), and the store ends empty
    assert depths == [0, 0, 2, 2]
    assert legs._legs == {} and legs._layers == {} and legs._uses == {}


def test_verify_builds_each_shared_layer_once(monkeypatch):
    # three at bound 12 counts 220 members (k1, k2, k3), but only 55 distinct (k1, k2)
    builds = Counter()
    keep = LegTable.keep

    def counted(self, parts, span, layer, filled):
        builds[filled] += 1
        keep(self, parts, span, layer, filled)

    monkeypatch.setattr(LegTable, "keep", counted)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "--theorem", "three", "--bound", "12"]) == 0
    assert builds == {1: 10, 2: 55}


def test_a_table_keeps_legs_only_for_the_vectors_still_to_count():
    legs = LegTable([(2, 1, 1), (1, 1), (4, 4)])
    area_bounce_counts(KVector((2, 1, 1)), legs)
    # (1, 1) still holds (1,) and (1, 1); nothing left holds a segment with a 2
    assert set(legs._legs) == {(1,), (1, 1)}
    area_bounce_counts(KVector((1, 1)), legs)
    assert legs._legs == {}
    # vectors that share nothing keep one vector's legs at a time
    area_bounce_counts(KVector((4, 4)), legs)
    assert legs._legs == {} and legs._uses == {}


def test_verify_runs_each_distinct_leg_once(monkeypatch):
    # three at bound 12 runs 9,471 legs for 220 members, 1,445 of them distinct
    calls = Counter()

    def counted(*args):
        calls["legs"] += 1
        return _legs(*args)

    monkeypatch.setattr(paths, "_legs", counted)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "--theorem", "three", "--bound", "12"]) == 0
    assert calls["legs"] == 1445


def test_scan_runs_each_distinct_leg_once(monkeypatch):
    # the 243 vectors of length 5 with parts up to 3 run 32,694 legs, 2,910 of them distinct
    calls = Counter()

    def counted(*args):
        calls["legs"] += 1
        return _legs(*args)

    monkeypatch.setattr(paths, "_legs", counted)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["scan", "--all-length", "5", "--max", "3"]) == 1
    assert calls["legs"] == 2910


def test_a_leg_that_climbs_no_run_is_not_kept():
    legs = LegTable()
    parts = (1, 1, 1)
    # after run 0 with one run consumed, the legs climb 0 runs and are run, not kept
    climb_zero = legs.known(parts, 0, 1, 1, ())
    assert _fetch_leg(climb_zero, parts, 0, -1, 1, 1, ()) == (0, 1, (), 1)
    # with two consumed they would stop below them: the same empty segment and
    # state hold nothing, and the legs raise
    climb_below = legs.known(parts, 0, 2, 1, ())
    assert climb_below == {}
    with pytest.raises(InternalInvariantError, match="below the 2 runs"):
        _fetch_leg(climb_below, parts, 0, -1, 2, 1, ())


# expiry schedules for the states below: none, or runs that stop counting at legs 0 to 3
EXPIRY_SCHEDULES = [(), ((0, 1),), ((1, 1),), ((0, 2),), ((2, 1),), ((0, 1), (1, 1)), ((1, 1), (3, 2))]


def _leg_or_raise(legs, *args):
    try:
        return legs(*args)
    except InternalInvariantError:
        return None


def test_the_stall_rule_agrees_with_the_leg_limit_on_every_small_state():
    # every vector of at most three runs in 1..3, each run, filled up to one
    # past it, -n <= gap < 0, active from -1 to 4 and each expiry schedule
    vectors = itertools.chain.from_iterable(
        itertools.product(range(1, 4), repeat=m) for m in range(1, 4)
    )
    states = 0
    for parts in vectors:
        n = sum(parts)
        for run, gap, active, expiring in itertools.product(
            range(len(parts)), range(-n, 0), range(-1, 5), EXPIRY_SCHEDULES
        ):
            for filled in range(run + 2):
                args = (run, gap, filled, active, expiring)
                limited = _leg_or_raise(forward_transfer._legs, parts, n + len(parts) + 1, *args)
                # the bounded loop also returns the runs consumed, run + 1
                expected = limited and limited[:1] + limited[2:]
                assert _leg_or_raise(_legs, parts, *args) == expected, (parts, args)
                states += 1
    assert states == 69_300


def test_a_leg_at_which_no_run_counts_raises_and_is_not_kept():
    legs = LegTable([(1, 1, 1)])
    parts = (1, 1, 1)
    # from gap -1 the legs after run 0 end at leg 1, and are kept
    known = legs.known(parts, 0, 0, 0, ())
    assert _fetch_leg(known, parts, 0, -1, 0, 0, ()) == (0, 1, ((0, 1),), 1)
    assert known == {-1: (0, 1, ((0, 1),), 1)}
    # from gap -2, run 0 counts on leg 0 only: at leg 1 no run counts and the gap is still -1
    message = r"no progress at leg 1 after run 0 on runs \(1, 1, 1\)"
    for _ in range(2):
        with pytest.raises(InternalInvariantError, match=message):
            _fetch_leg(legs.known(parts, 0, 0, 0, ()), parts, 0, -2, 0, 0, ())
        # nothing was kept for gap -2, so the next fetch runs the legs, and raises, again
        assert legs.known(parts, 0, 0, 0, ()) == {-1: (0, 1, ((0, 1),), 1)}


def test_bounce_invariant_checks():
    parts = (1, 1, 1)
    # a leg past the east steps after run 0 cannot stop below 2 consumed runs
    with pytest.raises(InternalInvariantError, match="below the 2 runs"):
        _legs(parts, 0, -1, 2, 2, ())
    # with no run counted the legs never move right
    with pytest.raises(InternalInvariantError, match="no progress at leg 0"):
        _legs(parts, 0, -1, 1, -1, ())
    with pytest.raises(InternalInvariantError, match="after 2 of 3 runs"):
        _check_end(parts, 0, 2)
    with pytest.raises(InternalInvariantError, match="x=n-1"):
        _check_end(parts, -1, 3)
    _check_end(parts, 0, 3)


SIZES = {
    "three": st.tuples(st.integers(1, 40), st.integers(1, 40), st.integers(1, 40)),
    "k4": st.tuples(st.integers(1, 40)),
    "kaaa": st.tuples(st.integers(1, 40), st.integers(0, 40)),
}


@st.composite
def family_paths(draw):
    fam = FAMILIES[draw(st.sampled_from(sorted(SIZES)))]
    parts = fam.kvector(draw(SIZES[fam.name]))
    return fam, draw(dyck_paths(parts=st.just(parts)))


@settings(max_examples=300, deadline=None)
@given(family_paths())
def test_closed_forms_agree_with_bounce_beyond_the_sweep(drawn):
    fam, path = drawn
    stats = path_stats(path)
    assert fam.stats(*COORDS_OF[fam.name](path)) == (stats.area, stats.bounce)
    assert _agrees_with_tableau(path)


def test_east_runs_sum():
    for parts in [(1, 1, 1), (3, 2), (2, 1, 4)]:
        for path in enumerate_paths(KVector(parts)):
            east = path.east_runs
            assert all(a >= 0 for a in east)
            assert sum(east) == path.kvec.n


def test_classical_symmetry_small():
    # multiset of (area, bounce) is swap-invariant for unit runs
    for n in range(1, 7):
        pairs = stats_list((1,) * n)
        assert sorted(pairs) == sorted((b, a) for a, b in pairs)


def test_closed_three_examples():
    assert stats_three(1, 1, 1, 0, 0) == (0, 3)
    assert stats_three(1, 1, 1, 1, 2) == (3, 0)
    with pytest.raises(DomainError):
        stats_three(1, 1, 1, 2, 0)
    with pytest.raises(DomainError):
        stats_three(1, 1, 1, 0, 3)


def test_closed_three_agrees_with_algorithm():
    for k1, k2, k3 in itertools.product(range(1, 4), repeat=3):
        for path in enumerate_paths(KVector((k1, k2, k3))):
            stats = path_stats(path)
            got = stats_three(k1, k2, k3, path.ranks[1], path.ranks[2])
            assert got == (stats.area, stats.bounce), (k1, k2, k3, path.ranks)


def test_closed_k4_examples():
    assert stats_k4(1, 0, 0, 0) == (6, 0)
    assert stats_k4(1, 1, 1, 1) == (0, 6)
    with pytest.raises(DomainError):
        stats_k4(1, 2, 0, 0)
    with pytest.raises(DomainError):
        stats_k4(2, 1, 4, 0)


def test_closed_k4_agrees_with_algorithm():
    for k in range(1, 4):
        for path in enumerate_paths(KVector((k,) * 4)):
            stats = path_stats(path)
            assert stats_k4(*COORDS_OF["k4"](path)) == (stats.area, stats.bounce)


def test_closed_kaaa_examples():
    assert stats_kaaa(1, 1, 1, 0, 0) == (6, 3)
    with pytest.raises(DomainError):
        stats_kaaa(1, -1, 0, 0, 0)
    with pytest.raises(DomainError):
        stats_kaaa(1, 1, 0, 4, 0)


def test_closed_kaaa_specializes_to_k4():
    for k in range(1, 17):
        for a in range(k + 1):
            for b in range(2 * k - a + 1):
                for c in range(3 * k - a - b + 1):
                    assert stats_kaaa(k, 0, a, b, c) == stats_k4(k, a, b, c)


def test_closed_kaaa_agrees_with_algorithm():
    for k in range(1, 4):
        for m in range(0, 4 - k):
            parts = (k,) + (k + m,) * 3
            for path in enumerate_paths(KVector(parts)):
                stats = path_stats(path)
                assert stats_kaaa(*COORDS_OF["kaaa"](path)) == (stats.area, stats.bounce)
