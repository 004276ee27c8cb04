import itertools

import pytest

from qtcatalan.errors import DomainError
from qtcatalan.paths import (
    DyckPath,
    KVector,
    count_paths,
    enumerate_paths,
    path_stats,
    stats_k4,
    stats_kaaa,
    stats_three,
)


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
            trace = path_stats(path).trace
            assert sum(trace.leg_lengths) == kvec.m
            assert trace.bounce_points[-1] == (kvec.n, kvec.n)
            assert trace.bounce == trace.first_row_sum()
            assert tuple(len(col) for col in trace.tableau) == tuple(k + 1 for k in parts)


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


def _k4_coords(path):
    k = path.kvec.parts[0]
    a = k - path.ranks[1]
    b = 2 * k - a - path.ranks[2]
    c = 3 * k - a - b - path.ranks[3]
    return k, a, b, c


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
            assert stats_k4(*_k4_coords(path)) == (stats.area, stats.bounce)


def test_closed_kaaa_examples():
    assert stats_kaaa(1, 1, 1, 0, 0) == (6, 3)
    with pytest.raises(DomainError):
        stats_kaaa(1, -1, 0, 0, 0)
    with pytest.raises(DomainError):
        stats_kaaa(1, 1, 0, 4, 0)


def test_closed_kaaa_specializes_to_k4():
    for k in range(1, 4):
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
                a = k - path.ranks[1]
                b = 2 * k + m - a - path.ranks[2]
                c = 3 * k + 2 * m - a - b - path.ranks[3]
                assert stats_kaaa(k, m, a, b, c) == (stats.area, stats.bounce)
