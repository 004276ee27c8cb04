"""Lattice paths with prescribed north-run lengths and their statistics.

A path is encoded by its run-length vector ``(k_1, ..., k_m)`` together with
the rank sequence ``(r_1, ..., r_m)``, where ``r_i`` is ``y - x`` at the start
of the i-th north run.  The rank sequence determines the path: after run ``i``
the path takes ``r_i + k_i - r_{i+1}`` unit east steps (with ``r_{m+1} = 0``).

Two independent routes to the statistics are provided: the general bounce
pass (:func:`path_stats`, linear in the path's size, and
:func:`area_bounce_counts`, the same legs shared among paths with a common
rank prefix) and closed-form
piecewise formulas for the three supported shape families
(:func:`stats_three`, :func:`stats_k4`, :func:`stats_kaaa`).  The test suite
checks them against each other exhaustively on small inputs.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Dict, Iterator, List, NamedTuple, Sequence, Tuple

from .errors import DomainError, InternalInvariantError


def _integers(values: Sequence[int], what: str) -> Tuple[int, ...]:
    """``values`` as a tuple of ints; anything that is not an integer is a DomainError."""
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        raise DomainError(f"{what} must be a sequence of integers, got {values!r}") from None


@dataclass(frozen=True)
class KVector:
    """An ordered tuple of positive run lengths."""

    parts: Tuple[int, ...]

    def __init__(self, parts: Sequence[int]):
        parts = _integers(parts, "run lengths")
        if not parts:
            raise DomainError("run-length vector must be nonempty")
        if any(p < 1 for p in parts):
            raise DomainError(f"run lengths must be positive, got {parts}")
        object.__setattr__(self, "parts", parts)

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def m(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"


@dataclass(frozen=True)
class DyckPath:
    """A path above the diagonal, stored as its rank sequence."""

    kvec: KVector
    ranks: Tuple[int, ...]

    def __init__(self, kvec: KVector, ranks: Sequence[int]):
        if not isinstance(kvec, KVector):
            kvec = KVector(kvec)
        ranks = _integers(ranks, "ranks")
        if len(ranks) != kvec.m:
            raise DomainError(f"need {kvec.m} ranks, got {len(ranks)}")
        if ranks[0] != 0:
            raise DomainError("first rank must be 0")
        for i in range(kvec.m):
            nxt = ranks[i + 1] if i + 1 < kvec.m else 0
            if nxt < 0 or nxt > ranks[i] + kvec.parts[i]:
                raise DomainError(
                    f"rank sequence {ranks} invalid for runs {kvec.parts} at position {i + 1}"
                )
        object.__setattr__(self, "kvec", kvec)
        object.__setattr__(self, "ranks", ranks)

    @property
    def east_runs(self) -> Tuple[int, ...]:
        """Number of unit east steps after each north run; sums to n."""
        ranks, parts = self.ranks, self.kvec.parts
        out = []
        for i in range(len(parts)):
            nxt = ranks[i + 1] if i + 1 < len(parts) else 0
            out.append(ranks[i] + parts[i] - nxt)
        return tuple(out)

    @property
    def area(self) -> int:
        return sum(self.ranks)


class PathStats(NamedTuple):
    area: int
    bounce: int
    # runs consumed by each vertical bounce leg; bounce = sum(i * legs[i])
    legs: Tuple[int, ...]


def enumerate_paths(kvec: KVector) -> Iterator[DyckPath]:
    """Yield every valid path, in descending lexicographic rank order.

    The first path emitted is the one hugging the staircase (maximal ranks)
    and the last is the one hugging the diagonal (all ranks zero).
    """
    if not isinstance(kvec, KVector):
        kvec = KVector(kvec)
    parts = kvec.parts
    m = kvec.m

    def extend(prefix: List[int]) -> Iterator[DyckPath]:
        i = len(prefix)
        if i == m:
            yield DyckPath(kvec, tuple(prefix))
            return
        top = prefix[-1] + parts[i - 1]
        for r in range(top, -1, -1):
            prefix.append(r)
            yield from extend(prefix)
            prefix.pop()

    yield from extend([0])


def count_paths(kvec: KVector) -> int:
    """Number of valid rank sequences, without enumerating them."""
    if not isinstance(kvec, KVector):
        kvec = KVector(kvec)
    ways = [1]  # ways[r] = rank sequences so far ending at rank r
    for k in kvec.parts[:-1]:
        prefix = [0]
        for w in ways:
            prefix.append(prefix[-1] + w)
        # the next rank r' needs a predecessor r with r + k >= r'
        ways = [prefix[-1] - prefix[max(0, rp - k)] for rp in range(len(ways) + k)]
    return sum(ways)


# (step, x, filled, active, bounce) between bounce legs; see _advance
_State = Tuple[int, int, int, int, int]


def _advance(
    parts: Sequence[int],
    owner: List[int],
    expiring: List[int],
    limit: int,
    state: _State,
    log: List[int],
) -> _State:
    """Run bounce legs while the leg's x has a known owner; return the new state.

    The state is ``(step, x, filled, active, bounce)``: the next leg's index,
    its x, the runs consumed so far, the runs counted on the next horizontal
    move, and the bounce so far.  Leg ``step`` climbs to ``owner[x]`` runs;
    run ``j`` consumed there counts towards the horizontal moves of legs
    ``step ... step + k_j - 1``, so ``step + k_j`` is counted in ``expiring``
    and appended to ``log``.
    """
    step, x, filled, active, bounce = state
    known = len(owner)
    while x < known:
        if step >= limit:
            raise InternalInvariantError(
                f"bounce made no progress within {limit} legs on runs {tuple(parts)} "
                f"with east-step owners {owner}"
            )
        v = owner[x] - filled
        if v < 0:
            raise InternalInvariantError(
                f"bounce leg {step} at x={x} stops below the {filled} runs already consumed "
                f"on runs {tuple(parts)} with east-step owners {owner}"
            )
        for j in range(filled, filled + v):
            end = step + parts[j]
            expiring[end] += 1
            log.append(end)
        filled += v
        active += v - expiring[step]
        bounce += step * v
        x += active
        step += 1
    return step, x, filled, active, bounce


def _finish(parts: Sequence[int], owner: List[int], state: _State) -> int:
    """The bounce of a complete path's final state, after checking that the bounce ended."""
    _, x, filled, _, bounce = state
    if filled != len(parts) or x != len(owner):
        raise InternalInvariantError(
            f"bounce ended at x={x} after {filled} of {len(parts)} runs on runs {tuple(parts)} "
            f"with east-step owners {owner}"
        )
    return bounce


def _bounce_arrays(kvec: KVector) -> Tuple[int, List[int]]:
    """The leg limit n + m + 1 and an ``expiring`` array long enough for it."""
    limit = kvec.n + kvec.m + 1
    return limit, [0] * (limit + kvec.n)


def path_stats(path: DyckPath) -> PathStats:
    """Area plus the bounce statistic, in one pass over the legs.

    The bounce path starts at the origin and alternates vertical legs and
    horizontal moves.  Leg ``s`` climbs to the height of the path's east step
    at the current x, consuming whole north runs; run ``j`` consumed at leg
    ``s_j`` then counts towards the horizontal moves of legs
    ``s_j ... s_j + k_j - 1``.  The bounce is ``sum(s * runs consumed at s)``.
    """
    parts = path.kvec.parts
    # owner[x]: number of north runs below the path's east step from x to x + 1
    owner: List[int] = []
    for j, a in enumerate(path.east_runs):
        owner += [j + 1] * a
    limit, expiring = _bounce_arrays(path.kvec)
    log: List[int] = []
    state = _advance(parts, owner, expiring, limit, (0, 0, 0, 0, 0), log)
    bounce = _finish(parts, owner, state)
    # run j was consumed at leg log[j] - k_j
    legs = [0] * state[0]
    for j, end in enumerate(log):
        legs[end - parts[j]] += 1
    return PathStats(area=sum(path.ranks), bounce=bounce, legs=tuple(legs))


def area_bounce_counts(kvec: KVector) -> Dict[Tuple[int, int], int]:
    """The number of paths with each (area, bounce), by one walk over rank prefixes.

    Run ``i`` starts at x = K_i - r_i, where K_i = k_1 + ... + k_{i-1}, and
    these starts never decrease.  So once ranks ``r_1 ... r_i`` are chosen,
    the east steps below that x are fixed, the bounce advances as far as it,
    and only then does the walk branch on ``r_{i+1}``: each leg is run once
    per rank prefix, not once per path.  The walk undoes its ``owner``,
    ``expiring`` and ``log`` changes on the way back up.  The recursion is m
    deep.
    """
    if not isinstance(kvec, KVector):
        kvec = KVector(kvec)
    parts = kvec.parts
    last = kvec.m - 1
    limit, expiring = _bounce_arrays(kvec)
    owner: List[int] = []
    log: List[int] = []
    counts: Dict[Tuple[int, int], int] = {}

    def descend(i: int, rank: int, area: int, state: _State) -> None:
        # ranks of runs 0..i are chosen, the last of them is ``rank``
        top = rank + parts[i]
        for nxt in range(top, -1, -1) if i < last else (0,):
            entry, mark = len(owner), len(log)
            owner.extend([i + 1] * (top - nxt))
            after = _advance(parts, owner, expiring, limit, state, log)
            if i < last:
                descend(i + 1, nxt, area + nxt, after)
            else:
                key = (area, _finish(parts, owner, after))
                counts[key] = counts.get(key, 0) + 1
            for end in log[mark:]:
                expiring[end] -= 1
            del log[mark:], owner[entry:]

    descend(0, 0, 0, (0, 0, 0, 0, 0))
    return counts


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


# -- closed forms, one per shape family -------------------------------------
#
# Each formula is valid on the closure of the path region (sizes may be 0),
# which the cone catalog relies on; the rank inequalities are still enforced.


def stats_three(k1: int, k2: int, k3: int, r2: int, r3: int) -> Tuple[int, int]:
    """Area and bounce for a three-run path given the free ranks r2, r3."""
    if min(k1, k2, k3) < 0:
        raise DomainError("run lengths must be nonnegative")
    if not (0 <= r2 <= k1):
        raise DomainError(f"need 0 <= r2 <= k1, got r2={r2}, k1={k1}")
    if not (0 <= r3 <= r2 + k2):
        raise DomainError(f"need 0 <= r3 <= r2 + k2, got r3={r3}")
    area = r2 + r3
    gap = r2 + k2 - r3
    if gap >= 2 * min(r2, k2):
        bounce = 2 * (k1 - r2) + gap - min(r2, k2)
    else:
        bounce = 2 * (k1 - r2) + _ceil_div(gap, 2)
    return area, bounce


def stats_k4(k: int, a: int, b: int, c: int) -> Tuple[int, int]:
    """Area and bounce for four equal runs of length k.

    The coordinates relate to ranks by ``r2 = k - a``, ``r3 = 2k - a - b``,
    ``r4 = 3k - a - b - c``.
    """
    if not (0 <= a <= k):
        raise DomainError(f"need 0 <= a <= k, got a={a}, k={k}")
    if not (0 <= b <= 2 * k - a):
        raise DomainError(f"need 0 <= b <= 2k - a, got b={b}")
    if not (0 <= c <= 3 * k - a - b):
        raise DomainError(f"need 0 <= c <= 3k - a - b, got c={c}")
    area = 6 * k - 3 * a - 2 * b - c
    if b >= 2 * k - 2 * a:
        if c >= 4 * k - 2 * a - 2 * b:
            bounce = 6 * a + 3 * b + c - 4 * k
        else:
            bounce = 5 * a + 2 * b + _ceil_div(c, 2) - 2 * k
    elif b % 2 == 0:
        if 2 * c >= 6 * k - 2 * a - 3 * b:
            bounce = 4 * a + 2 * b + c - 2 * k
        elif 2 * c >= 6 * k - 6 * a - 3 * b:
            bounce = 2 * a + b // 2 + k + _ceil_div(6 * a + 3 * b + 2 * c - 6 * k, 4)
        else:
            bounce = 3 * a + b + _ceil_div(c, 3)
    else:
        half = 3 * (b + 1) // 2
        if c >= 3 * k - a - half + 1:
            bounce = 4 * a + 2 * b + c - 2 * k + 1
        elif c >= 3 * k - 3 * a - half + 1:
            bounce = 2 * a + (b + 1) // 2 + k + _ceil_div(3 * a + half + c - 3 * k - 1, 2)
        else:
            bounce = 3 * a + b + 1 + _ceil_div(c - 1, 3)
    return area, bounce


def stats_kaaa(k: int, m: int, a: int, b: int, c: int) -> Tuple[int, int]:
    """Area and bounce for runs (k, k+m, k+m, k+m).

    Coordinates relate to ranks by ``r2 = k - a``, ``r3 = 2k + m - a - b``,
    ``r4 = 3k + 2m - a - b - c``.  Specializes to :func:`stats_k4` at m = 0.
    """
    if m < 0:
        raise DomainError(f"need m >= 0, got {m}")
    if not (0 <= a <= k):
        raise DomainError(f"need 0 <= a <= k, got a={a}, k={k}")
    if not (0 <= b <= 2 * k + m - a):
        raise DomainError(f"need 0 <= b <= 2k + m - a, got b={b}")
    if not (0 <= c <= 3 * k + 2 * m - a - b):
        raise DomainError(f"need 0 <= c <= 3k + 2m - a - b, got c={c}")
    area = 6 * k + 3 * m - 3 * a - 2 * b - c
    hb = _ceil_div(b, 2)
    if b == 0:
        if c == 0:
            bounce = 3 * a
        elif c <= 3 * (k - a):
            bounce = 3 * a + _ceil_div(c, 3)
        else:
            bounce = 2 * a + k + _ceil_div(c - 3 * (k - a), 2)
    elif b <= 2 * (k - a):
        if c == 0:
            bounce = 3 * a + 2 * hb
        elif b % 2 == 0:
            if c <= 3 * (k - a - hb):
                bounce = 3 * a + 2 * hb + _ceil_div(c, 3)
            elif c <= 3 * (k - hb) - a + 2 * m:
                bounce = 2 * a + hb + k + _ceil_div(c - 3 * (k - a - hb), 2)
            else:
                bounce = c - 2 * k + 4 * a + 4 * hb - m
        else:
            if c - 1 <= 3 * (k - a - hb):
                bounce = 3 * a + 2 * hb + _ceil_div(c - 1, 3)
            elif c - 1 <= 3 * (k - hb) - a + 2 * m:
                bounce = 2 * a + hb + k + _ceil_div(c - 1 - 3 * (k - a - hb), 2)
            else:
                bounce = c - 1 - 2 * k + 4 * a + 4 * hb - m
    else:
        if c <= 2 * (2 * k - a + m - b):
            bounce = 5 * a + 2 * b - 2 * k + _ceil_div(c, 2)
        else:
            bounce = 6 * a + 3 * b - 4 * k + c - m
    return area, bounce
