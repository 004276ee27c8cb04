"""The rank-prefix walk, kept as a test oracle for ``paths.area_bounce_counts``.

This is how ``area_bounce_counts`` counted before it merged bounce states:
one recursive walk over the rank prefixes, which runs each bounce leg once
per prefix and reaches one leaf per path.  The code is unchanged; the tests
compare its counts with the merged counts.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from qtcatalan.errors import InternalInvariantError
from qtcatalan.paths import KVector


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
