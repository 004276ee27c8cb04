"""The forward transfer without a leg table, kept as a test oracle for ``paths.area_bounce_counts``.

This is how ``area_bounce_counts`` counted before its legs were shared: the
same forward pass over merged bounce states, which runs every leg through
``_legs`` afresh, even one that another state, run or vector has run with
the same inputs.  ``_legs`` is its own copy of the leg loop as it was then,
which bounds the legs of a vector by ``n + m + 1`` steps instead of testing
for a stall, so the tests that compare these counts with the counts through
a shared ``LegTable``, and the stall rule with the bound, do not compare the
library's loop with itself.  The code is unchanged.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from qtcatalan.errors import InternalInvariantError
from qtcatalan.paths import KVector, _check_end, _Expiring


def _legs(
    parts: Sequence[int],
    limit: int,
    run: int,
    gap: int,
    filled: int,
    active: int,
    expiring: _Expiring,
) -> Tuple[int, int, int, _Expiring, int]:
    """Run the bounce legs that stop at the east steps after run ``run``.

    ``gap`` is the next leg's x minus the number of known east steps, and is
    negative here: the leg stops at an east step after run ``run`` and climbs
    to ``run + 1`` runs.  Run ``j`` consumed at leg ``s`` counts towards the
    horizontal moves of legs ``s ... s + k_j - 1``, so it expires at
    ``s + k_j``.  Returns the state after the legs, shifted to the next leg,
    and the number of legs run; raises past ``limit`` legs.
    """
    climb = run + 1 - filled
    if climb < 0:
        raise InternalInvariantError(
            f"bounce leg after run {run} stops below the {filled} runs already consumed "
            f"on runs {tuple(parts)}"
        )
    ends = dict(expiring)
    for k in parts[filled:run + 1]:
        ends[k] = ends.get(k, 0) + 1
    active += climb
    step = 0
    while gap < 0:
        if step >= limit:
            raise InternalInvariantError(
                f"bounce made no progress within {limit} legs after run {run} on runs {tuple(parts)}"
            )
        active -= ends.pop(step, 0)
        gap += active
        step += 1
    expiring = tuple(sorted([(end - step, c) for end, c in ends.items()]))
    return gap, run + 1, active, expiring, step


def area_bounce_counts(kvec: KVector) -> Dict[Tuple[int, int], int]:
    """The number of paths with each (area, bounce), over merged bounce states.

    Run ``i`` starts at x = K_i - r_i, where K_i = k_1 + ... + k_{i-1}, and
    these starts never decrease.  So once ranks ``r_1 ... r_i`` are chosen,
    the east steps before run ``i`` are known, and the bounce has run every
    leg that stops at one of them.  The legs still to run depend only on the
    merged state ``(r_i, x - known east steps, filled, active, expiring)``,
    with ``expiring`` shifted so that the next leg is leg 0, and not on that
    leg's index ``step``.  So the paths are counted forward, one run at a
    time.  Each layer maps a merged state to ``{(area, potential): count}``,
    where the potential ``bounce + step * (m - filled)`` already charges
    every run not yet consumed for the legs before the next one.  Moving to
    rank ``r_{i+1}`` adds ``r_{i+1}`` to the area and, when it runs ``s``
    legs, ``s * (m - filled)`` to the potential: the legs' own bounce,
    counted from leg 0, is 0 (see :func:`_legs`).  After the last run every
    run is consumed, so the potential is the bounce.  Only two layers are
    alive at a time.
    """
    if not isinstance(kvec, KVector):
        kvec = KVector(kvec)
    parts = kvec.parts
    m = kvec.m
    limit = kvec.n + m + 1
    # (area, potential) is kept as the one int potential * span + area, so a
    # move adds one int to it; the area, a sum of m ranks below n, is < span
    span = kvec.n * m + 1
    # (rank, gap, filled, active, expiring) -> {potential * span + area: count}
    layer: Dict[tuple, Dict[int, int]] = {(0, 0, 0, 0, ()): {0: 1}}
    total: Dict[int, int] = {}
    for run, k in enumerate(parts):
        final = run == m - 1
        following: Dict[tuple, Dict[int, int]] = {}
        for (rank, gap, filled, active, expiring), weights in layer.items():
            top = rank + k
            for nxt in (0,) if final else range(top, -1, -1):
                rest, fl, act, exp, shift = gap - (top - nxt), filled, active, expiring, nxt
                if rest < 0:
                    rest, fl, act, exp, steps = _legs(
                        parts, limit, run, rest, filled, active, expiring
                    )
                    shift += steps * (m - fl) * span
                if final:
                    _check_end(parts, rest, fl)
                    into = total
                else:
                    into = following.setdefault((nxt, rest, fl, act, exp), {})
                for key, c in weights.items():
                    key += shift
                    into[key] = into.get(key, 0) + c
        layer = following
    counts: Dict[Tuple[int, int], int] = {}
    for key, c in total.items():
        bounce, area = divmod(key, span)
        counts[(area, bounce)] = c
    return counts
