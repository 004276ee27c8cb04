"""The forward transfer without a leg table, kept as a test oracle for ``paths.area_bounce_counts``.

This is how ``area_bounce_counts`` counted before its legs were shared: the
same forward pass over merged bounce states, which runs every leg through
``_legs`` afresh, even one that another state, run or vector has run with
the same inputs.  The code is unchanged; the tests compare its counts with
the counts through a shared ``LegTable``.
"""

from __future__ import annotations

from typing import Dict, Tuple

from qtcatalan.paths import KVector, _check_end, _legs


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
