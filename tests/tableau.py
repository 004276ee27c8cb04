"""The rank-tableau bounce, kept as a test oracle for ``paths.path_stats``.

This is the algorithm ``path_stats`` used before its single linear pass:
it builds the full tableau, scans every east run for each stop height and
recounts the filled columns at every leg.  Only the function and result
names changed; the tests compare its area, bounce and legs with the pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple

from qtcatalan.errors import InternalInvariantError
from qtcatalan.paths import DyckPath


@dataclass(frozen=True)
class BounceTrace:
    """Record of one run of the rank-tableau bounce algorithm."""

    bounce_points: Tuple[Tuple[int, int], ...]
    leg_lengths: Tuple[int, ...]
    horizontal_counts: Tuple[int, ...]
    tableau: Tuple[Tuple[int, ...], ...]

    @property
    def bounce(self) -> int:
        return sum(i * v for i, v in enumerate(self.leg_lengths))

    def first_row_sum(self) -> int:
        return sum(column[0] for column in self.tableau)


class TableauStats(NamedTuple):
    area: int
    bounce: int
    trace: BounceTrace


def tableau_stats(path: DyckPath) -> TableauStats:
    """Area plus the bounce statistic computed by the rank-tableau algorithm.

    The bounce path starts at the origin and alternates between vertical legs
    (stopping at the start of an east step of the path) and horizontal moves
    whose length is read off the tableau.  Each vertical leg consumes whole
    north runs; run ``j`` fills a tableau column with ``k_j + 1`` consecutive
    values starting at the leg index.
    """
    kvec, ranks = path.kvec, path.ranks
    parts = kvec.parts
    n, m = kvec.n, kvec.m

    # run j spans heights [heights[j], heights[j+1]]
    heights = [0]
    for k in parts:
        heights.append(heights[-1] + k)
    run_of_height = {h: j for j, h in enumerate(heights)}

    # east run j starts at x = east_x[j] at height heights[j+1]
    east = path.east_runs
    east_x = []
    x = 0
    for a in east:
        east_x.append(x)
        x += a

    def stop_height(px: int, py: int) -> Optional[int]:
        best = None
        for j in range(m):
            if east[j] and east_x[j] <= px < east_x[j] + east[j]:
                h = heights[j + 1]
                if h >= py and (best is None or h < best):
                    best = h
        return best

    columns: List[List[int]] = [[] for _ in range(m)]
    filled = 0
    points = [(0, 0)]
    legs: List[int] = []
    horiz: List[int] = []
    px, py = 0, 0
    for step in range(2 * (n + m) + 4):
        if (px, py) == (n, n):
            break
        qy = stop_height(px, py)
        if qy is None:
            raise InternalInvariantError(
                f"bounce leg from ({px},{py}) found no east step on path {ranks} of {parts}"
            )
        v = run_of_height[qy] - run_of_height[py]
        for _ in range(v):
            columns[filled] = list(range(step, step + parts[filled] + 1))
            filled += 1
        h = sum(column.count(step + 1) for column in columns[:filled])
        legs.append(v)
        horiz.append(h)
        px, py = px + h, qy
        points.append((px, py))
    else:
        raise InternalInvariantError(
            f"bounce algorithm did not reach ({n},{n}) on path {ranks} of {parts}"
        )

    trace = BounceTrace(
        bounce_points=tuple(points),
        leg_lengths=tuple(legs),
        horizontal_counts=tuple(horiz),
        tableau=tuple(tuple(col) for col in columns),
    )
    if sum(legs) != m:
        raise InternalInvariantError(f"bounce legs consumed {sum(legs)} of {m} runs")
    bounce = sum(i * v for i, v in enumerate(legs))
    if bounce != trace.first_row_sum():
        raise InternalInvariantError("bounce disagrees with tableau first row")
    return TableauStats(area=sum(ranks), bounce=bounce, trace=trace)

