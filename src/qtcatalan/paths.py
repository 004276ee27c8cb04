"""Lattice paths with prescribed north-run lengths and their statistics.

A path is encoded by its run-length vector ``(k_1, ..., k_m)`` together with
the rank sequence ``(r_1, ..., r_m)``, where ``r_i`` is ``y - x`` at the start
of the i-th north run.  The rank sequence determines the path: after run ``i``
the path takes ``r_i + k_i - r_{i+1}`` unit east steps (with ``r_{m+1} = 0``).

The statistics come from the bounce pass, which knows no shape family: the
closed forms of the supported families, the independent route to the same
numbers, live in :mod:`.families`.  The pass runs its legs one north run at
a time, by :func:`_legs`.  :func:`path_stats` runs it over one path's ranks,
in time linear in the path's size.  :func:`area_bounce_counts` runs it over merged
bounce states: after each run, paths whose remaining bounce behaves the same
share one state, and a potential ``bounce + step * (m - filled)`` stands in
for the bounce so far, so the legs' absolute index is not part of the state.
Both look each leg up in a :class:`LegTable` before running it: the legs
depend only on the runs they climb past and the state they start from, so
the vectors of one command share one table, which drops a segment's legs
after the last vector that holds it.  The table keeps the states after a
prefix of runs in the same way, for the vectors of the same length that
share it; the last run moves no weight, so it only checks each state's end.
Each kept leg or layer is a function of its key alone: a leg that would
never stop raises when it runs, so nothing is checked again on reuse.
The test suite checks the routes against each other exhaustively on small
inputs.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .errors import DomainError, Frozen, InternalInvariantError, _integers


class KVector(Frozen):
    """An ordered tuple of positive run lengths."""

    __slots__ = _fields = ("parts",)
    parts: Tuple[int, ...]

    def __init__(self, parts: Sequence[int]):
        parts = _integers(parts, "run lengths")
        if not parts:
            raise DomainError("run-length vector must be nonempty")
        if any(p < 1 for p in parts):
            raise DomainError(f"run lengths must be positive, got {parts}")
        self._set(parts)

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


class DyckPath(Frozen):
    """A path above the diagonal, stored as its rank sequence."""

    __slots__ = _fields = ("kvec", "ranks")
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
        self._set(kvec, ranks)

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


# Between runs the bounce state is (gap, filled, active, expiring): the next
# leg's x minus the number of known east steps, the runs consumed, the runs
# counted on the next horizontal move, and the sorted (leg offset, count) of
# the consumed runs that stop counting at each later leg.  Offsets count from
# the next leg, which is leg 0.
_Expiring = Tuple[Tuple[int, int], ...]
# (gap, active, expiring, steps): the state after the legs, shifted to the
# next leg, and how many legs ran; the legs consume through the run they follow
_Leg = Tuple[int, int, _Expiring, int]


def _legs(
    parts: Sequence[int], run: int, gap: int, filled: int, active: int, expiring: _Expiring
) -> _Leg:
    """Run the bounce legs that stop at the east steps after run ``run``.

    ``gap`` is the next leg's x minus the number of known east steps, and is
    negative here: the leg stops at an east step after run ``run`` and climbs
    to ``run + 1`` runs.  Run ``j`` consumed at leg ``s`` counts towards the
    horizontal moves of legs ``s ... s + k_j - 1``, so it expires at
    ``s + k_j``.  Leg 0 consumes every run it climbs past and the later legs
    consume none, so the legs add no bounce counted from leg 0.  Returns the
    state after the legs, shifted to the next leg, and the number of legs run.

    A leg at which no run counts raises: expiries only lower ``active``, so
    from there ``gap`` would never reach 0.  While some run counts, each leg
    raises ``gap`` by at least 1, so from ``-n <= gap < 0`` the legs end
    within ``n`` steps.  The check reads only the legs' own state.
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
        active -= ends.pop(step, 0)
        if active <= 0:
            raise InternalInvariantError(
                f"bounce made no progress at leg {step} after run {run} on runs {tuple(parts)}: "
                f"no run counts"
            )
        gap += active
        step += 1
    expiring = tuple(sorted([(end - step, c) for end, c in ends.items()]))
    return gap, active, expiring, step


def _check_end(parts: Sequence[int], gap: int, filled: int) -> None:
    """Check that the bounce consumed every run and stopped at x = n."""
    if filled != len(parts) or gap != 0:
        raise InternalInvariantError(
            f"bounce ended at x=n{gap:+d} after {filled} of {len(parts)} runs "
            f"on runs {tuple(parts)}"
        )


# (rank, gap, filled, active, expiring) -> {potential * span + area: count}
_Layer = Dict[tuple, Dict[int, int]]


class LegTable:
    """The bounce legs and layers of one command's vectors, each distinct one run once.

    The legs that :func:`_legs` runs after run ``run`` depend only on the
    segment ``parts[filled:run + 1]`` they climb past and on ``(gap, active,
    expiring)``: ``run + 1`` is where the segment ends.  So the table maps
    ``(segment, gap, active, expiring)`` to a :data:`_Leg`, for every vector
    and run that meets the same key.  A caller fetches a leg through
    :func:`_fetch_leg` from the dict that :meth:`known` returns, which runs
    the leg only when it is not there.

    Only a nonempty segment is kept, so a key's climb is its segment's
    length, and legs that climb no run, or would stop below the runs already
    consumed, always reach :func:`_legs` and its checks.  Legs that raise
    are not kept, so they raise again when fetched again.

    The layer of :func:`area_bounce_counts` after runs ``parts[:j]`` depends
    only on that prefix, on ``m``, which the potential charges, and on the
    span of its weights, the table's ``span`` (its vectors' largest).  So it
    is kept under ``(m, span, prefix)``.  A kept leg or layer is a function
    of its key, so a later vector reuses it as it is, and it is never
    changed.

    A command makes one table for the vectors it will count and passes it to
    every count.  :meth:`release` marks one vector done, and a segment's legs
    and a prefix's layer are dropped once no vector still to count holds
    them, so vectors that share nothing keep about one vector's legs at a
    time.  Releasing a vector the table was not made for, or one released
    more often than it was given, lowers no use of the table's own vectors:
    it only drops what none of them holds.  A table lives only as long as
    the command that made it.
    """

    def __init__(self, vectors: Iterable[Sequence[int]] = ()):
        vectors = [tuple(parts) for parts in vectors]
        self.span = max((sum(parts) * len(parts) + 1 for parts in vectors), default=0)
        # segment -> {(active, expiring): {gap: leg}}
        self._legs: Dict[Tuple[int, ...], Dict[Tuple[int, _Expiring], Dict[int, _Leg]]] = {}
        # (m, span, prefix) -> the layer after it
        self._layers: Dict[tuple, _Layer] = {}
        # segment or layer key -> its uses by the vectors not yet released
        self._uses: Dict[tuple, int] = {}
        # vector -> its counts not yet released
        self._pending: Dict[Tuple[int, ...], int] = {}
        for parts in vectors:
            self._pending[parts] = self._pending.get(parts, 0) + 1
            for key in self._keys(parts):
                self._uses[key] = self._uses.get(key, 0) + 1

    def _keys(self, parts: Tuple[int, ...]) -> Iterator[tuple]:
        """Each nonempty segment ``parts[filled:run + 1]``, then each prefix's layer key."""
        for run in range(len(parts)):
            for filled in range(run + 1):
                yield parts[filled:run + 1]
        for filled in range(1, len(parts)):
            yield len(parts), self.span, parts[:filled]

    def release(self, parts: Sequence[int]) -> None:
        """Mark one count of ``parts`` done; drop what no vector left can meet."""
        parts = tuple(parts)
        pending = self._pending.pop(parts, 0)
        if pending > 1:
            self._pending[parts] = pending - 1
        for key in self._keys(parts):
            uses = self._uses.pop(key, 0) - (pending > 0)
            if uses > 0:
                self._uses[key] = uses
            else:
                self._legs.pop(key, None)
                self._layers.pop(key, None)

    def layer(self, parts: Tuple[int, ...], span: int) -> Tuple[_Layer, int]:
        """The deepest kept layer after a prefix of ``parts`` and the prefix's
        length; without one, the layer before run 0."""
        for filled in range(len(parts) - 1, 0, -1):
            layer = self._layers.get((len(parts), span, parts[:filled]))
            if layer is not None:
                return layer, filled
        return {(0, 0, 0, 0, ()): {0: 1}}, 0

    def keep(self, parts: Tuple[int, ...], span: int, layer: _Layer, filled: int) -> None:
        """Keep the layer after ``parts[:filled]`` if a vector besides this one holds it."""
        key = (len(parts), span, parts[:filled])
        if self._uses.get(key, 0) > 1:
            self._layers[key] = layer

    def known(
        self, parts: Tuple[int, ...], run: int, filled: int, active: int, expiring: _Expiring
    ) -> Dict[int, _Leg]:
        """The kept legs after run ``run`` from this state, by gap.

        Legs that climb no run are never kept: they get a new, empty dict.
        """
        if filled > run:
            return {}
        states = self._legs.setdefault(parts[filled:run + 1], {})
        known = states.get((active, expiring))
        if known is None:
            known = states[active, expiring] = {}
        return known


def _fetch_leg(
    known: Dict[int, _Leg],
    parts: Tuple[int, ...],
    run: int,
    gap: int,
    filled: int,
    active: int,
    expiring: _Expiring,
) -> _Leg:
    """The legs from ``gap`` after run ``run``: kept in ``known``, or run by
    :func:`_legs` and kept there."""
    leg = known.get(gap)
    if leg is None:
        leg = known[gap] = _legs(parts, run, gap, filled, active, expiring)
    return leg


def path_stats(path: DyckPath, legs: Optional[LegTable] = None) -> PathStats:
    """Area plus the bounce statistic, in one pass over the legs.

    The bounce path starts at the origin and alternates vertical legs and
    horizontal moves.  Leg ``s`` climbs to the height of the path's east step
    at the current x, consuming whole north runs; run ``j`` consumed at leg
    ``s_j`` then counts towards the horizontal moves of legs
    ``s_j ... s_j + k_j - 1``.  The bounce is ``sum(s * runs consumed at s)``.
    The legs are run one north run at a time, as :func:`area_bounce_counts`
    runs them, and looked up first in ``legs``, a table that the paths of one
    command share; a call without one keeps no legs.
    """
    parts = path.kvec.parts
    gap = filled = active = 0
    expiring: _Expiring = ()
    consumed: List[int] = []
    for run, east in enumerate(path.east_runs):
        gap -= east
        if gap < 0:
            known = {} if legs is None else legs.known(parts, run, filled, active, expiring)
            gap, active, expiring, steps = _fetch_leg(known, parts, run, gap, filled, active, expiring)
            consumed += [run + 1 - filled] + [0] * (steps - 1)
            filled = run + 1
    _check_end(parts, gap, filled)
    bounce = sum(s * v for s, v in enumerate(consumed))
    return PathStats(area=sum(path.ranks), bounce=bounce, legs=tuple(consumed))


def area_bounce_counts(kvec: KVector, legs: Optional[LegTable] = None) -> Dict[Tuple[int, int], int]:
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
    run is consumed, so the potential is the bounce.

    The last run moves no weight: its move goes to rank 0, which adds no
    area, and its legs charge the ``m - m = 0`` runs left.  So the last run
    length cannot move the counts (as Xin and Zhang's lemma says), only the
    check that the bounce ends at x = n.  The run before it adds every move
    into one total, which all the last states share, and the last run only
    checks each state's end.

    The legs, and the layers after prefixes of ``kvec`` that later vectors
    hold, come from ``legs``, a :class:`LegTable` shared by the vectors of
    one command, which this count then releases; without one, the count
    makes its own.  Past the kept layer, two layers are alive at a time.
    """
    if not isinstance(kvec, KVector):
        kvec = KVector(kvec)
    if legs is None:
        legs = LegTable()
    parts = kvec.parts
    m = kvec.m
    # (area, potential) is kept as the one int potential * span + area, so a
    # move adds one int to it; the area, a sum of m ranks below n, is < span
    span = max(kvec.n * m + 1, legs.span)
    layer, depth = legs.layer(parts, span)
    for run in range(depth, m - 1):
        k = parts[run]
        # legs after this run consume through it, and charge each run left
        after = run + 1
        charge = (m - after) * span
        # the last run charges nothing, so before it every move adds into one total
        total = {} if after == m - 1 else None
        following: _Layer = {}
        for (rank, gap, filled, active, expiring), weights in layer.items():
            top = rank + k
            known = legs.known(parts, run, filled, active, expiring)
            for nxt in range(top, -1, -1):
                rest, fl, act, exp, shift = gap - (top - nxt), filled, active, expiring, nxt
                if rest < 0:
                    rest, act, exp, steps = _fetch_leg(known, parts, run, rest, filled, active, expiring)
                    fl = after
                    shift += steps * charge
                into = following.setdefault((nxt, rest, fl, act, exp), {} if total is None else total)
                for key, c in weights.items():
                    key += shift
                    into[key] = into.get(key, 0) + c
        layer = following
        legs.keep(parts, span, layer, after)
    # every last state holds the one total; the last run only checks each state's end
    run = m - 1
    for rank, gap, filled, active, expiring in layer:
        rest = gap - rank - parts[run]
        if rest < 0:
            known = legs.known(parts, run, filled, active, expiring)
            rest = _fetch_leg(known, parts, run, rest, filled, active, expiring)[0]
            filled = m
        _check_end(parts, rest, filled)
    legs.release(parts)
    counts: Dict[Tuple[int, int], int] = {}
    for key, c in next(iter(layer.values())).items():
        bounce, area = divmod(key, span)
        counts[(area, bounce)] = c
    return counts
