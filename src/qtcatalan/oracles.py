"""The path route's oracles: polynomials, scans and checks built from paths alone.

Every polynomial here comes from the (area, bounce) counts over merged
bounce states (:func:`~qtcatalan.paths.area_bounce_counts`), and the path
work limits refuse, before any path is listed, the vectors and series
bounds whose paths are too many.  This module imports nothing from the cone
route, so it can arbitrate the assembled series; :mod:`.verify` joins the two.
"""

from __future__ import annotations

import itertools
from math import prod
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, Tuple

from .errors import DomainError, UsageError, _integer, _integers
from .families import family
from .paths import KVector, LegTable, area_bounce_counts, count_paths
from .polynomial import QT_CONTEXT, LaurentPoly, add_terms, qt_swap

# Largest path work, the number of paths times the total run length n summed
# over the vectors, that a call on run-length vectors lists paths for.
MAX_PATH_WORK = 10_000_000

# Largest path work of the members that `verify_theorem` compares with the
# series: it admits kaaa at bound 16 (18.8 million) and k4 at bound 24
# (21.1 million), and refuses kaaa at 17 and k4 at 25.
MAX_VERIFY_WORK = 25_000_000


def check_path_work(vectors: Iterable[Sequence[int]], limit: int = MAX_PATH_WORK) -> None:
    """Refuse, before any path is listed, vectors whose path work exceeds the limit."""
    work = 0
    for parts in vectors:
        kvec = KVector(parts)
        # every rank has at least k + 1 successors, so n * prod(k + 1) over all
        # runs but the last is a lower bound that keeps count_paths off huge vectors
        low = kvec.n
        for k in kvec.parts[:-1]:
            if work + low > limit:
                break
            low *= k + 1
        work += low if work + low > limit else count_paths(kvec) * kvec.n
        if work > limit:
            label = kvec if kvec.m <= 20 else f"({kvec.m} runs, n = {kvec.n})"
            raise UsageError(
                f"run lengths {label} exceed the path work limit {limit} (paths times n)"
            )


def check_verify_work(name: str, bound: int) -> None:
    """Refuse, before any work, a bound whose members exceed the verify work limit.

    The sizes are counted by formula first: a bound such as 100000 has too
    many to list.  Each size is at most the bound and run lengths grow with
    the sizes, so every member's runs are at most those of ``top``, the
    member with every size at the bound.  A vector's path work is at most n
    times the product of ``k_1 + ... + k_i + 1`` over all runs but the last,
    since each rank is at most the runs before it; only when the count times
    that bound for ``top`` passes the limit are the paths counted exactly.
    A bound below 1, which has no members to compare, or one that is not an
    integer is a DomainError.
    """
    bound = _integer(bound, "series bound")
    fam = family(name)
    if bound < 1:
        raise DomainError(f"series bound must be at least 1, got {bound}")
    count = fam.size_count(bound)
    if count > MAX_VERIFY_WORK:
        raise UsageError(
            f"bound {bound} gives {count} sizes, beyond the path work limit {MAX_VERIFY_WORK}"
        )
    top = fam.kvector((bound,) * len(fam.size_names))
    high = sum(top) * prod(prefix + 1 for prefix in itertools.accumulate(top[:-1]))
    if count * high > MAX_VERIFY_WORK:
        vectors = (fam.kvector(sizes) for sizes in fam.sizes(bound))
        check_path_work(vectors, MAX_VERIFY_WORK)


def refined_catalan(parts: Sequence[int], legs: Optional[LegTable] = None) -> LaurentPoly:
    """Sum of q^area t^bounce over all paths with the given run lengths.

    The counts come from a forward pass over merged bounce states, one run at
    a time: paths whose remaining bounce behaves the same share one state,
    whose ``{(area, potential): count}`` stands in for all of them, and no
    path is built.  A command that counts several vectors passes one
    :class:`~qtcatalan.paths.LegTable`, made for all of them, to each call,
    so that a bounce leg that two states, runs or vectors share is run once;
    without one, the call makes its own.
    """
    return LaurentPoly._trusted(QT_CONTEXT, area_bounce_counts(KVector(parts), legs))


def rearrangements(parts: Sequence[int]) -> Iterator[Tuple[int, ...]]:
    """The distinct orderings of ``parts``, in ascending lexicographic order.

    Each ordering is made from the previous one in linear time, so repeated
    parts cost nothing: ``(1,) * 12`` yields one tuple, not 12! of them.
    """
    current = sorted(parts)
    while True:
        yield tuple(current)
        # the longest non-increasing suffix starts right after the pivot
        pivot = len(current) - 2
        while pivot >= 0 and current[pivot] >= current[pivot + 1]:
            pivot -= 1
        if pivot < 0:
            return
        swap = len(current) - 1
        while current[swap] <= current[pivot]:
            swap -= 1
        current[pivot], current[swap] = current[swap], current[pivot]
        current[pivot + 1:] = reversed(current[pivot + 1:])


def lambda_catalan(partition: Sequence[int]) -> LaurentPoly:
    """Sum of :func:`refined_catalan` over all distinct rearrangements."""
    partition = KVector(partition).parts
    if list(partition) != sorted(partition, reverse=True):
        raise DomainError(f"{partition} is not a partition (weakly decreasing, positive)")
    check_path_work(rearrangements(partition))
    legs = LegTable(rearrangements(partition))
    counts = (area_bounce_counts(KVector(a), legs).items() for a in rearrangements(partition))
    return LaurentPoly(QT_CONTEXT, add_terms({}, itertools.chain.from_iterable(counts)))


class SymmetryReport(NamedTuple):
    subject: Tuple[int, ...]
    symmetric: bool
    # ((i, j), coefficient of q^i t^j, coefficient of q^j t^i) for the
    # lexicographically smallest witness with i < j, when asymmetric
    witness: Optional[Tuple[Tuple[int, int], int, int]]

    def witness_line(self) -> str:
        if self.witness is None:
            return "symmetric"
        (i, j), cij, cji = self.witness
        return f"q^{j}*t^{i}={cji} vs q^{i}*t^{j}={cij}"


def _symmetry_witness(poly: LaurentPoly) -> Optional[Tuple[Tuple[int, int], int, int]]:
    """The smallest (i, j), i < j, where a ``QT_CONTEXT`` polynomial differs from its swap."""
    asymmetric = [(i, j) for i, j in (poly - qt_swap(poly)).terms if i < j]
    if not asymmetric:
        return None
    i, j = min(asymmetric)
    return ((i, j), poly.terms.get((i, j), 0), poly.terms.get((j, i), 0))


def symmetry_report(parts: Sequence[int], legs: Optional[LegTable] = None) -> SymmetryReport:
    """Whether ``refined_catalan(parts, legs)`` is q,t-symmetric, with its smallest witness if not."""
    witness = _symmetry_witness(refined_catalan(parts, legs))
    return SymmetryReport(subject=tuple(parts), symmetric=witness is None, witness=witness)


def _scan(max_part: int, counts: Iterable[Tuple[int, int]], vectors: Callable) -> Iterator:
    """``vectors()``, once the ``max_part^power`` vectors of each ``(length, power)`` pair,
    then the vectors made, are within the path work limit.  A vector of m runs has n >= m and
    at least 2^(m - 1) paths; exponents cut at 64 keep the bound below the work, yet past the limit.
    """
    for length, power in counts:
        if max_part > 0 and max_part ** min(power, 64) * length * 2 ** min(length - 1, 64) > MAX_PATH_WORK:
            raise UsageError(
                f"the {max_part}^{power} vectors of {length} runs exceed the path work limit "
                f"{MAX_PATH_WORK} (paths times n)"
            )
    check_path_work(vectors())
    return vectors()


def kvectors_of_length(length: int, max_part: int) -> Iterator[Tuple[int, ...]]:
    """Every vector of ``length`` parts in [1, max_part], lazily, in lexicographic order."""
    length, max_part = _integers((length, max_part), "scan arguments")
    if length < 0:
        raise UsageError(f"a vector needs length >= 0, got {length}")
    vectors = lambda: itertools.product(range(1, max_part + 1), repeat=length)
    return _scan(max_part, [(length, length)], vectors) if length else vectors()


def repeated_tail_vectors(max_value: int, lengths: Sequence[int]) -> Iterator[Tuple[int, ...]]:
    """Vectors (k, a, a, ..., a) for 1 <= k, a <= max_value, lazily."""
    max_value, *lengths = _integers((max_value, *lengths), "scan arguments")
    if any(length < 2 for length in lengths):
        raise UsageError("repeated-tail vectors need length >= 2")
    values = range(1, max_value + 1)
    vectors = lambda: ((k,) + (a,) * (length - 1) for length in lengths for k in values for a in values)
    return _scan(max_value, [(length, 2) for length in lengths], vectors)


def check_last_param(prefix: Sequence[int], m: int, l: int) -> bool:
    """Whether replacing the last run length m by l leaves the polynomial fixed."""
    vectors = [tuple(prefix) + (m,), tuple(prefix) + (l,)]
    check_path_work(vectors)
    legs = LegTable(vectors)
    return refined_catalan(vectors[0], legs) == refined_catalan(vectors[1], legs)
