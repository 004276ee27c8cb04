"""Seeded inputs for the three workloads, and the benchmark's own oracles.

Nothing here imports ``qtcatalan``: the expected answers that the samples
check against (path counts, lattice indices, region points, coefficient
sums) are computed by this file's own code, so a wrong answer from the code
under test cannot also be the answer it is checked against.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import gcd, prod
from typing import Dict, Iterator, List, Sequence, Tuple

WORKLOADS = ("series", "paths", "cones")

SERIES_FAMILY = "three"
SERIES_BOUND = 12
SERIES_OUTPUT = "formula_match: pass\nseries_match: pass\nsymmetric: pass\n"

# paths: vectors of length 7-10, parts in {1, 2} weighted toward 1, each with
# at most PATHS_MAX_PER_VECTOR paths, drawn until about PATHS_TARGET in total.
PATHS_TARGET = 50_000
PATHS_MAX_PER_VECTOR = 20_000
PATHS_LENGTHS = (7, 8, 9, 10)
PATHS_P_TWO = 0.25

# cones: the catalog checks run on every region point of size <= REGION_BOUND.
# The random half-open cones take one dimension each from CONE_DIMS; every
# third one has one generator fewer than its dimension.  Each has a bounding
# box of candidate points inside the window for its dimension, so the box far
# exceeds the index and every seed asks for a similar amount of enumeration.
FAMILIES = ("three", "k4", "kaaa")
REGION_BOUND = 4
CONE_DIMS = (2, 3, 3, 3, 4, 4, 4, 4)
CONE_BOX_WINDOW = {2: (9, 25), 3: (100, 200), 4: (500, 800)}
CONE_INDEX_RANGE = (2, 30)
CONE_ENTRIES = (-2, -1, 0, 1, 2)
RATIONAL_APEX_ENTRIES = (
    Fraction(0), Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(-2, 3), Fraction(-1),
)


# -- path counts ---------------------------------------------------------------


def path_count(parts: Sequence[int]) -> int:
    """Number of rank sequences r_1 = 0, 0 <= r_{i+1} <= r_i + k_i, r_{m+1} = 0.

    A plain dictionary walk over the reachable ranks; it shares no code with
    the package's own counter.
    """
    ways: Dict[int, int] = {0: 1}
    for k in parts[:-1]:
        nxt: Dict[int, int] = {}
        for r, w in ways.items():
            for r2 in range(r + k + 1):
                nxt[r2] = nxt.get(r2, 0) + w
        ways = nxt
    return sum(ways.values())


def paths_vectors(seed: int) -> List[Tuple[int, ...]]:
    """Vectors whose path counts add up to between PATHS_TARGET - 429 and PATHS_TARGET.

    429 paths is the smallest vector on offer (seven runs of 1), so the loop
    stops once no vector can fit; drawing is bounded so it always ends.
    """
    rng = random.Random(f"paths:{seed}")
    smallest = path_count((1,) * min(PATHS_LENGTHS))
    vectors: List[Tuple[int, ...]] = []
    total = 0
    for _ in range(100_000):
        if PATHS_TARGET - total < smallest:
            break
        length = rng.choice(PATHS_LENGTHS)
        parts = tuple(2 if rng.random() < PATHS_P_TWO else 1 for _ in range(length))
        count = path_count(parts)
        if count <= PATHS_MAX_PER_VECTOR and total + count <= PATHS_TARGET:
            vectors.append(parts)
            total += count
    return vectors


# -- coefficient sums of printed polynomials ----------------------------------


def coefficient_sum(text: str) -> int:
    """Sum of the coefficients of a printed polynomial such as ``2*q^3*t - q``."""
    total = 0
    for token in text.strip().replace(" - ", " + -").split(" + "):
        sign = -1 if token.startswith("-") else 1
        head = token.lstrip("-").split("*", 1)[0]
        total += sign * (int(head) if head.isdigit() else 1)
    return total


# -- half-open cones -------------------------------------------------------------


def det(matrix: Sequence[Sequence[int]]) -> int:
    """Integer determinant by cofactor expansion (matrices here are at most 4x4)."""
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    total = 0
    for j in range(n):
        if matrix[0][j]:
            minor = [row[:j] + row[j + 1:] for row in matrix[1:]]
            total += (-1) ** j * matrix[0][j] * det(minor)
    return total


def cone_index(generators: Sequence[Sequence[int]]) -> int:
    """|det| for a full-dimensional cone, else the gcd of the maximal minors."""
    k, d = len(generators), len(generators[0])
    value = 0
    for rows in itertools.combinations(range(d), k):
        value = gcd(value, abs(det([[g[i] for g in generators] for i in rows])))
    return value


def box_size(apex: Sequence[Fraction], generators: Sequence[Sequence[int]]) -> int:
    """Integer points in the bounding box of the closed parallelepiped."""
    sizes = []
    for i, a in enumerate(apex):
        lo = a + sum(min(0, g[i]) for g in generators)
        hi = a + sum(max(0, g[i]) for g in generators)
        sizes.append(max(0, _floor(hi) - _ceil(lo) + 1))
    return prod(sizes)


def _floor(x: Fraction) -> int:
    return x.numerator // x.denominator


def _ceil(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def random_cones(seed: int) -> List[Dict]:
    """One cone per entry of CONE_DIMS: ``{"text", "index", "dim", "box"}``.

    A cone with fewer generators than its dimension keeps an integer apex,
    because a rational apex can leave its affine span without lattice points,
    and then |Pi| is not the index.
    """
    rng = random.Random(f"cones:{seed}")
    cones = []
    for position, dim in enumerate(CONE_DIMS):
        lo_box, hi_box = CONE_BOX_WINDOW[dim]
        while True:
            k = dim - 1 if dim > 2 and position % 3 == 2 else dim
            generators = [tuple(rng.choice(CONE_ENTRIES) for _ in range(dim)) for _ in range(k)]
            index = cone_index(generators)
            if not CONE_INDEX_RANGE[0] <= index <= CONE_INDEX_RANGE[1]:
                continue
            if k == dim and rng.random() < 0.5:
                apex = [rng.choice(RATIONAL_APEX_ENTRIES) for _ in range(dim)]
            else:
                apex = [Fraction(rng.choice((-1, 0, 0, 1))) for _ in range(dim)]
            box = box_size(apex, generators)
            if lo_box <= box <= hi_box:
                break
        flags = [rng.choice(("open", "closed")) for _ in range(k)]
        lines = [f"dim {dim}", "apex " + " ".join(str(a) for a in apex)]
        lines += [f"gen {flag} " + " ".join(str(x) for x in g) for flag, g in zip(flags, generators)]
        cones.append({"text": "\n".join(lines) + "\n", "index": index, "dim": dim, "box": box})
    return cones


# -- catalog region points ---------------------------------------------------------


def region_points(family: str, bound: int) -> Iterator[Tuple[int, ...]]:
    """Every coordinate point of the family's path region with sizes <= bound."""
    if family == "three":
        for k1, k2, k3 in itertools.product(range(bound + 1), repeat=3):
            for r2 in range(k1 + 1):
                for r3 in range(r2 + k2 + 1):
                    yield (k1, k2, k3, r2, r3)
    elif family == "k4":
        for k in range(bound + 1):
            for a in range(k + 1):
                for b in range(2 * k - a + 1):
                    for c in range(3 * k - a - b + 1):
                        yield (k, a, b, c)
    elif family == "kaaa":
        for k in range(bound + 1):
            for m in range(bound - k + 1):
                for a in range(k + 1):
                    for b in range(2 * k + m - a + 1):
                        for c in range(3 * k + 2 * m - a - b + 1):
                            yield (k, m, a, b, c)
    else:
        raise ValueError(f"unknown family {family!r}")


# -- one sample's inputs -------------------------------------------------------------


def make_inputs(workload: str, seed: int) -> Dict:
    """The JSON-ready inputs of one sample of ``workload``, with expected answers."""
    if workload == "series":
        return {
            "argv": ["verify", "--theorem", SERIES_FAMILY, "--bound", str(SERIES_BOUND)],
            "expected_stdout": SERIES_OUTPUT,
            "sizes": {
                "size_assignments": sum(
                    1 for k in itertools.product(range(1, SERIES_BOUND + 1), repeat=3)
                    if sum(k) <= SERIES_BOUND
                ),
            },
        }
    if workload == "paths":
        vectors = paths_vectors(seed)
        counts = [path_count(v) for v in vectors]
        return {
            "vectors": [list(v) for v in vectors],
            "path_counts": counts,
            "sizes": {"vectors": len(vectors), "paths_scored": sum(counts)},
        }
    if workload == "cones":
        cones = random_cones(seed)
        points = {f: [list(p) for p in region_points(f, REGION_BOUND)] for f in FAMILIES}
        return {
            "families": list(FAMILIES),
            "region_points": points,
            "cones": cones,
            "sizes": {
                "region_points": sum(len(v) for v in points.values()),
                "random_cones": len(cones),
                "random_cone_index_total": sum(c["index"] for c in cones),
                "random_cone_box_total": sum(c["box"] for c in cones),
            },
        }
    raise ValueError(f"unknown workload {workload!r}")
