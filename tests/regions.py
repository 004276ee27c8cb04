"""Coordinate points of each family's path region, shared by the catalog tests."""

import itertools


def region_points(family, bound):
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
    else:
        for k in range(bound + 1):
            for m in range(bound - k + 1):
                for a in range(k + 1):
                    for b in range(2 * k + m - a + 1):
                        for c in range(3 * k + 2 * m - a - b + 1):
                            yield (k, m, a, b, c)
