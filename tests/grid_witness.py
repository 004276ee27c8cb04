"""The coefficient-grid symmetry scan, kept as a test oracle for ``verify``.

This is the witness search ``verify.symmetry_report`` used before it read
the witness off the terms of ``poly - qt_swap(poly)``: it lays the
polynomial out as a dense grid of q,t-coefficients and scans the cells
above the diagonal in lexicographic order.  The code is unchanged; the
tests compare its witness with the package's on the same polynomials.
"""

from __future__ import annotations

from typing import Optional, Tuple

from qtcatalan.polynomial import LaurentPoly, coefficient_grid


def _symmetry_witness(poly: LaurentPoly) -> Optional[Tuple[Tuple[int, int], int, int]]:
    grid = coefficient_grid(poly)
    size = max(len(grid), len(grid[0]))

    def cell(i: int, j: int) -> int:
        if i < len(grid) and j < len(grid[0]):
            return grid[i][j]
        return 0

    for i in range(size):
        for j in range(i + 1, size):
            cij, cji = cell(i, j), cell(j, i)
            if cij != cji:
                return ((i, j), cij, cji)
    return None
