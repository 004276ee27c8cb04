"""Symmetry phenomenology for four-run vectors.

Individual run orderings can break q,t-symmetry even when their sum over all
rearrangements keeps it; this script prints the contrasting cases and the
coefficient grids where the asymmetry lives.
"""

from qtcatalan import (
    coefficient_grid,
    lambda_catalan,
    qt_swap,
    refined_catalan,
    symmetry_report,
)


def show_grid(parts):
    grid = coefficient_grid(refined_catalan(parts))
    print(f"coefficients of runs {parts} (rows: q exponent up, cols: t exponent right):")
    for row in reversed(grid):
        print("   " + " ".join(f"{c:2d}" for c in row))


for parts in [(1, 1, 1, 3), (1, 1, 3, 1), (1, 3, 1, 1), (3, 1, 1, 1)]:
    report = symmetry_report(parts)
    status = "symmetric" if report.symmetric else f"NOT symmetric ({report.witness_line()})"
    print(f"runs {parts}: {status}")

print()
show_grid((1, 1, 3, 1))

print()
for partition in [(2, 1, 1, 1), (3, 1, 1, 1)]:
    total = lambda_catalan(partition)
    print(
        f"summed over rearrangements of {partition}: "
        f"{'symmetric' if total == qt_swap(total) else 'NOT symmetric'}"
    )

print()
print("Replacing the final run length never changes the polynomial:")
for last in (1, 2, 3, 4):
    print(f"  runs (1,2,{last}): {refined_catalan((1, 2, last))}")
