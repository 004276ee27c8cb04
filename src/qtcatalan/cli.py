"""Command-line interface.

Exit codes: 0 success / property holds, 1 property fails, 2 usage error,
3 internal invariant violation.  All output is deterministic for fixed input.

Only ``cone`` and ``verify`` load the cone route: ``_cmd_cone`` imports
``cones`` when it runs, and ``verify`` imports it inside its functions.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from .errors import DomainError, UsageError
from .families import FAMILIES, REPEATED_TAIL
from .oracles import (
    check_last_param,
    check_path_work,
    kvectors_of_length,
    lambda_catalan,
    refined_catalan,
    repeated_tail_vectors,
    symmetry_report,
)
from .paths import KVector, LegTable, enumerate_paths, path_stats
from .polynomial import (
    LaurentPoly,
    VariableContext,
    coefficient_grid,
)
from .verify import verify_theorem

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

# Largest lattice index whose parallelepiped `cone --pi/--transform` enumerates;
# the enumeration makes one point per unit of index.
MAX_ENUMERATED_INDEX = 100_000


def _parse_parts(text: str) -> Tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise UsageError(f"expected a comma-separated integer list, got {text!r}") from None


def _vector(text: str) -> Tuple[int, ...]:
    """A run-length vector whose paths are within the work limit."""
    parts = _parse_parts(text)
    check_path_work([parts])
    return parts


def _positive(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _cmd_paths(args: argparse.Namespace) -> int:
    legs = LegTable()
    for path in enumerate_paths(KVector(_vector(args.k))):
        stats = path_stats(path, legs)
        ranks = ",".join(str(r) for r in path.ranks)
        east = ",".join(str(a) for a in path.east_runs)
        print(f"ranks={ranks} east={east} area={stats.area} bounce={stats.bounce}")
    return EXIT_OK


def _cmd_catalan(args: argparse.Namespace) -> int:
    if args.k is not None:
        poly = refined_catalan(_vector(args.k))
    else:
        poly = lambda_catalan(_parse_parts(args.lam))
    print(poly)
    return EXIT_OK


def _cmd_symmetric(args: argparse.Namespace) -> int:
    report = symmetry_report(_vector(args.k))
    print(report.witness_line())
    return EXIT_OK if report.symmetric else EXIT_FAIL


def grid_to_tsv(grid: Sequence[Sequence[int]]) -> str:
    """Header row of q-exponents, then one row per t-exponent, ascending."""
    max_q = len(grid) - 1
    max_t = len(grid[0]) - 1
    lines = ["\t".join(str(i) for i in range(max_q + 1))]
    for j in range(max_t + 1):
        lines.append("\t".join(str(grid[i][j]) for i in range(max_q + 1)))
    return "\n".join(lines)


def _cmd_grid(args: argparse.Namespace) -> int:
    grid = coefficient_grid(refined_catalan(_vector(args.k)))
    if args.format == "tsv":
        print(grid_to_tsv(grid))
        return EXIT_OK
    max_q = len(grid) - 1
    max_t = len(grid[0]) - 1
    width = max(
        2,
        max(len(str(grid[i][j])) for i in range(max_q + 1) for j in range(max_t + 1)),
        len(str(max_q)),
    )
    print("t\\q " + " ".join(f"{i:>{width}}" for i in range(max_q + 1)))
    for j in range(max_t, -1, -1):
        row = " ".join(f"{grid[i][j]:>{width}}" for i in range(max_q + 1))
        print(f"{j:>3} {row}")
    return EXIT_OK


def _cmd_cone(args: argparse.Namespace) -> int:
    from .cones import integer_point_transform, lattice_index, parallelepiped_points, parse_cone

    try:
        text = Path(args.file).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {args.file}: {exc}") from None
    cone = parse_cone(text)
    ctx = VariableContext(tuple(f"z{i + 1}" for i in range(cone.dim)))
    index = lattice_index(cone)
    if args.index:
        print(f"index={index} unimodular={'yes' if index == 1 else 'no'}")
    elif index > MAX_ENUMERATED_INDEX:
        raise UsageError(
            f"lattice index {index} exceeds the enumeration limit {MAX_ENUMERATED_INDEX}"
        )
    elif args.pi:
        for point in parallelepiped_points(cone):
            print(" ".join(str(x) for x in point))
    else:
        gf = integer_point_transform(cone, ctx)
        denominator = "".join(f"(1 - {LaurentPoly.monomial(ctx, m)})" for m in gf.denominator)
        print(f"({gf.numerator}) / {denominator}")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    report = verify_theorem(args.theorem, args.bound)
    for label, flag in (
        ("formula_match", report.formula_match),
        ("series_match", report.series_match),
        ("symmetric", report.symmetric),
    ):
        print(f"{label}: {'pass' if flag else 'FAIL'}")
    return EXIT_OK if report.all_ok else EXIT_FAIL


def _cmd_scan(args: argparse.Namespace) -> int:
    if args.family is not None:
        vectors = list(repeated_tail_vectors(args.max, _parse_parts(args.lengths)))
    else:
        vectors = list(kvectors_of_length(args.all_length, args.max))
    # one leg table over the scan; each count releases its vector
    legs = LegTable(vectors)
    all_symmetric = True
    for parts in vectors:
        report = symmetry_report(parts, legs)
        label = "(" + ",".join(str(p) for p in parts) + ")"
        if report.symmetric:
            print(f"{label} symmetric")
        else:
            all_symmetric = False
            print(f"{label} asymmetric {report.witness_line()}")
    return EXIT_OK if all_symmetric else EXIT_FAIL


def _cmd_lastparam(args: argparse.Namespace) -> int:
    if check_last_param(_parse_parts(args.prefix), args.m, args.l):
        print("equal")
        return EXIT_OK
    print("different")
    return EXIT_FAIL


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="qtcatalan",
        description="Exact path statistics, cone transforms, and series checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("paths", help="list every path with its statistics")
    p.add_argument("--k", required=True, help="comma-separated run lengths")
    p.set_defaults(handler=_cmd_paths)

    p = sub.add_parser("catalan", help="print the refined polynomial")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--k", help="comma-separated run lengths")
    group.add_argument("--lambda", dest="lam", help="partition (summed over rearrangements)")
    p.set_defaults(handler=_cmd_catalan)

    p = sub.add_parser("symmetric", help="check q,t-symmetry (exit 1 with witness if not)")
    p.add_argument("--k", required=True)
    p.set_defaults(handler=_cmd_symmetric)

    p = sub.add_parser("grid", help="coefficient grid of the refined polynomial")
    p.add_argument("--k", required=True)
    p.add_argument("--format", choices=("pretty", "tsv"), default="pretty")
    p.set_defaults(handler=_cmd_grid)

    p = sub.add_parser("cone", help="inspect a cone description file")
    p.add_argument("file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--transform", action="store_true", help="integer-point transform")
    group.add_argument("--pi", action="store_true", help="fundamental parallelepiped points")
    group.add_argument("--index", action="store_true", help="lattice index")
    p.set_defaults(handler=_cmd_cone)

    p = sub.add_parser("verify", help="check one series family against its product formula")
    p.add_argument("--theorem", required=True, choices=tuple(FAMILIES))
    p.add_argument("--bound", type=_positive, default=5)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("scan", help="symmetry scan over a family of run-length vectors")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--family", choices=(REPEATED_TAIL,))
    group.add_argument("--all-length", dest="all_length", type=_positive)
    p.add_argument("--max", type=_positive, required=True)
    p.add_argument("--lengths", default="2,3,4,5", help="lengths for --family scans (default 2,3,4,5)")
    p.set_defaults(handler=_cmd_scan)

    p = sub.add_parser("lastparam", help="compare two choices of the final run length")
    p.add_argument("--prefix", required=True)
    p.add_argument("--m", type=_positive, required=True)
    p.add_argument("--l", type=_positive, required=True)
    p.set_defaults(handler=_cmd_lastparam)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.handler(args)
    except (UsageError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # an InternalInvariantError or any other escape is a bug
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
