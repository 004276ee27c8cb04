"""Half-open simplicial cones and their rational generating functions.

A cone is given by a rational apex, linearly independent integer generators,
and one openness flag per generator (an open flag removes the facet opposite
that generator, i.e. the generator's coefficient ranges over (0, 1] instead
of [0, 1) inside the fundamental parallelepiped).

The generating function of the cone's integer points is the sum of monomials
over the fundamental-parallelepiped points divided by one factor
``(1 - z^v)`` per generator ``v``.  :class:`RationalGF` keeps exactly that
shape: an explicit numerator over a multiset of denominator monomials, with
equality decided by cross-multiplication and never by cancellation.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from fractions import Fraction
from itertools import repeat
from operator import add, mul
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .errors import DegenerateSubstitutionError, DomainError, Frozen, NonExpandableError, UsageError
from .errors import _integer, _integers
from .lattice import diagonal_form
from .polynomial import Exponents, LaurentPoly, VariableContext, add_terms, monomial_image


class HalfOpenCone(Frozen):
    __slots__ = _fields = ("dim", "apex", "generators", "open_flags")
    dim: int
    apex: Tuple[Fraction, ...]
    generators: Tuple[Exponents, ...]
    open_flags: Tuple[bool, ...]

    def __init__(
        self,
        dim: int,
        apex: Sequence,
        generators: Sequence[Sequence[int]],
        open_flags: Optional[Sequence[bool]] = None,
    ):
        dim = _integer(dim, "cone dimension")
        apex = tuple(apex)
        if not all(isinstance(x, (int, Fraction)) for x in apex):
            raise DomainError(f"apex entries must be integers or fractions, got {apex!r}")
        apex = tuple(map(Fraction, apex))
        generators = tuple(_integers(g, "cone generators") for g in generators)
        open_flags = (False,) * len(generators) if open_flags is None else tuple(open_flags)
        if not all(isinstance(f, bool) for f in open_flags):
            raise DomainError(f"open flags must be bools, got {open_flags!r}")
        if len(apex) != dim:
            raise UsageError(f"apex has length {len(apex)}, expected {dim}")
        if any(len(g) != dim for g in generators):
            raise UsageError("generator length does not match dimension")
        if len(open_flags) != len(generators):
            raise UsageError("need one open flag per generator")
        if not generators:
            raise UsageError("cone needs at least one generator")
        if diagonal_form(generators).rank != len(generators):
            raise UsageError(f"generators {generators} are not linearly independent")
        self._set(dim, apex, generators, open_flags)


def lattice_index(cone: HalfOpenCone) -> int:
    """Index of the lattice spanned by the generators inside its saturation.

    Full-dimensional cones: absolute determinant.  Lower-dimensional ones:
    gcd of the absolute values of all maximal minors.
    """
    return diagonal_form(cone.generators).index


def parallelepiped_points(cone: HalfOpenCone) -> List[Exponents]:
    """Integer points of the fundamental parallelepiped, sorted.

    A point qualifies when ``p - apex = sum lam_j v_j`` with each coefficient
    in [0, 1) for a closed generator and (0, 1] for an open one.  Each class
    of ``lam`` modulo 1 that lands on an integer point is reduced into that
    range, so there is one point per coset of the generators' lattice.  The
    coefficients stay integers, scaled by ``S``, the lcm of the apex
    denominators times the lcm of the lattice's diagonal factors.
    """
    form = diagonal_form(cone.generators)
    denominator = math.lcm(*(a.denominator for a in cone.apex))
    shift = [int(a * denominator) for a in cone.apex]
    lcm = form.inverse.lcm
    scale = denominator * lcm
    rows = list(zip(*cone.generators))
    points = []
    for lams in form.cosets(shift, denominator):
        lams = [scale if is_open and not lam else lam for lam, is_open in zip(lams, cone.open_flags)]
        points.append(tuple(
            (a * lcm + sum(map(mul, lams, row))) // scale for a, row in zip(shift, rows)
        ))
    points.sort()
    return points


class RationalGF(Frozen):
    """Numerator polynomial over a multiset of ``(1 - z^m)`` factors."""

    __slots__ = _fields = ("context", "numerator", "denominator")
    context: VariableContext
    numerator: LaurentPoly
    denominator: Tuple[Exponents, ...]

    def __init__(self, context: VariableContext, numerator: LaurentPoly, denominator: Iterable[Sequence[int]]):
        if numerator.context != context:
            raise UsageError("numerator context does not match the GF context")
        factors = tuple(sorted(_integers(m, "denominator monomials") for m in denominator))
        zero = (0,) * len(context)
        if any(m == zero for m in factors):
            raise UsageError("denominator factor (1 - z^0) is zero")
        if any(len(m) != len(context) for m in factors):
            raise UsageError("denominator monomial length does not match context")
        self._set(context, numerator, factors)

    def __add__(self, other: "RationalGF") -> "RationalGF":
        return gf_sum((self, other)) if isinstance(other, RationalGF) else NotImplemented

    def __neg__(self) -> "RationalGF":
        return RationalGF(self.context, -self.numerator, self.denominator)

    def __sub__(self, other: "RationalGF") -> "RationalGF":
        return self + (-other) if isinstance(other, RationalGF) else NotImplemented


def _lift(terms: Dict[Exponents, int], factors: Iterable[Exponents]) -> Dict[Exponents, int]:
    """Multiply ``terms`` in place by each ``(1 - z^m)``, a shift by ``m`` subtracted; return them."""
    for m in factors:
        add_terms(terms, [(tuple(map(add, exps, m)), -coef) for exps, coef in terms.items()])
    return terms


def gf_sum(gfs: Iterable[RationalGF]) -> RationalGF:
    """Sum over the least common multiset of the denominators.

    A running sum over the multiset ``common`` takes each GF in turn: the
    running terms are lifted by the factors the GF's denominator has beyond
    ``common``, a copy of the GF's numerator, lifted by the factors ``common``
    has beyond its denominator, is added in, and ``common`` becomes the union
    of the two multisets.
    """
    gfs = list(gfs)
    if len(gfs) == 1:  # a value is immutable, so the sum of one is the one
        return gfs[0]
    context = gfs[0].context
    common: Counter = Counter()
    terms: Dict[Exponents, int] = {}
    for g in gfs:
        if g.context != context:
            raise UsageError("context mismatch between generating functions")
        own = Counter(g.denominator)
        _lift(terms, (own - common).elements())
        add_terms(terms, _lift(dict(g.numerator.terms), (common - own).elements()).items())
        common |= own
    # the terms are the numerators' own, shifted by factors of their context, zeros dropped
    return RationalGF(context, LaurentPoly._trusted(context, terms), common.elements())


def integer_point_transform(cone: HalfOpenCone, context: VariableContext) -> RationalGF:
    """Generating function of the cone's integer points."""
    if len(context) != cone.dim:
        raise UsageError(f"context size {len(context)} != cone dimension {cone.dim}")
    numerator = LaurentPoly(context, {p: 1 for p in parallelepiped_points(cone)})
    return RationalGF(context, numerator, cone.generators)


def gf_substitute(
    g: RationalGF, target: VariableContext, images: Mapping[str, Sequence[int]]
) -> RationalGF:
    """Apply a monomial substitution to numerator and denominator alike."""
    image = monomial_image(g.context, target, images)
    numerator = LaurentPoly(target, add_terms({}, ((image(e), c) for e, c in g.numerator.terms.items())))
    factors = list(map(image, g.denominator))
    for m, f in zip(g.denominator, factors):
        if not any(f):
            raise DegenerateSubstitutionError(f"denominator factor {m} maps to the zero exponent vector")
    return RationalGF(target, numerator, factors)


def gf_equals(lhs: RationalGF, rhs: RationalGF) -> bool:
    """Exact equality: the difference over the common denominator is zero;
    an operand that is not a RationalGF is a UsageError."""
    for gf in (lhs, rhs):
        if not isinstance(gf, RationalGF):
            raise UsageError(f"gf_equals compares RationalGFs, got a {type(gf).__name__}")
    return not (lhs - rhs).numerator


def _weight_of(monomial: Exponents, weights: Sequence[int]) -> int:
    return sum(e * w for e, w in zip(monomial, weights))


def series_expand(g: RationalGF, weights: Mapping[str, int], bound: int) -> LaurentPoly:
    """Truncate the power series of ``g`` to terms of weight <= bound.

    Weights are nonnegative integers per variable (absent names weigh 0).
    Every denominator factor must have positive total weight; every numerator
    term must have nonnegative weight, so truncation is exact.  A weight or
    bound that is not an integer is a DomainError.

    The terms are kept in layers by weight.  Dividing ``S`` by ``(1 - z^m)``
    is the recurrence ``T = S + z^m T`` (Stanley, *EC1*, Thm 4.1.1): in
    ascending weight, layer ``w`` of ``T`` is final once reached, and is
    added, shifted by ``m``, into layer ``w + wm``.  Only the weights that
    hold terms are visited, so a huge bound costs only the terms it keeps.
    """
    ctx = g.context
    wvec = _integers([weights.get(name, 0) for name in ctx.names], "series weights")
    bound = _integer(bound, "series bound")
    if any(w < 0 for w in wvec):
        raise UsageError("weights must be nonnegative")
    # every wm > 0 before the first pass: a pass adds layer w into layer
    # w + wm, which must come after w, or a layer would feed itself or one
    # already passed
    factors = [(m, _weight_of(m, wvec)) for m in g.denominator]
    for m, wm in factors:
        if wm <= 0:
            raise NonExpandableError(f"denominator factor {m} has nonpositive weight")
    layers: Dict[int, Dict[Exponents, int]] = {}
    for exps, coef in g.numerator.terms.items():
        w = _weight_of(exps, wvec)
        if w < 0:
            raise NonExpandableError("numerator term with negative weight")
        if w <= bound:
            layers.setdefault(w, {})[exps] = coef
    for m, wm in factors:
        # layer w feeds only layer w + wm, so each class of weights mod wm is
        # one chain, run upwards from its lightest layer
        lightest: Dict[int, int] = {}
        for w in sorted(layers):
            lightest.setdefault(w % wm, w)
        for start in lightest.values():
            for w in range(start, bound - wm + 1, wm):
                layer = layers[w]
                shifted = map(tuple, map(map, repeat(add), layer, repeat(m)))
                add_terms(layers.setdefault(w + wm, {}), zip(shifted, layer.values()))
    # each layer is freed as it is merged, so the terms are not held twice; a
    # term's weight names its layer, so the layers' keys are disjoint
    terms: Dict[Exponents, int] = {}
    while layers:
        terms.update(layers.popitem()[1])
    return LaurentPoly._trusted(ctx, terms)


# -- plain-text cone files ----------------------------------------------------
#
# dim 4
# apex -1/2 0 -1 -1/2
# gen open 1 0 0 3
# gen closed 1 0 2 0
#
# An apex entry is an integer or a fraction of two, as in `-1/2`, read with
# int(); exponents and decimal points are refused, so `1e999999999` cannot
# stand for a number with a billion digits.

_APEX_ENTRY = re.compile(r"-?[0-9]+(/[0-9]+)?")


def parse_cone(text: str) -> HalfOpenCone:
    dim: Optional[int] = None
    apex: Optional[Tuple[Fraction, ...]] = None
    generators: List[Tuple[int, ...]] = []
    flags: List[bool] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens:
            continue
        directive, args = tokens[0], tokens[1:]
        if directive == "dim":
            try:
                dim = int(args[0]) if len(args) == 1 else 0
            except ValueError:
                dim = 0
            if dim < 1:
                raise UsageError(f"line {lineno}: dim needs one positive integer")
        elif directive == "apex":
            if dim is None:
                raise UsageError(f"line {lineno}: apex before dim")
            if len(args) != dim:
                raise UsageError(f"line {lineno}: apex needs {dim} entries")
            if not all(_APEX_ENTRY.fullmatch(a) for a in args):
                raise UsageError(f"line {lineno}: apex entries must be integers or fractions")
            try:
                apex = tuple(Fraction(*map(int, a.split("/"))) for a in args)
            except (ValueError, ZeroDivisionError) as exc:
                raise UsageError(f"line {lineno}: bad apex entry ({exc})") from None
        elif directive == "gen":
            if dim is None:
                raise UsageError(f"line {lineno}: gen before dim")
            if not args or args[0] not in ("closed", "open"):
                raise UsageError(f"line {lineno}: gen needs 'closed' or 'open'")
            if len(args) != dim + 1:
                raise UsageError(f"line {lineno}: gen needs {dim} coordinates")
            try:
                generators.append(tuple(int(a) for a in args[1:]))
            except ValueError:
                raise UsageError(f"line {lineno}: generator entries must be integers") from None
            flags.append(args[0] == "open")
        else:
            raise UsageError(f"line {lineno}: unknown directive {directive!r}")
    if dim is None:
        raise UsageError("cone file is missing a dim line")
    if not generators:
        raise UsageError("cone file has no generators")
    if apex is None:
        apex = (Fraction(0),) * dim
    return HalfOpenCone(dim, apex, generators, flags)
