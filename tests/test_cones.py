import itertools
import math
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from lattice_oracle import minor_gcd
from lattice_oracle import parallelepiped_points as fraction_parallelepiped_points
from lift_oracle import gf_sum as sequential_gf_sum
from series_oracle import series_expand as walked_series
from substitute_oracle import gf_substitute as per_factor_gf_substitute

from qtcatalan.cones import (
    HalfOpenCone,
    RationalGF,
    gf_equals,
    gf_sum,
    gf_substitute,
    integer_point_transform,
    lattice_index,
    parallelepiped_points,
    parse_cone,
    series_expand,
)
from qtcatalan.errors import (
    DegenerateSubstitutionError,
    DomainError,
    NonExpandableError,
    UsageError,
)
from qtcatalan.polynomial import LaurentPoly, VariableContext

Z5 = VariableContext(("z1", "z2", "z3", "w2", "w3"))
Z4 = VariableContext(("y", "z1", "z2", "z3"))

# the five-dimensional cones behind the three-run decomposition
CONE_C1 = HalfOpenCone(
    5,
    (0,) * 5,
    ((1, 0, 0, 0, 0), (0, 0, 1, 0, 0), (1, 0, 0, 1, 0), (1, 0, 0, 1, 1), (1, 1, 0, 1, 0)),
)
CONE_C2 = HalfOpenCone(
    5,
    (0,) * 5,
    ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (1, 1, 0, 1, 0), (0, 1, 0, 0, 1)),
)
CONE_C3 = HalfOpenCone(
    5,
    (0,) * 5,
    ((1, 0, 0, 0, 0), (0, 0, 1, 0, 0), (1, 1, 0, 1, 0), (1, 0, 0, 1, 1), (0, 1, 0, 0, 1)),
    (False, False, False, True, True),
)

# four-dimensional cones with (k, a, b, c) coordinates
V1, V2, V3, V4 = (1, 0, 2, 0), (1, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 0)
V5, V6, V7, V8 = (1, 1, 1, 1), (1, 0, 2, 1), (1, 0, 0, 3), (1, 1, 0, 2)

CONE_A = HalfOpenCone(4, (0,) * 4, (V1, V4, V6, V8))
CONE_B = HalfOpenCone(4, (0,) * 4, (V4, V5, V6, V8), (False, True, False, False))
CONE_23 = HalfOpenCone(4, (0,) * 4, (V1, V2, V3, V7), (False, True, False, False))


def mono(ctx, text):
    poly = LaurentPoly.parse(ctx, text)
    ((exps, coef),) = poly.terms.items()
    assert coef == 1
    return exps


def gf(ctx, numerator, denominators):
    return RationalGF(ctx, LaurentPoly.parse(ctx, numerator), [mono(ctx, d) for d in denominators])


def test_constructor_rejects_dependent_generators():
    with pytest.raises(UsageError):
        HalfOpenCone(2, (0, 0), ((1, 0), (2, 0)))
    with pytest.raises(UsageError):
        HalfOpenCone(2, (0, 0), ((1, 0), (0, 1), (1, 1)))


@pytest.mark.parametrize("entry", [1.9, "3", Fraction(1), None, 0.1, "1/3"])
def test_constructors_refuse_non_integer_entries(entry):
    with pytest.raises(DomainError):
        HalfOpenCone(2, (0, 0), ((entry, 0), (0, 1)))
    with pytest.raises(DomainError):
        RationalGF(VariableContext(("z",)), LaurentPoly.monomial(VariableContext(("z",)), (0,)), [(entry,)])
    if not isinstance(entry, Fraction):  # an apex entry is an integer or a Fraction
        with pytest.raises(DomainError):
            HalfOpenCone(2, (entry, 0), ((1, 0), (0, 1)))


@pytest.mark.parametrize(
    "dim, flags",
    [
        (2, ("closed", "closed")),
        (2, (0, 1)),
        (2, (None, False)),
        (2.0, (False, False)),
        (Fraction(2), (False, False)),
        ("2", (False, False)),
    ],
)
def test_the_cone_reads_its_flags_and_dim_strictly(dim, flags):
    """A flag is a bool and the dimension an integer: ``bool("closed")`` would
    open the generator, and ``2.0`` would be kept as the dimension."""
    with pytest.raises(DomainError):
        HalfOpenCone(dim, (0, 0), ((1, 0), (0, 1)), flags)


def test_lattice_index_goldens():
    assert lattice_index(CONE_C1) == 1
    assert lattice_index(CONE_C2) == 1
    assert lattice_index(CONE_C3) == 2
    assert lattice_index(CONE_A) == 1
    assert lattice_index(CONE_B) == 1
    assert lattice_index(CONE_23) == 6


def test_lattice_index_lower_dimensional():
    cone = HalfOpenCone(3, (0, 0, 0), ((2, 0, 0), (0, 2, 0)))
    assert lattice_index(cone) == 4
    cone = HalfOpenCone(3, (0, 0, 0), ((1, 0, 1), (0, 1, 1)))
    assert lattice_index(cone) == 1


def test_parallelepiped_goldens():
    assert parallelepiped_points(CONE_C3) == [(1, 1, 0, 1, 1), (1, 1, 0, 1, 2)]
    assert parallelepiped_points(CONE_23) == [
        (1, 0, 0, 0),
        (1, 0, 0, 1),
        (1, 0, 0, 2),
        (1, 0, 1, 0),
        (1, 0, 1, 1),
        (2, 0, 1, 2),
    ]
    unimodular = HalfOpenCone(2, (0, 0), ((1, 0), (1, 1)))
    assert parallelepiped_points(unimodular) == [(0, 0)]


def test_parallelepiped_count_matches_index():
    gens = ((1, 0, 0), (1, 2, 0), (1, 1, 3))
    for flags in itertools.product((False, True), repeat=3):
        cone = HalfOpenCone(3, (0, 0, 0), gens, flags)
        assert len(parallelepiped_points(cone)) == lattice_index(cone) == 6


def test_parallelepiped_rational_apex():
    cone = HalfOpenCone(
        4,
        (Fraction(-1, 2), 0, -1, Fraction(-1, 2)),
        (V1, V6, V7, V8),
        (False, False, True, False),
    )
    assert parallelepiped_points(cone) == [(0, 0, -1, 1), (1, 0, 0, 3)]


def test_transform_goldens():
    got = integer_point_transform(CONE_C1, Z5)
    want = gf(Z5, "1", ["z1", "z3", "z1*w2", "z1*w2*w3", "z1*z2*w2"])
    assert got == want

    got = integer_point_transform(CONE_C3, Z5)
    want = gf(
        Z5,
        "z1*z2*w2*w3^2 + z1*z2*w2*w3",
        ["z1", "z3", "z1*z2*w2", "z1*w2*w3", "z2*w3"],
    )
    assert got == want

    got = integer_point_transform(CONE_B, Z4)
    want = gf(Z4, "y*z1*z2*z3", ["y*z1*z2", "y*z1*z2*z3", "y*z2^2*z3", "y*z1*z3^2"])
    assert got == want


def cone_coefficients(cone):
    """Map an integer point p to the lam with p - apex = sum lam_j v_j, or None.

    Gauss-Jordan elimination on [V | I] over the rationals, done once per cone,
    gives an integer E and den with E V = den * [I_k; 0]; a point lies on the
    cone's affine span iff the rows of E past k send p - apex to zero.
    """
    k, d = len(cone.generators), cone.dim
    rows = [
        [Fraction(g[i]) for g in cone.generators] + [Fraction(int(i == j)) for j in range(d)]
        for i in range(d)
    ]
    for col in range(k):
        pivot = next(i for i in range(col, d) if rows[i][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for i in range(d):
            if i != col and rows[i][col]:
                factor = rows[i][col]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[col])]
    den = math.lcm(*(x.denominator for row in rows for x in row[k:]))
    scale = math.lcm(*(a.denominator for a in cone.apex))
    left = [[int(x * den) for x in row[k:]] for row in rows]
    shift = [int(scale * sum(e * a for e, a in zip(row, cone.apex))) for row in left]

    def coefficients(point):
        y = [scale * sum(e * x for e, x in zip(row, point)) - s for row, s in zip(left, shift)]
        if any(y[k:]):
            return None
        return [Fraction(v, den * scale) for v in y[:k]]

    return coefficients


def brute_cone_points(cone, bound, ranges=None):
    """All integer cone points with coordinate sum <= bound (box scan oracle).

    The box is ``ranges``, one range per coordinate, or by default
    [-B-1, B+1]^dim cut to |x|_1 <= 3(B+1), which holds every such point of
    a cone in the nonnegative orthant.
    """
    coefficients = cone_coefficients(cone)
    span = bound + 1
    if ranges is None:
        candidates = (
            c for c in itertools.product(range(-span, span + 1), repeat=cone.dim)
            if sum(abs(x) for x in c) <= 3 * span
        )
    else:
        candidates = itertools.product(*ranges)
    out = []
    for candidate in candidates:
        if sum(candidate) > bound:
            continue
        lams = coefficients(candidate)
        if lams is None:
            continue
        if all(
            (lam > 0 if is_open else lam >= 0)
            for lam, is_open in zip(lams, cone.open_flags)
        ):
            out.append(candidate)
    return out


def box_scan_parallelepiped(cone):
    """Fundamental-parallelepiped points by testing every point of its bounding box."""
    coefficients = cone_coefficients(cone)
    ranges = []
    for i, a in enumerate(cone.apex):
        lo = a + sum(min(0, g[i]) for g in cone.generators)
        hi = a + sum(max(0, g[i]) for g in cone.generators)
        ranges.append(range(math.ceil(lo), math.floor(hi) + 1))
    points = []
    for candidate in itertools.product(*ranges):
        lams = coefficients(candidate)
        if lams is not None and all(
            (0 < lam <= 1 if is_open else 0 <= lam < 1)
            for lam, is_open in zip(lams, cone.open_flags)
        ):
            points.append(candidate)
    return points


@st.composite
def cone_data(draw):
    """(dim, apex, generators, flags): dimension 1-4, k <= dim, entries -3..3."""
    dim = draw(st.integers(1, 4))
    k = draw(st.integers(1, dim))
    generators = draw(st.lists(
        st.tuples(*[st.integers(-3, 3)] * dim), min_size=k, max_size=k
    ))
    apex = draw(st.lists(
        st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)), min_size=dim, max_size=dim
    ))
    flags = draw(st.lists(st.booleans(), min_size=k, max_size=k))
    return dim, apex, generators, flags


@settings(max_examples=100, deadline=None)
@given(cone_data())
def test_constructor_rejects_exactly_the_dependent_generators(data):
    dim, apex, generators, flags = data
    if minor_gcd(generators) == 0:
        with pytest.raises(UsageError):
            HalfOpenCone(dim, apex, generators, flags)
    else:
        assert HalfOpenCone(dim, apex, generators, flags).generators == tuple(generators)


@settings(max_examples=200, deadline=None)
@given(cone_data())
def test_parallelepiped_matches_box_scan_and_index(data):
    dim, apex, generators, flags = data
    index = minor_gcd(generators)
    assume(0 < index <= 60)
    cone = HalfOpenCone(dim, apex, generators, flags)
    points = parallelepiped_points(cone)
    assert points == box_scan_parallelepiped(cone)
    assert lattice_index(cone) == index
    # a lower-dimensional cone's affine span may miss the lattice entirely
    assert len(points) == index or (len(cone.generators) < dim and not points)


@settings(max_examples=200, deadline=None)
@given(cone_data())
def test_parallelepiped_matches_fraction_cosets(data):
    """Integer cosets give the Π of the Fraction ones, also past the box scan's indices."""
    dim, apex, generators, flags = data
    assume(0 < minor_gcd(generators) <= 3000)
    cone = HalfOpenCone(dim, apex, generators, flags)
    assert parallelepiped_points(cone) == fraction_parallelepiped_points(cone)


def test_unimodular_cone_with_a_large_box():
    cone = HalfOpenCone(2, (0, 0), ((300, 299), (301, 300)))
    assert parallelepiped_points(cone) == [(0, 0)]


@pytest.mark.parametrize(
    "gens, flags",
    [
        (((1, 0), (1, 2)), (False, False)),
        (((1, 0), (1, 2)), (True, False)),
        (((1, 1), (0, 1)), (False, True)),
        (((2, 1), (1, 3)), (True, True)),
    ],
)
def test_series_matches_point_enumeration(gens, flags):
    ctx = VariableContext(("z1", "z2"))
    cone = HalfOpenCone(2, (0, 0), gens, flags)
    transform = integer_point_transform(cone, ctx)
    bound = 7
    series = series_expand(transform, {"z1": 1, "z2": 1}, bound)
    expected = LaurentPoly(ctx, {p: 1 for p in brute_cone_points(cone, bound)})
    assert series == expected


@st.composite
def positive_cone_data(draw):
    """``cone_data`` folded into the nonnegative orthant.

    Generators take absolute values and the apex its fractional part, so
    every generator has positive unit weight and every point of weight at
    most B has coordinates in [0, B], inside the box that
    ``brute_cone_points`` scans.  The apex in [0, 1)^dim leaves most of B to
    the generators.
    """
    dim, apex, generators, flags = draw(cone_data())
    generators = [tuple(abs(x) for x in g) for g in generators]
    return dim, [a - math.floor(a) for a in apex], generators, flags


# per dimension, the largest weight bound whose brute box scan stays cheap
SERIES_BOUND = {1: 12, 2: 12, 3: 8, 4: 5}


@settings(max_examples=100, deadline=None)
@given(positive_cone_data())
def test_series_matches_point_enumeration_on_drawn_cones(data):
    dim, apex, generators, flags = data
    assume(0 < minor_gcd(generators) <= 60)
    # independent generators are nonzero, so folded ones weigh at least 1, as
    # the argument of ``cone_box`` needs
    assert all(sum(g) > 0 for g in generators)
    bound = SERIES_BOUND[dim]
    cone = HalfOpenCone(dim, apex, generators, flags)
    ctx = VariableContext(tuple(f"z{i + 1}" for i in range(dim)))
    series = series_expand(integer_point_transform(cone, ctx), dict.fromkeys(ctx.names, 1), bound)
    expected = brute_cone_points(cone, bound, cone_box(cone, bound))
    assert series == LaurentPoly(ctx, {p: 1 for p in expected})


@st.composite
def mixed_cone_data(draw):
    """``cone_data`` with every generator of positive unit weight, signs mixed.

    A generator whose entries sum to at most 0 gets one entry raised until
    the sum is 1 to 3, so negative entries stay.  The apex takes its
    fractional part, so every parallelepiped point has nonnegative weight.
    """
    dim, apex, generators, flags = draw(cone_data())
    raised = []
    for g in generators:
        g = list(g)
        if sum(g) <= 0:
            g[draw(st.integers(0, dim - 1))] += 1 - sum(g) + draw(st.integers(0, 2))
        raised.append(tuple(g))
    return dim, [a - math.floor(a) for a in apex], raised, flags


def cone_box(cone, bound):
    """Ranges per coordinate holding every cone point of unit weight <= bound.

    With the apex's weight w0 and generator weights w(v) > 0, a point of
    weight at most ``bound`` has each coefficient at most
    ``(bound - w0) / w(v)``, so each coordinate lies between the apex plus
    the negative and plus the positive entries at those coefficients.
    """
    room = bound - sum(cone.apex)
    tops = [room / sum(g) for g in cone.generators]
    ranges = []
    for i, a in enumerate(cone.apex):
        lo = a + sum(min(0, g[i]) * top for g, top in zip(cone.generators, tops))
        hi = a + sum(max(0, g[i]) * top for g, top in zip(cone.generators, tops))
        ranges.append(range(math.ceil(lo), math.floor(hi) + 1))
    return ranges


# per dimension, the largest weight bound whose mixed-sign box stays cheap
MIXED_BOUND = {1: 12, 2: 8, 3: 5, 4: 3}


@settings(max_examples=100, deadline=None)
@given(mixed_cone_data())
def test_series_matches_point_enumeration_on_mixed_sign_cones(data):
    dim, apex, generators, flags = data
    assume(any(x < 0 for g in generators for x in g))
    assume(0 < minor_gcd(generators) <= 60)
    bound = MIXED_BOUND[dim]
    cone = HalfOpenCone(dim, apex, generators, flags)
    ctx = VariableContext(tuple(f"z{i + 1}" for i in range(dim)))
    series = series_expand(integer_point_transform(cone, ctx), dict.fromkeys(ctx.names, 1), bound)
    expected = brute_cone_points(cone, bound, cone_box(cone, bound))
    assert series == LaurentPoly(ctx, {p: 1 for p in expected})


def test_gf_arith():
    a = gf(Z4, "1", ["y"])
    b = gf(Z4, "z1", ["z1"])
    total = a + b
    assert sorted(total.denominator) == sorted([mono(Z4, "y"), mono(Z4, "z1")])
    assert total.numerator == LaurentPoly.parse(Z4, "1 - z1 + z1 - y*z1")

    diff = a - a
    assert not diff.numerator
    assert gf_equals(-(-a), a)
    assert gf_equals(a - b, a + (-b))

    with pytest.raises(UsageError):
        a + gf(Z5, "1", ["z1"])
    with pytest.raises(UsageError):
        a - gf(Z5, "1", ["z1"])


EXPONENTS = st.tuples(*[st.integers(0, 2)] * 4)


@st.composite
def small_gfs(draw):
    """A GF over Z4 with a few small terms over one to three factors, repeats allowed."""
    terms = draw(st.dictionaries(EXPONENTS, st.integers(-2, 2), max_size=4))
    factors = draw(st.lists(EXPONENTS.filter(any), min_size=1, max_size=3))
    return RationalGF(Z4, LaurentPoly(Z4, terms), factors)


@settings(max_examples=150, deadline=None)
@given(st.lists(small_gfs(), min_size=1, max_size=4))
def test_gf_sum_is_the_cross_multiplied_sum(gfs):
    """Each numerator times the factors its denominator lacks, by polynomial
    products, over the least common multiset of factors."""
    common = Counter()
    for g in gfs:
        common |= Counter(g.denominator)
    expected = LaurentPoly.zero(Z4)
    for g in gfs:
        part = g.numerator
        for m in (common - Counter(g.denominator)).elements():
            part = part * LaurentPoly(Z4, {(0, 0, 0, 0): 1, m: -1})
        expected = expected + part
    total = gf_sum(gfs)
    assert total.numerator == expected
    assert Counter(total.denominator) == common


@st.composite
def pooled_gfs(draw):
    """Up to 20 GFs whose factors come from one pool of 4-6, so many lack the
    same multiset and their groups merge; a negated copy of a drawn GF lacks
    what it lacks, so its group cancels to nothing."""
    pool = draw(st.lists(EXPONENTS.filter(any), min_size=4, max_size=6, unique=True))
    gfs = draw(st.lists(
        st.builds(
            lambda terms, factors: RationalGF(Z4, LaurentPoly(Z4, terms), factors),
            st.dictionaries(EXPONENTS, st.integers(-2, 2), max_size=3),
            st.lists(st.sampled_from(pool), max_size=4),
        ),
        min_size=1, max_size=20,
    ))
    negated = draw(st.lists(st.sampled_from(gfs), max_size=len(gfs)))
    return (gfs + [-g for g in negated])[:20]


@settings(max_examples=150, deadline=None)
@given(pooled_gfs())
def test_gf_sum_lifts_merged_groups_to_the_cross_multiplied_sum(gfs):
    common = Counter()
    for g in gfs:
        common |= Counter(g.denominator)
    expected = LaurentPoly.zero(Z4)
    for g in gfs:
        part = g.numerator
        for m in (common - Counter(g.denominator)).elements():
            part = part * LaurentPoly(Z4, {(0, 0, 0, 0): 1, m: -1})
        expected = expected + part
    total = gf_sum(gfs)
    assert total.numerator == expected
    assert Counter(total.denominator) == common
    assert total == sequential_gf_sum(gfs)


@st.composite
def shared_gfs(draw):
    """1-20 GFs over one pool of factors, read only by the sum: some drawn GFs
    come again as the same object, some numerators again over another
    denominator, and now and then every GF has one denominator, so that none
    lacks a factor and the sum is one group."""
    pool = draw(st.lists(EXPONENTS.filter(any), min_size=1, max_size=5, unique=True))
    factors = st.lists(st.sampled_from(pool), max_size=4)
    numerators = st.builds(
        lambda terms: LaurentPoly(Z4, terms), st.dictionaries(EXPONENTS, st.integers(-2, 2), max_size=3)
    )
    one_denominator = draw(st.none() | factors)
    gfs = draw(st.lists(
        st.builds(lambda n, f: RationalGF(Z4, n, one_denominator or f), numerators, factors),
        min_size=1, max_size=20,
    ))
    again = draw(st.lists(st.sampled_from(gfs), max_size=5))
    shared = [RationalGF(Z4, g.numerator, one_denominator or draw(factors))
              for g in draw(st.lists(st.sampled_from(gfs), max_size=5))]
    return draw(st.permutations(gfs + again + shared))[:20]


@settings(max_examples=100, deadline=None)
@given(shared_gfs())
def test_gf_sum_writes_to_no_input(gfs):
    """The sum is the sequential lift's, and every input keeps its terms and
    factors; a sum of more than one GF holds terms of its own."""
    before = [(dict(g.numerator.terms), g.denominator) for g in gfs]
    total = gf_sum(gfs)
    assert [(g.numerator.terms, g.denominator) for g in gfs] == before
    assert total == sequential_gf_sum(gfs)
    if len(gfs) > 1:
        assert all(total.numerator.terms is not g.numerator.terms for g in gfs)


def test_gf_equals_rescaling():
    base = gf(Z4, "y + z1", ["y", "z1*z2"])
    scaled = RationalGF(
        Z4,
        base.numerator * LaurentPoly.parse(Z4, "1 - y*z3"),
        list(base.denominator) + [mono(Z4, "y*z3")],
    )
    assert gf_equals(base, scaled)
    assert gf_equals(scaled, base)
    bumped = RationalGF(Z4, base.numerator + LaurentPoly.parse(Z4, "1"), base.denominator)
    assert not gf_equals(base, bumped)


Z3 = VariableContext(("z1", "z2", "z3"))
nonzero_monomials = st.tuples(*[st.integers(-2, 2)] * 3).filter(any)


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(st.tuples(*[st.integers(-2, 2)] * 3), st.integers(-3, 3), max_size=5),
    st.lists(nonzero_monomials, max_size=3),
    nonzero_monomials,
)
def test_gf_equals_ignores_a_shared_factor(numerator, denominator, v):
    base = RationalGF(Z3, LaurentPoly(Z3, numerator), denominator)
    factor = LaurentPoly(Z3, {(0, 0, 0): 1, v: -1})
    scaled = RationalGF(Z3, base.numerator * factor, list(base.denominator) + [v])
    assert gf_equals(base, scaled)
    assert gf_equals(scaled, base)


def test_gf_substitute_golden():
    out = VariableContext(("x1", "x2", "x3", "q", "t"))
    images = {
        "z1": out.monomial(x1=1, t=2),
        "z2": out.monomial(x2=1),
        "z3": out.monomial(x3=1),
        "w2": out.monomial(q=1, t=-1),
        "w3": out.monomial(q=1, t=-1),
    }
    got = gf_substitute(integer_point_transform(CONE_C1, Z5), out, images)
    want = gf(out, "1", ["x1*t^2", "x3", "x1*q*t", "x1*q^2", "x1*x2*q*t"])
    assert got == want


def test_gf_substitute_identity_and_degenerate():
    transform = integer_point_transform(CONE_B, Z4)
    identity = {name: Z4.monomial(**{name: 1}) for name in Z4.names}
    assert gf_substitute(transform, Z4, identity) == transform

    collapse = {name: Z4.monomial() for name in Z4.names}
    with pytest.raises(DegenerateSubstitutionError):
        gf_substitute(transform, Z4, collapse)


NAMES = ("a", "b", "c", "d")


@st.composite
def substitutions(draw):
    """A GF over 1-3 source variables, a target context and images, some of
    which map a factor to zero, miss a variable or have the wrong length."""
    source = VariableContext(draw(st.permutations(NAMES))[:draw(st.integers(1, 3))])
    target = VariableContext(draw(st.permutations(("x", "y", "q")))[:draw(st.integers(1, 3))])
    exponents = st.tuples(*[st.integers(-2, 2)] * len(source))
    gf = RationalGF(
        source,
        LaurentPoly(source, draw(st.dictionaries(exponents, st.integers(-2, 2), max_size=4))),
        draw(st.lists(exponents.filter(any), max_size=3)),
    )
    images = {}
    for name in source.names:
        width = draw(st.sampled_from((len(target),) * 8 + (len(target) + 1, len(target) - 1)))
        images[name] = draw(st.just((0,) * width) | st.tuples(*[st.integers(-1, 1)] * width))
    images.pop(draw(st.sampled_from((None,) * 8 + source.names)), None)  # now and then none
    return gf, target, images


def _outcome(substitute, gf, target, images):
    try:
        return substitute(gf, target, images)
    except Exception as exc:  # noqa: BLE001 - the class and message are compared
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(substitutions())
def test_gf_substitute_is_the_per_factor_substitution(drawn):
    """One linear image for numerator and factors gives the per-factor result,
    or the same exception class and message."""
    assert _outcome(gf_substitute, *drawn) == _outcome(per_factor_gf_substitute, *drawn)


def test_series_constant_term():
    g = gf(Z4, "1 + y*z1", ["y", "y*z2"])
    assert series_expand(g, {"y": 1}, 0) == LaurentPoly.parse(Z4, "1")


def test_series_additivity():
    a = gf(Z4, "1", ["y", "y*z1"])
    b = gf(Z4, "y*z2", ["y", "z1*y"])
    w = {"y": 1}
    left = series_expand(a + b, w, 4)
    right = series_expand(a, w, 4) + series_expand(b, w, 4)
    assert left == right


@pytest.mark.parametrize(
    "weights, bound",
    [
        ({"y": 1.9}, 3),
        ({"y": "1"}, 3),
        ({"y": Fraction(1)}, 3),
        ({"y": None}, 3),
        ({"y": 1}, 2.5),
        ({"y": 1}, "3"),
    ],
)
def test_series_refuses_non_integer_weights_and_bounds(weights, bound):
    # int() used to cut 1.9 and "1" to weight 1 and let a bound of 2.5 through
    g = gf(Z4, "1", ["y"])
    with pytest.raises(DomainError):
        series_expand(g, weights, bound)


def test_series_zero_weight_error():
    g = gf(Z4, "1", ["z1"])
    with pytest.raises(NonExpandableError):
        series_expand(g, {"y": 1}, 3)


YZQT = VariableContext(("y", "z", "q", "t"))


@st.composite
def expandable_gfs(draw):
    """``(g, weights, bound)`` with weights 0-3 and bounds -1..8.

    q and t weigh 0 and take negative exponents, as in the theorems' series.
    y weighs 1-3 and z 0-3, and both may be negative in a term or factor of
    the right weight sign.  Factors repeat and may outweigh the bound, and
    the numerator may carry one of the factors, so that terms cancel.
    """
    weights = {"y": draw(st.integers(1, 3)), "z": draw(st.integers(0, 3))}

    def weight(m):
        return m[0] * weights["y"] + m[1] * weights["z"]

    monomials = st.tuples(st.integers(-1, 3), st.integers(-1, 3), st.integers(-2, 2), st.integers(-2, 2))
    factors = draw(st.lists(monomials.filter(lambda m: weight(m) > 0), min_size=1, max_size=3))
    denominator = draw(st.lists(st.sampled_from(factors), max_size=5))
    terms = draw(st.dictionaries(monomials.filter(lambda m: weight(m) >= 0), st.integers(-3, 3), max_size=5))
    numerator = LaurentPoly(YZQT, terms)
    if draw(st.booleans()):
        numerator = numerator * LaurentPoly(YZQT, {(0, 0, 0, 0): 1, draw(st.sampled_from(factors)): -1})
    return RationalGF(YZQT, numerator, denominator), weights, draw(st.integers(-1, 8))


@settings(max_examples=200, deadline=None)
@given(expandable_gfs())
def test_layered_series_matches_the_power_walk(data):
    g, weights, bound = data
    assert series_expand(g, weights, bound) == walked_series(g, weights, bound)


@settings(max_examples=100, deadline=None)
@given(expandable_gfs())
def test_series_expand_builds_what_the_checks_pass(data):
    # series_expand builds its result without the constructor's checks
    series = series_expand(*data)
    assert series == LaurentPoly(series.context, series.terms)


def test_series_visits_only_the_weights_that_hold_terms():
    # a layer list indexed by every weight up to the bound would hold 10**9 dicts
    start = time.monotonic()
    series = series_expand(gf(Z4, "1", ["y"]), {"y": 10**6}, 10**9)
    assert time.monotonic() - start < 1.0
    assert series == LaurentPoly(Z4, {(i, 0, 0, 0): 1 for i in range(1001)})


def test_parse_cone():
    text = """
dim 4
apex -1/2 0 -1 -1/2
gen closed 1 0 2 0
gen closed 1 0 2 1
gen open 1 0 0 3
gen closed 1 1 0 2
"""
    cone = parse_cone(text)
    assert cone.dim == 4
    assert cone.apex == (Fraction(-1, 2), Fraction(0), Fraction(-1), Fraction(-1, 2))
    assert cone.open_flags == (False, False, True, False)
    assert parallelepiped_points(cone) == [(0, 0, -1, 1), (1, 0, 0, 3)]


@pytest.mark.parametrize(
    "text",
    [
        "apex 0 0\ndim 2\ngen closed 1 0\ngen closed 0 1",  # apex before dim
        "dim 2\nwibble 1\ngen closed 1 0\ngen closed 0 1",  # unknown directive
        "dim 2\ngen closed 1\ngen closed 0 1",  # wrong arity
        "dim 2\ngen sorta 1 0",  # bad flag
        "dim 2",  # no generators
        "dim 2\napex 1/0 0\ngen closed 1 0",  # bad fraction
    ],
)
def test_parse_cone_errors(text):
    with pytest.raises(UsageError):
        parse_cone(text)
