import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtcatalan.cones import RationalGF
from qtcatalan.errors import DomainError, UsageError
from qtcatalan.oracles import refined_catalan
from qtcatalan.polynomial import (
    QT_CONTEXT,
    LaurentPoly,
    VariableContext,
    coefficient_grid,
    is_qt_symmetric,
    qt_swap,
    substitute_monomials,
)

QT = QT_CONTEXT
P = lambda s: LaurentPoly.parse(QT, s)


def test_parse_and_str_round_trip():
    for text in ["q^3 + q^2*t + q*t + q*t^2 + t^3", "1", "0", "-q + 2*t^-1", "3*q^2*t^-2 - 1"]:
        poly = P(text)
        assert LaurentPoly.parse(QT, str(poly)) == poly


@pytest.mark.parametrize("text, message", [
    ("", "empty polynomial string"),
    ("q + -", "dangling sign"),
    ("q**t", "empty factor"),
    ("q^x", "cannot parse factor"),
    ("q^" + "9" * 5000, r"bad factor 'q\^9+' \(Exceeds the limit"),  # past int()'s digit limit
    ("9" * 5000 + "*q", r"bad factor '9+' \(Exceeds the limit"),
], ids=["empty", "dangling sign", "empty factor", "bad exponent", "long exponent", "long coefficient"])
def test_a_malformed_string_is_a_usage_error(text, message):
    with pytest.raises(UsageError, match=message):
        P(text)


def test_canonical_order():
    # ascending total degree, then descending lexicographic on exponents
    assert str(P("t^3 + q*t + q^3 + q*t^2 + q^2*t")) == "q*t + q^3 + q^2*t + q*t^2 + t^3"
    assert str(P("1 - q")) == "1 - q"
    assert str(LaurentPoly.zero(QT)) == "0"
    assert str(P("-2*q*t")) == "-2*q*t"


def test_arithmetic_with_a_foreign_operand_is_a_type_error():
    p = P("q + t")
    g = RationalGF(QT, p, [(1, 0)])
    for operation in (
        lambda: p + 1,
        lambda: p - 1,
        lambda: p * 2.5,
        lambda: 2.5 * p,
        lambda: p + g,
        lambda: g + 1,
        lambda: g - 1,
        lambda: g + p,
    ):
        with pytest.raises(TypeError, match="unsupported operand"):
            operation()
    assert p * 3 == 3 * p == P("3*q + 3*t")


def test_arith_examples():
    assert P("q + t") * P("q - t") == P("q^2 - t^2")
    p = P("q^2 + 3*t")
    assert p + LaurentPoly.zero(QT) == p
    assert p - LaurentPoly.zero(QT) == p
    assert P("q + t") * P("q^2 + q*t + t^2") == P(
        "q^3 + 2*q^2*t + 2*q*t^2 + t^3"
    )


def test_arith_context_mismatch():
    other = VariableContext(("q", "u"))
    with pytest.raises(UsageError):
        P("q") + LaurentPoly.parse(other, "q")
    with pytest.raises(UsageError):
        P("q") - LaurentPoly.parse(other, "q")
    with pytest.raises(UsageError):
        P("q") * LaurentPoly.parse(other, "q")


def _random_poly(rng, ctx, max_terms=5, span=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(-span, span) for _ in ctx.names)
        terms[exps] = rng.randint(-4, 4)
    return LaurentPoly(ctx, terms)


def test_ring_laws_randomized():
    rng = random.Random(7)
    for _ in range(60):
        a = _random_poly(rng, QT)
        b = _random_poly(rng, QT)
        c = _random_poly(rng, QT)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_substitute_examples():
    zw = VariableContext(("z1", "w2"))
    out = VariableContext(("x1", "q", "t"))
    p = LaurentPoly.parse(zw, "z1*w2")
    image = substitute_monomials(
        p, out, {"z1": out.monomial(x1=1, t=2), "w2": out.monomial(q=1, t=-1)}
    )
    assert image == LaurentPoly.parse(out, "x1*q*t")

    identity = {name: QT.monomial(**{name: 1}) for name in QT.names}
    p = P("q^2 - 3*q*t")
    assert substitute_monomials(p, QT, identity) == p

    merged = substitute_monomials(P("q + t"), QT, {"q": QT.monomial(q=1), "t": QT.monomial(q=1)})
    assert merged == P("2*q")


def test_substitute_missing_image():
    with pytest.raises(UsageError):
        substitute_monomials(P("q + t"), QT, {"q": QT.monomial(q=1)})


def test_substitute_is_ring_homomorphism():
    rng = random.Random(11)
    out = VariableContext(("u", "v"))
    images = {"q": out.monomial(u=1, v=2), "t": out.monomial(u=-1, v=1)}
    for _ in range(40):
        a = _random_poly(rng, QT, max_terms=4, span=2)
        b = _random_poly(rng, QT, max_terms=4, span=2)
        left = substitute_monomials(a * b, out, images)
        right = substitute_monomials(a, out, images) * substitute_monomials(b, out, images)
        assert left == right


def test_qt_symmetry():
    assert is_qt_symmetric(P("q + t"))
    assert is_qt_symmetric(P("q^4 + q^3*t + q^2*t^2 + q*t^3 + t^4 + q^2*t + q*t^2"))
    assert not is_qt_symmetric(P("q^2 + t"))
    rng = random.Random(3)
    for _ in range(30):
        p = _random_poly(rng, QT)
        assert is_qt_symmetric(p) == (p == qt_swap(p))


def test_qt_symmetry_requires_qt():
    ctx = VariableContext(("x", "y"))
    with pytest.raises(UsageError):
        is_qt_symmetric(LaurentPoly.parse(ctx, "x"))


def test_coefficient_grid_examples():
    grid = coefficient_grid(P("q^3 + q^2*t + q*t + q*t^2 + t^3"))
    assert grid == [
        [0, 0, 0, 1],
        [0, 1, 1, 0],
        [0, 1, 0, 0],
        [1, 0, 0, 0],
    ]
    assert coefficient_grid(P("1")) == [[1]]


def test_coefficient_grid_errors():
    with pytest.raises(UsageError):
        coefficient_grid(P("q^-1"))
    ctx = VariableContext(("x", "q", "t"))
    with pytest.raises(UsageError):
        coefficient_grid(LaurentPoly.parse(ctx, "x*q"))
    # a dead extra variable is fine
    assert coefficient_grid(LaurentPoly.parse(ctx, "q*t")) == [[0, 0], [0, 1]]


def test_grid_round_trip():
    rng = random.Random(5)
    for _ in range(30):
        terms = {
            (rng.randint(0, 4), rng.randint(0, 4)): rng.randint(-3, 3) for _ in range(6)
        }
        p = LaurentPoly(QT, terms)
        grid = coefficient_grid(p)
        cells = {(i, j): c for i, row in enumerate(grid) for j, c in enumerate(row) if c}
        assert cells == p.terms


def test_extract_coefficient():
    ctx = VariableContext(("x", "q", "t"))
    p = LaurentPoly.parse(ctx, "x^2*q + x^2*t^2 + x*q^5")
    got = p.extract_coefficient({"x": 2}, QT_CONTEXT)
    assert got == P("q + t^2")

    # y is neither assigned nor in the target: a term with y^1 is dropped
    ctx = VariableContext(("x", "y", "q", "t"))
    p = LaurentPoly.parse(ctx, "x^2*q + x^2*y*t^3 + x^2*t^-1 + x*q^5")
    assert p.extract_coefficient({"x": 2}, QT_CONTEXT) == P("q + t^-1")

    # the target lists its variables in another order than the source, and
    # has one, w, that the source lacks
    twq = VariableContext(("t", "w", "q"))
    got = p.extract_coefficient({"x": 2, "y": 0}, twq)
    assert got == LaurentPoly(twq, {(0, 0, 1): 1, (-1, 0, 0): 1})


def test_an_assigned_exponent_that_is_not_an_integer_is_a_domain_error():
    ctx = VariableContext(("x", "q", "t"))
    p = LaurentPoly.parse(ctx, "x*q + x^2*t")
    # read as they stand, 1.5 and "1" would match no term and give 0, and 1.0 would match x^1
    for exponent in [1.5, "1", 1.0, None]:
        with pytest.raises(DomainError, match="exponent of x"):
            p.extract_coefficient({"x": exponent}, QT_CONTEXT)
    assert p.extract_coefficient({"x": True}, QT_CONTEXT) == P("q")


def test_context_validation():
    with pytest.raises(UsageError):
        VariableContext(())
    with pytest.raises(UsageError):
        VariableContext(("q", "q"))
    with pytest.raises(UsageError):
        QT.index("nope")


def test_the_shared_context_cannot_be_changed():
    poly = P("q^2*t")
    before = (hash(poly), str(poly))
    with pytest.raises(AttributeError):
        QT_CONTEXT.names = ("t", "q")
    with pytest.raises(AttributeError):
        del QT_CONTEXT.names
    assert QT_CONTEXT.names == ("q", "t") and QT_CONTEXT == VariableContext(("q", "t"))
    assert QT_CONTEXT.index("q") == 0 and QT_CONTEXT.index("t") == 1
    assert (hash(poly), str(poly)) == before == (hash(P("q^2*t")), "q^2*t")


@pytest.mark.parametrize("entry", [2.7, "3", None])
def test_coefficients_and_exponents_refuse_non_integers(entry):
    with pytest.raises(DomainError):
        LaurentPoly(QT, {(0, 0): entry})
    with pytest.raises(DomainError):
        QT.monomial(q=entry)


@pytest.mark.parametrize("exps", [(0.5, 0), ("a", 1), (Fraction(1, 2), 1), None, 1])
def test_exponents_refuse_non_integers(exps):
    """An exponent that is not an integer used to be kept (``q^0.5``) or to
    fail later with a bare TypeError."""
    with pytest.raises(DomainError, match="^exponents must be a sequence of integers"):
        LaurentPoly(QT, {exps: 1})


def test_exponents_are_read_as_ints():
    poly = LaurentPoly(QT, {(True, 1): 1})
    assert [type(e) for exps in poly.terms for e in exps] == [int, int]
    assert poly == P("q*t") and str(poly + P("1")) == "1 + q*t"


@pytest.mark.parametrize("names", [[1, 2], ["q", 0.5], ["q", "x y"], ["2q"], ["q^2"], [""], ["é"]])
def test_variable_names_are_names_the_parser_reads(names):
    with pytest.raises(UsageError, match="^variable names must be a letter, then letters and digits"):
        VariableContext(names)


V5 = VariableContext(("a", "b", "c", "d", "e"))


def laurent_polys(ctx, span=3):
    """Random Laurent polynomials over ``ctx``, exponents in [-span, span]."""
    exponents = st.tuples(*[st.integers(-span, span)] * len(ctx))
    return st.dictionaries(exponents, st.integers(-5, 5), max_size=8).map(
        lambda terms: LaurentPoly(ctx, terms)
    )


@settings(max_examples=500, deadline=None)
@given(laurent_polys(V5))
def test_parse_inverts_str(poly):
    assert LaurentPoly.parse(V5, str(poly)) == poly


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5).flatmap(lambda width: laurent_polys(VariableContext("abcde"[:width]))))
def test_canonical_terms_keep_the_order_of_the_one_sort_key(poly):
    # the order before two sorts in C replaced it: ascending degree, then descending lex
    old = sorted(poly.terms.items(), key=lambda item: (sum(item[0]), tuple(-e for e in item[0])))
    assert list(poly.canonical_terms()) == old


# up to four of the five names, in any order; the rest stay live in the target
grouped_names = st.tuples(st.permutations(V5.names), st.integers(0, 4)).map(
    lambda drawn: tuple(drawn[0][: drawn[1]])
)


@settings(max_examples=300, deadline=None)
@given(laurent_polys(V5), grouped_names)
def test_group_terms_matches_the_full_scan(poly, names):
    positions = [V5.index(name) for name in names]
    target = VariableContext(name for name in V5.names if name not in names)
    groups = poly.group_terms(names)

    members = [item for part in groups.values() for item in part.terms.items()]
    assert sorted(members) == sorted(poly.terms.items())
    for key, part in groups.items():
        assert part and all(tuple(exps[pos] for pos in positions) == key for exps in part.terms)
        assignment = dict(zip(names, key))
        assert part.extract_coefficient(assignment, target) == (
            poly.extract_coefficient(assignment, target)
        )

    if names:
        absent = (4,) * len(names)  # outside the exponent range, so no group has it
        assert absent not in groups
        assert not poly.extract_coefficient(dict(zip(names, absent)), target)


def checked(poly: LaurentPoly) -> LaurentPoly:
    """The same terms through the public constructor, which checks each one."""
    return LaurentPoly(poly.context, poly.terms)


# group_terms, extract_coefficient and refined_catalan build their results
# without the constructor's checks; each must be what the checks would pass
@settings(max_examples=100, deadline=None)
@given(laurent_polys(V5), grouped_names)
def test_trusted_restrictions_and_coefficients_pass_the_checks(poly, names):
    target = VariableContext(name for name in V5.names if name not in names)
    for key, part in poly.group_terms(names).items():
        assert part == checked(part)
        coefficient = part.extract_coefficient(dict(zip(names, key)), target)
        assert coefficient == checked(coefficient)
    whole = poly.extract_coefficient({}, V5)
    assert whole == checked(whole) == poly


@settings(max_examples=100, deadline=None)
@given(laurent_polys(V5), laurent_polys(V5))
def test_trusted_sums_negations_and_products_pass_the_checks(p, q):
    for result in (p + q, -p, p - q, p * q, p - p, p * 0):
        assert result == checked(result)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 3), min_size=1, max_size=5))
def test_trusted_path_polynomials_pass_the_checks(parts):
    poly = refined_catalan(parts)
    assert poly == checked(poly)
