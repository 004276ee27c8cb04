"""``add_terms`` against the per-term loops it replaced (``term_oracle``).

Every draw keeps exponents in [-1, 1], so distinct terms often land on the
same exponents, and coefficients often cancel there.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st
from term_oracle import _add_into
from term_oracle import gf_sum as looped_gf_sum
from term_oracle import substitute_monomials as looped_substitute

from qtcatalan.cones import RationalGF, gf_sum
from qtcatalan.polynomial import LaurentPoly, VariableContext, add_terms, substitute_monomials

XYZ = VariableContext(("x", "y", "z"))
UV = VariableContext(("u", "v"))


def exponents(ctx):
    return st.tuples(*[st.integers(-1, 1)] * len(ctx))


def polys(ctx):
    return st.dictionaries(exponents(ctx), st.integers(-3, 3), max_size=8).map(
        lambda terms: LaurentPoly(ctx, terms)
    )


pairs = st.lists(st.tuples(exponents(XYZ), st.integers(-3, 3)), max_size=20)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(exponents(XYZ), st.integers(-3, 3).filter(bool), max_size=6), pairs)
@example({(0, 0, 0): 1}, [((0, 0, 0), -1), ((1, 0, 0), 0), ((0, 0, 0), 0)])
def test_add_terms_sums_like_the_loop_and_keeps_no_zero(start, drawn):
    # the loop never met a zero coefficient, which it cannot add to a missing key
    expected = dict(start)
    for exps, coef in drawn:
        if coef:
            _add_into(expected, {exps: coef})
    out = dict(start)
    assert add_terms(out, drawn) is out
    assert out == expected
    assert 0 not in out.values()


@settings(max_examples=100, deadline=None)
@given(polys(XYZ), polys(XYZ))
def test_sums_and_products_match_the_loop(a, b):
    assert (a + b).terms == _add_into(dict(a.terms), b.terms)
    assert (a - b).terms == _add_into(dict(a.terms), b.terms, -1)
    assert not (a - a).terms
    product = {}
    for exps, coef in a.terms.items():
        _add_into(product, b.terms, coef, exps)
    assert (a * b).terms == product


images_of_xyz = st.fixed_dictionaries({name: exponents(UV) for name in XYZ.names})


@settings(max_examples=100, deadline=None)
@given(polys(XYZ), images_of_xyz)
@example(LaurentPoly.parse(XYZ, "x - y + z"), {"x": (1, 0), "y": (1, 0), "z": (0, 0)})
def test_substitution_matches_the_image_loop(poly, images):
    assert substitute_monomials(poly, UV, images) == looped_substitute(poly, UV, images)


def test_colliding_images_cancel_to_zero():
    images = {"x": (1, 1), "y": (1, 1), "z": (0, 1)}
    assert not substitute_monomials(LaurentPoly.parse(XYZ, "x - y"), UV, images)


signed_monomials = st.lists(st.tuples(st.integers(-3, 3), exponents(XYZ)), min_size=1, max_size=10)


@settings(max_examples=100, deadline=None)
@given(signed_monomials)
def test_parse_sums_like_the_loop(monomials):
    text = " ".join(
        f"{'-' if coef < 0 else '+'} {abs(coef)}*x^{a}*y^{b}*z^{c}"
        for coef, (a, b, c) in monomials
    )
    expected = {}
    for coef, exps in monomials:
        if coef:
            _add_into(expected, {exps: coef})
    assert LaurentPoly.parse(XYZ, text).terms == expected


def test_parse_drops_cancelled_terms():
    assert LaurentPoly.parse(XYZ, "x - x + y") == LaurentPoly.parse(XYZ, "y")
    assert not LaurentPoly.parse(XYZ, "x*y - y*x")


denominators = st.lists(exponents(UV).filter(any), max_size=3)
gfs = st.lists(
    st.tuples(polys(UV), denominators).map(lambda drawn: RationalGF(UV, *drawn)),
    min_size=1,
    max_size=3,
)


@settings(max_examples=100, deadline=None)
@given(gfs, st.integers(0, 3))
def test_gf_sum_matches_the_loop(drawn, negated):
    # the negated copies cancel their originals' numerators in the sum
    drawn = drawn + [-g for g in drawn[:negated]]
    assert gf_sum(drawn) == looped_gf_sum(drawn)
