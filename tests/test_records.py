"""The package's records behave as frozen values.

Plain records are ``NamedTuple``s; validated value types, ``lattice.DiagonalForm``,
``polynomial.VariableContext`` and ``polynomial.LaurentPoly`` among them, share
``errors.Frozen``.
Each compares and hashes by its fields, keeps the repr text below, refuses
assignment, and the validated ones refuse invalid input with the errors below.
"""

import copy
import importlib
import pickle
from fractions import Fraction
from pathlib import Path

import pytest
from frozen_replace import replace
from hypothesis import given, settings
from hypothesis import strategies as st

import qtcatalan
from qtcatalan.catalog import CaseSpec, _piece, case_catalog
from qtcatalan.cones import HalfOpenCone, RationalGF
from qtcatalan.errors import DomainError, Frozen, InternalInvariantError, UsageError
from qtcatalan.families import FamilyInfo
from qtcatalan.lattice import DiagonalForm, diagonal_form
from qtcatalan.oracles import symmetry_report
from qtcatalan.paths import DyckPath, KVector
from qtcatalan.polynomial import LaurentPoly, VariableContext
from qtcatalan.verify import TheoremReport

XY = VariableContext(("x", "y"))
KQT = VariableContext(("k", "q", "t"))
KABC = VariableContext(("k", "a", "b", "c"))


def _records():
    """``(make, repr)``: ``make()`` builds a fresh record equal to every other it builds."""
    cone = lambda: HalfOpenCone(2, (Fraction(1, 2), 0), ((1, 0), (1, 2)), (True, False))
    return [
        (lambda: KVector((1, 2)), "KVector(parts=(1, 2))"),
        (lambda: DyckPath(KVector((1, 2)), (0, 1)),
         "DyckPath(kvec=KVector(parts=(1, 2)), ranks=(0, 1))"),
        (cone,
         "HalfOpenCone(dim=2, apex=(Fraction(1, 2), Fraction(0, 1)), generators=((1, 0), (1, 2)), "
         "open_flags=(True, False))"),
        (lambda: RationalGF(XY, LaurentPoly(XY, {(1, 0): 2}), [(0, 1)]),
         "RationalGF(context=VariableContext(x, y), numerator=LaurentPoly(2*x), denominator=((0, 1),))"),
        (lambda: LaurentPoly(XY, {(1, 0): 2}), "LaurentPoly(2*x)"),
        (lambda: DiagonalForm((2, 3), ((1, 0), (0, 1)), ((1, 0), (0, 1))),
         "DiagonalForm(factors=(2, 3), left=((1, 0), (0, 1)), right=((1, 0), (0, 1)))"),
        (lambda: VariableContext(("x", "y")), "VariableContext(x, y)"),
        (lambda: CaseSpec("c", "k4", ((0, (1, 0, 0, 0)),),
                          RationalGF(KABC, LaurentPoly(KABC, {(0, 0, 0, 0): -1}), [(1, 0, 2, 0)]),
                          (2, 0)),
         "CaseSpec(case_id='c', family='k4', region=((0, (1, 0, 0, 0)),), "
         "piece=RationalGF(context=VariableContext(k, a, b, c), numerator=LaurentPoly(-1), "
         "denominator=((1, 0, 2, 0),)), parity=(2, 0))"),
        (lambda: symmetry_report((1, 2, 3, 1)),
         "SymmetryReport(subject=(1, 2, 3, 1), symmetric=False, witness=((3, 4), 1, 2))"),
        (lambda: TheoremReport("three", 3, True, True, False),
         "TheoremReport(family='three', bound=3, formula_match=True, series_match=True, symmetric=False)"),
        (lambda: FamilyInfo("f", ("k",), KQT, KQT, max, range, len, tuple),
         "FamilyInfo(name='f', coords=('k',), out_ctx=VariableContext(k, q, t), "
         "theorem_ctx=VariableContext(k, q, t), stats=<built-in function max>, sizes=<class 'range'>, "
         "size_count=<built-in function len>, kvector=<class 'tuple'>)"),
    ]


RECORDS = _records()
IDS = [text.split("(")[0] for _, text in RECORDS]


@pytest.mark.parametrize("make, text", RECORDS, ids=IDS)
def test_equal_values_are_equal_with_equal_hashes(make, text):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("make, text", RECORDS, ids=IDS)
def test_repr_is_the_field_list(make, text):
    assert repr(make()) == text


@pytest.mark.parametrize("make, text", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(make, text):
    record = make()
    field = record._fields[0]
    before = repr(record)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert repr(record) == before


@pytest.mark.parametrize("make, text", RECORDS, ids=IDS)
def test_records_copy_and_pickle_as_values(make, text):
    record = make()
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record
    if not text.startswith("FamilyInfo"):  # it holds functions
        assert pickle.loads(pickle.dumps(record)) == record


def test_different_values_differ_and_only_plain_records_equal_their_tuples():
    assert KVector((1, 2)) != KVector((2, 1))
    assert DyckPath((1, 2), (0, 0)) != DyckPath((1, 2), (0, 1))
    # a named tuple is a tuple; a value type equals no other type
    assert TheoremReport("three", 3, True, True, False) == ("three", 3, True, True, False)
    assert KVector((1, 2)) != (1, 2) and KVector((1, 2)) != ((1, 2),)
    form = diagonal_form(((2, 0), (0, 3)))
    assert form != (form.factors, form.left, form.right)


def test_every_frozen_value_class_has_a_record():
    """So that no value class skips the equality, repr, assignment and pickle tests."""
    for path in Path(qtcatalan.__file__).parent.glob("*.py"):
        importlib.import_module(f"qtcatalan.{path.stem}" if path.stem != "__init__" else "qtcatalan")
    classes, todo = set(), [Frozen]
    while todo:
        for cls in todo.pop().__subclasses__():
            if cls.__module__.startswith("qtcatalan."):
                classes.add(cls)
                todo.append(cls)
    assert len(classes) >= 8  # the search sees at least the eight value classes of today
    assert classes <= {type(make()) for make, _ in RECORDS}


def test_a_replaced_case_is_checked_again_and_keeps_no_cached_member():
    spec = case_catalog("k4")[0]
    kernel = spec.membership_kernel
    flipped = replace(spec, piece=-spec.piece)
    assert flipped.piece == -spec.piece and flipped.case_id == spec.case_id
    assert flipped != spec and replace(flipped, piece=spec.piece) == spec
    assert "membership_kernel" not in vars(flipped) and spec.membership_kernel is kernel
    with pytest.raises(UsageError):
        replace(spec, family="kaaa")
    with pytest.raises(TypeError):
        replace(spec, colour="red")


@pytest.mark.parametrize("make", [make for make, _ in RECORDS if isinstance(make(), Frozen)])
def test_setting_the_wrong_number_of_fields_raises(make):
    value = make()
    fields = value._values()
    for wrong in (fields[:-1], fields + (None,)):
        with pytest.raises(ValueError, match=f"has {len(fields)} fields, got {len(wrong)} values"):
            object.__new__(type(value))._set(*wrong)


def test_the_cached_inverse_is_not_a_field():
    form = diagonal_form(((2, 0), (0, 3)))
    fresh = DiagonalForm(form.factors, form.left, form.right)
    assert form.inverse.lcm == 6
    assert form == fresh and hash(form) == hash(fresh)
    assert repr(form) == repr(fresh)


XY_POLY = LaurentPoly(XY, {(1, 0): 1})

INVALID = [
    (lambda: KVector(()), DomainError, "run-length vector must be nonempty"),
    (lambda: KVector((1, 0, 2)), DomainError, "run lengths must be positive, got (1, 0, 2)"),
    (lambda: KVector((1, 1.5)), DomainError, "run lengths must be a sequence of integers, got (1, 1.5)"),
    (lambda: KVector(None), DomainError, "run lengths must be a sequence of integers, got None"),
    (lambda: DyckPath(KVector((1, 2)), (0,)), DomainError, "need 2 ranks, got 1"),
    (lambda: DyckPath(KVector((1, 2)), (1, 0)), DomainError, "first rank must be 0"),
    (lambda: DyckPath(KVector((1, 2)), (0, 2)), DomainError,
     "rank sequence (0, 2) invalid for runs (1, 2) at position 1"),
    (lambda: DyckPath((1, 2), (0, -1)), DomainError,
     "rank sequence (0, -1) invalid for runs (1, 2) at position 1"),
    (lambda: DyckPath((1, 2), (0, 0.5)), DomainError, "ranks must be a sequence of integers, got (0, 0.5)"),
    (lambda: DyckPath((0, 2), (0, 0)), DomainError, "run lengths must be positive, got (0, 2)"),
    (lambda: HalfOpenCone(1.5, (0,), ((1,),)), DomainError, "cone dimension must be an integer, got 1.5"),
    (lambda: HalfOpenCone(1, (0.5,), ((1,),)), DomainError,
     "apex entries must be integers or fractions, got (0.5,)"),
    (lambda: HalfOpenCone(1, (0,), ((1.5,),)), DomainError,
     "cone generators must be a sequence of integers, got (1.5,)"),
    (lambda: HalfOpenCone(1, (0,), ((1,),), (1,)), DomainError, "open flags must be bools, got (1,)"),
    (lambda: HalfOpenCone(2, (0,), ((1, 0),)), UsageError, "apex has length 1, expected 2"),
    (lambda: HalfOpenCone(2, (0, 0), ((1, 0, 0),)), UsageError, "generator length does not match dimension"),
    (lambda: HalfOpenCone(2, (0, 0), ((1, 0),), (True, False)), UsageError,
     "need one open flag per generator"),
    (lambda: HalfOpenCone(2, (0, 0), ()), UsageError, "cone needs at least one generator"),
    (lambda: HalfOpenCone(2, (0, Fraction(1, 3)), ((1, 2), (2, 4))), UsageError,
     "generators ((1, 2), (2, 4)) are not linearly independent"),
    (lambda: RationalGF(XY, LaurentPoly(VariableContext(("z",)), {(1,): 1}), [(1, 0)]), UsageError,
     "numerator context does not match the GF context"),
    (lambda: RationalGF(XY, XY_POLY, [(0, 0)]), UsageError, "denominator factor (1 - z^0) is zero"),
    (lambda: RationalGF(XY, XY_POLY, [(1,)]), UsageError, "denominator monomial length does not match context"),
    (lambda: RationalGF(XY, XY_POLY, [(1, 0.5)]), DomainError,
     "denominator monomials must be a sequence of integers, got (1, 0.5)"),
]


@pytest.mark.parametrize("make, error, message", INVALID, ids=[m for _, _, m in INVALID])
def test_value_types_refuse_invalid_input_as_before(make, error, message):
    with pytest.raises(Exception) as info:
        make()
    assert type(info.value) is error
    assert str(info.value) == message


WRONG = (0.5, Fraction(1, 2), "1", "b", None)  # each is no integer


def _spoil(values, i, value):
    return (*values[:i], value, *values[i + 1:])


@st.composite
def spoiled_values(draw):
    """``(constructor, arguments)``: valid arguments of a validated value type
    with one number or name replaced by a wrong one, or one row or exponent
    vector of the wrong width."""
    kind = draw(st.sampled_from(["context", "poly", "case"]))
    if kind == "context":
        names = ("q", "t", "x1")
        wrong = draw(st.sampled_from((0.5, Fraction(1, 2), 1, None, "x y", "1x", "", "q^2", "é")))
        return VariableContext, (_spoil(names, draw(st.integers(0, 2)), wrong),)
    if kind == "poly":
        exps, coef = draw(st.tuples(*[st.integers(-3, 3)] * 3)), draw(st.integers(1, 5))
        where = draw(st.sampled_from(["exponent", "coefficient", "width"]))
        if where == "exponent":
            exps = _spoil(exps, draw(st.integers(0, 2)), draw(st.sampled_from(WRONG)))
        elif where == "coefficient":
            coef = draw(st.sampled_from(WRONG))
        else:
            exps = exps[:-1] if draw(st.booleans()) else (*exps, 0)
        return LaurentPoly, (KQT, {(0, 0, 0): 1, exps: coef})
    region = [draw(st.tuples(st.integers(-3, 3), st.tuples(*[st.integers(-3, 3)] * 4))) for _ in range(2)]
    args = ["c", "k4", region, _piece("k4", {(0, 0, 0, 0): -1}, [(1, 0, 2, 0)]), (2, 0)]
    where = draw(st.sampled_from(["family", "const", "coefficient", "width", "parity", "piece"]))
    i = draw(st.integers(0, 1))
    if where == "family":
        args[1] = draw(st.sampled_from((*WRONG, "nope", "K4")))
    elif where == "const":
        region[i] = (draw(st.sampled_from(WRONG)), region[i][1])
    elif where == "coefficient":
        region[i] = (region[i][0], _spoil(region[i][1], draw(st.integers(0, 3)), draw(st.sampled_from(WRONG))))
    elif where == "width":
        coeffs = region[i][1]
        region[i] = (region[i][0], coeffs[:-1] if draw(st.booleans()) else (*coeffs, 0))
    elif where == "parity":
        out_of_range = (-1, 4) if i == 0 else (-1, 2)  # a coordinate index, then a residue
        args[4] = _spoil(args[4], i, draw(st.sampled_from((*WRONG, *out_of_range))))
    else:
        args[3] = draw(st.sampled_from((
            _piece("kaaa", {(0,) * 5: 1}, [(1, 0, 0, 0, 0)]),  # another family's variables
            _piece("k4", {(0, 0, 1, 0): 1}, [(1, 0, 2, 0)]),  # a base odd in b
            _piece("k4", {(0, 0, 0, 0): 1}, [(1, 0, 1, 0)]),  # a generator odd in b
            LaurentPoly(KABC, {(0, 0, 0, 0): 1}),  # no generating function
        )))
    return CaseSpec, tuple(args)


@settings(max_examples=300, deadline=None)
@given(spoiled_values())
def test_a_wrong_number_or_name_is_refused_with_the_package_s_errors(drawn):
    """Any other exception fails the test, and so does building the value."""
    make, args = drawn
    with pytest.raises((UsageError, DomainError, InternalInvariantError)):
        make(*args)
