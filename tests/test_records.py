"""The package's records behave as frozen values.

Plain records are ``NamedTuple``s; validated value types, ``lattice.DiagonalForm``,
``polynomial.VariableContext`` and ``polynomial.LaurentPoly`` among them, share
``errors.Frozen``.
Each compares and hashes by its fields, keeps the repr text below, refuses
assignment, and the validated ones refuse invalid input with the errors below.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from qtcatalan.catalog import CaseSpec, Constraint, case_catalog
from qtcatalan.cones import HalfOpenCone, RationalGF
from qtcatalan.errors import DomainError, UsageError
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
        (lambda: CaseSpec("c", "k4", (Constraint((("k", 1),), 0),),
                          RationalGF(KABC, LaurentPoly(KABC, {(0, 0, 0, 0): -1}), [(1, 0, 2, 0)]),
                          ("b", "even")),
         "CaseSpec(case_id='c', family='k4', region=(Constraint(coeffs=(('k', 1),), const=0),), "
         "piece=RationalGF(context=VariableContext(k, a, b, c), numerator=LaurentPoly(-1), "
         "denominator=((1, 0, 2, 0),)), parity=('b', 'even'))"),
        (lambda: Constraint((("a", -2), ("k", 1)), 3), "Constraint(coeffs=(('a', -2), ('k', 1)), const=3)"),
        (lambda: symmetry_report((1, 2, 3, 1)),
         "SymmetryReport(subject=(1, 2, 3, 1), symmetric=False, witness=((3, 4), 1, 2))"),
        (lambda: TheoremReport("three", 3, True, True, False),
         "TheoremReport(family='three', bound=3, formula_match=True, series_match=True, symmetric=False)"),
        (lambda: FamilyInfo("f", ("k",), KQT, KQT, max, range, len, tuple, list),
         "FamilyInfo(name='f', coords=('k',), out_ctx=VariableContext(k, q, t), "
         "theorem_ctx=VariableContext(k, q, t), stats=<built-in function max>, sizes=<class 'range'>, "
         "size_count=<built-in function len>, kvector=<class 'tuple'>, coords_of=<class 'list'>)"),
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
    assert Constraint((("k", 1),), 0) == ((("k", 1),), 0)
    assert KVector((1, 2)) != (1, 2) and KVector((1, 2)) != ((1, 2),)
    form = diagonal_form(((2, 0), (0, 3)))
    assert form != (form.factors, form.left, form.right)


def test_a_replaced_case_is_checked_again_and_keeps_no_cached_member():
    spec = case_catalog("k4")[0]
    kernel, piece = spec.membership_kernel, spec.checked_piece
    flipped = spec._replace(piece=-spec.piece)
    assert flipped.piece == -spec.piece and flipped.case_id == spec.case_id
    assert flipped != spec and flipped._replace(piece=spec.piece) == spec
    assert "membership_kernel" not in vars(flipped) and spec.membership_kernel is kernel
    assert "checked_piece" not in vars(flipped) and spec.checked_piece is piece
    with pytest.raises(TypeError):
        spec._replace(colour="red")


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
