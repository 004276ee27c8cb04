"""Exact multivariate Laurent polynomials over arbitrary-precision integers.

Terms are stored as a dict mapping exponent tuples (one integer per context
variable, negatives allowed) to nonzero integer coefficients.  All operations
are pure and return new objects; two polynomials interoperate only when they
share a :class:`VariableContext`.
"""

from __future__ import annotations

import operator
import re
from collections import defaultdict
from operator import add, mul
from typing import Callable, Dict, Iterable, Mapping, Sequence, Tuple, Union

from .errors import Frozen, UsageError, _integer, _integers

Exponents = Tuple[int, ...]

_NAME = re.compile(r"[A-Za-z][A-Za-z0-9]*")  # a variable name, as the parser reads it


class VariableContext(Frozen):
    """An ordered tuple of distinct variable names with stable indices."""

    __slots__ = _fields = ("names",)
    names: Tuple[str, ...]

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if not names:
            raise UsageError("variable context needs at least one name")
        if not all(isinstance(name, str) and _NAME.fullmatch(name) for name in names):
            raise UsageError(f"variable names must be a letter, then letters and digits: {names}")
        if len(set(names)) != len(names):
            raise UsageError(f"duplicate variable names in {names}")
        self._set(names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise UsageError(f"unknown variable {name!r}; context has {self.names}") from None

    def __contains__(self, name: str) -> bool:
        return name in self.names

    def __len__(self) -> int:
        return len(self.names)

    def __repr__(self) -> str:
        return f"VariableContext({', '.join(self.names)})"

    def monomial(self, **exponents: int) -> Exponents:
        """Exponent vector with the named entries set and all others zero."""
        vec = [0] * len(self.names)
        for name, e in exponents.items():
            vec[self.index(name)] = _integer(e, f"exponent of {name}")
        return tuple(vec)


def add_terms(
    out: Dict[Exponents, int], pairs: Iterable[Tuple[Exponents, int]]
) -> Dict[Exponents, int]:
    """Add each (exponents, coefficient) pair into ``out``, drop zero sums, return ``out``."""
    for exps, coef in pairs:
        value = out.get(exps, 0) + coef
        if value:
            out[exps] = value
        else:
            out.pop(exps, None)
    return out


def _picker(positions: Sequence[int]) -> Callable[[Exponents], Exponents]:
    """The function that reads an exponent tuple's entries at `positions`."""
    if len(positions) == 1:
        (pos,) = positions
        return lambda exps: (exps[pos],)
    # itemgetter needs an index, and returns a bare entry for one index
    return operator.itemgetter(*positions) if positions else lambda exps: ()


def _require_same_context(a: "LaurentPoly", b: "LaurentPoly") -> None:
    if a.context != b.context:
        raise UsageError(f"context mismatch: {a.context} vs {b.context}")


class LaurentPoly(Frozen):
    """Immutable Laurent polynomial with integer coefficients."""

    __slots__ = _fields = ("context", "terms")
    context: VariableContext
    terms: Dict[Exponents, int]

    def __init__(self, context: VariableContext, terms: Mapping[Exponents, int]):
        clean: Dict[Exponents, int] = {}
        width = len(context)
        for exps, coef in terms.items():
            exps = _integers(exps, "exponents")
            if len(exps) != width:
                raise UsageError(f"exponent vector {exps} has wrong length for {context}")
            coef = _integer(coef, "coefficient")
            if coef:
                clean[exps] = coef
        self._set(context, clean)

    # -- constructors ------------------------------------------------------

    @classmethod
    def _trusted(cls, context: VariableContext, terms: Dict[Exponents, int]) -> "LaurentPoly":
        """A polynomial of terms the package built itself, taken without a check.

        The caller guarantees what ``__init__`` would check: tuple keys of the
        context's width and nonzero integer coefficients.  ``terms`` is kept,
        not copied.
        """
        poly = object.__new__(cls)
        poly._set(context, terms)
        return poly

    @classmethod
    def zero(cls, context: VariableContext) -> "LaurentPoly":
        return cls(context, {})

    @classmethod
    def monomial(cls, context: VariableContext, exps: Sequence[int], coef: int = 1) -> "LaurentPoly":
        return cls(context, {tuple(exps): coef})

    # -- ring structure ----------------------------------------------------
    #
    # Sums, negations and products of checked terms pass the constructor's
    # checks, so they are built trusted; a product by an int may make zero
    # coefficients, so it goes through the checks.

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        _require_same_context(self, other)
        return LaurentPoly._trusted(self.context, add_terms(dict(self.terms), other.terms.items()))

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._trusted(self.context, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other) if isinstance(other, LaurentPoly) else NotImplemented

    def __mul__(self, other: Union["LaurentPoly", int]) -> "LaurentPoly":
        if isinstance(other, int):
            return LaurentPoly(self.context, {e: c * other for e, c in self.terms.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        _require_same_context(self, other)
        products = (
            (tuple(map(add, e1, e2)), c1 * c2)
            for e1, c1 in self.terms.items()
            for e2, c2 in other.terms.items()
        )
        return LaurentPoly._trusted(self.context, add_terms({}, products))

    __rmul__ = __mul__  # reached only by an int or a foreign operand

    def __hash__(self) -> int:
        return hash((self.context, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- queries -----------------------------------------------------------

    def group_terms(self, names: Sequence[str]) -> Dict[Exponents, "LaurentPoly"]:
        """The polynomial split by its exponents of `names`: each key's part is
        the sum of the terms with those exponents, all built in one pass."""
        key = _picker([self.context.index(name) for name in names])
        groups: Dict[Exponents, Dict[Exponents, int]] = defaultdict(dict)
        for exps, coef in self.terms.items():
            groups[key(exps)][exps] = coef
        return {k: LaurentPoly._trusted(self.context, terms) for k, terms in groups.items()}

    def extract_coefficient(
        self, assignment: Mapping[str, int], target: VariableContext
    ) -> "LaurentPoly":
        """Coefficient of the given variable powers, in the leftover variables.

        Keeps the terms whose exponents match `assignment` exactly and maps
        each surviving term onto `target` by variable name; every variable
        neither assigned nor present in `target` must have exponent zero.  An
        assigned exponent that is not an integer is a DomainError.
        """
        ctx = self.context
        fixed = {ctx.index(name): _integer(e, f"exponent of {name}") for name, e in assignment.items()}
        # worked out once per call: the positions that must hold a set
        # exponent (the assigned ones, and every one `target` lacks, at 0),
        # and the source position each target position reads; position
        # len(ctx) is a zero appended to the exponents, read by a target
        # variable that the source lacks or that is assigned
        checked = [pos for pos, name in enumerate(ctx.names) if pos in fixed or name not in target]
        values = tuple(fixed.get(pos, 0) for pos in checked)
        check = _picker(checked)
        move = _picker([
            ctx.index(name) if name in ctx and name not in assignment else len(ctx)
            for name in target.names
        ])
        out: Dict[Exponents, int] = {}
        for exps, coef in self.terms.items():
            padded = exps + (0,)
            if check(padded) == values:
                out[move(padded)] = coef
        # the moved tuples have target's width and are distinct: the terms that
        # pass agree on every position `move` drops
        return LaurentPoly._trusted(target, out)

    # -- canonical ordering and rendering -----------------------------------

    def canonical_terms(self) -> Iterable[Tuple[Exponents, int]]:
        """Terms ordered by ascending total degree, then descending lex."""
        # two sorts in C: the keys are distinct and of one width, and the second is stable
        keys = sorted(self.terms, reverse=True)
        keys.sort(key=sum)
        return [(exps, self.terms[exps]) for exps in keys]

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for exps, coef in self.canonical_terms():
            factors = []
            for name, e in zip(self.context.names, exps):
                if e == 0:
                    continue
                factors.append(name if e == 1 else f"{name}^{e}")
            magnitude = abs(coef)
            if magnitude != 1 or not factors:
                factors.insert(0, str(magnitude))
            body = "*".join(factors)
            if not chunks:
                chunks.append(body if coef > 0 else f"-{body}")
            else:
                chunks.append(f"+ {body}" if coef > 0 else f"- {body}")
        return " ".join(chunks)

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"

    # -- parsing -------------------------------------------------------------

    _FACTOR_RE = re.compile(rf"^({_NAME.pattern})(?:\^(-?\d+))?$")

    @classmethod
    def parse(cls, context: VariableContext, text: str) -> "LaurentPoly":
        """Parse the canonical string syntax, e.g. ``"q^3 + 2*q*t - t^-1"``.

        Accepts sums of ``[int*]name[^int]`` products joined by + and -.
        """
        pairs = []
        stripped = text.replace("−", "-").strip()
        if not stripped:
            raise UsageError("empty polynomial string")
        pieces = re.split(r"(?=[+-])(?<![\^*])", stripped)
        for piece in pieces:
            piece = piece.strip()
            if not piece:
                continue
            sign = 1
            if piece[0] in "+-":
                sign = -1 if piece[0] == "-" else 1
                piece = piece[1:].strip()
            if not piece:
                raise UsageError(f"dangling sign in {text!r}")
            coef = sign
            vec = [0] * len(context)
            for factor in piece.split("*"):
                factor = factor.strip()
                if not factor:
                    raise UsageError(f"empty factor in {text!r}")
                number, match = re.fullmatch(r"-?\d+", factor), cls._FACTOR_RE.match(factor)
                if not (number or match):
                    raise UsageError(f"cannot parse factor {factor!r}")
                try:  # int() refuses a number past the interpreter's digit limit
                    value = int(factor if number else match.group(2) or 1)
                except ValueError as exc:
                    raise UsageError(f"bad factor {factor!r} ({exc})") from None
                if number:
                    coef *= value
                else:
                    vec[context.index(match.group(1))] += value
            pairs.append((tuple(vec), coef))
        return cls(context, add_terms({}, pairs))


def monomial_image(
    source: VariableContext,
    target: VariableContext,
    images: Mapping[str, Sequence[int]],
) -> Callable[[Exponents], Exponents]:
    """The map of exponent tuples that sends each variable of ``source`` to its
    image, an exponent vector in ``target``; exponents combine additively."""
    table = []
    for name in source.names:
        if name not in images:
            raise UsageError(f"no image given for variable {name!r}")
        image = tuple(images[name])
        if len(image) != len(target):
            raise UsageError(f"image for {name!r} has wrong length for {target}")
        table.append(image)
    # a term's image exponent is one dot product per target variable
    columns = list(zip(*table))
    return lambda exps: tuple(sum(map(mul, exps, column)) for column in columns)


def substitute_monomials(
    poly: LaurentPoly,
    target: VariableContext,
    images: Mapping[str, Sequence[int]],
) -> LaurentPoly:
    """Multiplicative substitution: each source variable maps to a monomial.

    `images` assigns every variable of ``poly.context`` an exponent vector in
    ``target``.  Exponents combine additively, so this is a ring homomorphism.
    """
    image = monomial_image(poly.context, target, images)
    return LaurentPoly(target, add_terms({}, ((image(e), c) for e, c in poly.terms.items())))


def qt_images(context: VariableContext) -> Dict[str, Exponents]:
    """The q <-> t exchange as each variable's image; other variables are fixed."""
    if "q" not in context or "t" not in context:
        raise UsageError("context must contain both q and t")
    swap = {"q": "t", "t": "q"}
    return {name: context.monomial(**{swap.get(name, name): 1}) for name in context.names}


def qt_swap(poly: LaurentPoly) -> LaurentPoly:
    """Exchange the exponents of q and t in every term."""
    return substitute_monomials(poly, poly.context, qt_images(poly.context))


def is_qt_symmetric(poly: LaurentPoly) -> bool:
    return poly == qt_swap(poly)


def coefficient_grid(poly: LaurentPoly) -> list:
    """Matrix of coefficients: ``grid[i][j]`` is the coefficient of q^i t^j.

    Requires a polynomial with nonnegative exponents in which only q and t
    occur; any other live variable is an error.
    """
    ctx = poly.context
    qi, ti = ctx.index("q"), ctx.index("t")
    max_q = max_t = 0
    for exps, _ in poly.terms.items():
        for pos, e in enumerate(exps):
            if pos in (qi, ti):
                if e < 0:
                    raise UsageError("grid requires nonnegative exponents")
            elif e != 0:
                name = ctx.names[pos]
                raise UsageError(f"grid requires a q,t-polynomial; found live {name!r}")
        max_q = max(max_q, exps[qi])
        max_t = max(max_t, exps[ti])
    grid = [[0] * (max_t + 1) for _ in range(max_q + 1)]
    for exps, coef in poly.terms.items():
        grid[exps[qi]][exps[ti]] = coef
    return grid


QT_CONTEXT = VariableContext(("q", "t"))
