"""The constraint builders of ``catalog`` as they were before their integer
fast path, kept as a test oracle: every input goes through ``Fraction``.

The three functions are unchanged and make named constraints, as the catalog
once stored them; :func:`densified` gives each the catalog's signature, family
first and dense rows out, so the tests can compare the fast path with it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Tuple

from qtcatalan.families import FAMILIES


class Constraint(NamedTuple):
    """Integer inequality ``const + sum coeff * coordinate >= 0``."""

    coeffs: Tuple[Tuple[str, int], ...]
    const: int


def _ge(const=0, **coeffs) -> Constraint:
    """``const + sum coeff * coordinate >= 0``, times the lcm of its denominators."""
    const = Fraction(const)
    coeffs = {name: Fraction(c) for name, c in coeffs.items() if c}
    scale = math.lcm(const.denominator, *(c.denominator for c in coeffs.values()))
    return Constraint(
        tuple(sorted((name, int(c * scale)) for name, c in coeffs.items())), int(const * scale)
    )


def _gt(const=0, **coeffs) -> Constraint:
    """``... > 0``: the scaled value is an integer on integer points, so ``>= 1``."""
    ge = _ge(const, **coeffs)
    return Constraint(ge.coeffs, ge.const - 1)


def _eq(const=0, **coeffs) -> Tuple[Constraint, Constraint]:
    """``... == 0`` as the two opposite inequalities."""
    return _ge(const, **coeffs), _ge(-const, **{name: -c for name, c in coeffs.items()})


def dense(family: str, built):
    """A constraint, or a tuple of them, as rows ``(const, coefficient per coordinate)``."""
    if isinstance(built, Constraint):
        coeffs = dict(built.coeffs)
        return built.const, tuple(coeffs.get(name, 0) for name in FAMILIES[family].coords)
    return tuple(dense(family, c) for c in built)


def densified(name: str):
    """The function ``name`` (``"_ge"``, ``"_gt"`` or ``"_eq"``) with the catalog's
    signature: the family first, dense rows out."""
    build = globals()[name]
    return lambda family, /, *args, **coeffs: dense(family, build(*args, **coeffs))
