"""The constraint builders of ``catalog`` as they were before their integer
fast path, kept as a test oracle: every input goes through ``Fraction``.

The code is unchanged; the tests compare the fast path with it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Tuple

from qtcatalan.catalog import Constraint


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
