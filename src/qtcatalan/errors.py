"""Exception types shared across the package.

The split mirrors the three failure modes a caller can meaningfully react
to: bad input (`UsageError`), input outside a formula's region of validity
(`DomainError`), and broken internal invariants (`InternalInvariantError`,
which always indicates a bug rather than bad data).  Both routes read
integers through :func:`_integer` and :func:`_integers`, which raise the `DomainError`.
"""

import operator
from typing import Sequence, Tuple


class UsageError(ValueError):
    """Malformed input: context mismatch, missing substitution, bad file."""


class DomainError(ValueError):
    """Structurally valid input outside the operation's domain."""


class DegenerateSubstitutionError(UsageError):
    """A substitution collapsed a denominator factor to (1 - 1)."""


class NonExpandableError(UsageError):
    """Series expansion requested with a zero-weight denominator factor."""


class InternalInvariantError(RuntimeError):
    """An internal consistency check failed; this is a bug, not bad input."""


def _integer(value: int, what: str) -> int:
    """``value`` as an int; anything that is not an integer is a DomainError."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{what} must be an integer, got {value!r}") from None


def _integers(values: Sequence[int], what: str) -> Tuple[int, ...]:
    """``values`` as a tuple of ints; anything that is not an integer is a DomainError."""
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        raise DomainError(f"{what} must be a sequence of integers, got {values!r}") from None
