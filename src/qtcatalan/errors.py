"""Exception types shared across the package.

The split mirrors the three failure modes a caller can meaningfully react
to: bad input (`UsageError`), input outside a formula's region of validity
(`DomainError`), and broken internal invariants (`InternalInvariantError`,
which always indicates a bug rather than bad data).  Both routes read
integers through :func:`_integer` and :func:`_integers`, which raise the `DomainError`.
The value types of both routes share :class:`Frozen`, which this
leaf module holds so that the path route needs nothing else.
"""

import operator
from typing import Callable, Sequence, Tuple


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


class Frozen:
    """An immutable value: ``__init__`` sets the fields named in ``_fields``, each a
    slot, through :meth:`_set`, and equality, hash and repr read them in order."""

    __slots__ = ()
    _fields: Tuple[str, ...] = ()
    _setters: Tuple[Callable[[object, object], None], ...] = ()

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        # each field's slot setter, found once, past the refusing __setattr__
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls._fields)

    def _set(self, *values: object) -> None:
        """Set the fields to ``values`` in ``_fields`` order, past the refusing ``__setattr__``."""
        if len(values) != len(self._setters):
            raise ValueError(f"{type(self).__name__} has {len(self._setters)} fields, got {len(values)} values")
        for set_field, value in zip(self._setters, values):
            set_field(self, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy and pickle rebuild a value through __init__
        return type(self), self._values()
