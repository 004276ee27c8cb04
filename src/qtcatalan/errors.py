"""Exception types shared across the package.

The split mirrors the three failure modes a caller can meaningfully react
to: bad input (`UsageError`), input outside a formula's region of validity
(`DomainError`), and broken internal invariants (`InternalInvariantError`,
which always indicates a bug rather than bad data).
"""


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
