"""``replace``: a frozen value with some fields changed, checked again.

No library code edits a value after it is built, so only the tests, which
make mutants of the catalogs' cases, need this.
"""

from qtcatalan.errors import Frozen


def replace(value: Frozen, **changes):
    """A new value with ``changes`` to some fields, checked again by ``__init__``;
    a name that is not a field is a TypeError."""
    return type(value)(**dict(zip(value._fields, value._values()), **changes))
