"""The paper's closed form for four equal runs, kept as a test oracle.

The package reads the statistics of ``(k, k, k, k)`` from
``families.stats_kaaa`` at m = 0; this is the separate transcription of the
four-equal-runs case that the tests check against it and against the bounce
pass ``paths.path_stats``.
"""

from __future__ import annotations

from typing import Tuple

from qtcatalan.errors import DomainError


def _ceil_div(a: int, b: int) -> int:
    """The least integer at or above ``a / b``, for ``b > 0``."""
    return (a + b - 1) // b


def stats_k4(k: int, a: int, b: int, c: int) -> Tuple[int, int]:
    """Area and bounce for four equal runs of length k.

    The coordinates relate to ranks by ``r2 = k - a``, ``r3 = 2k - a - b``,
    ``r4 = 3k - a - b - c``.
    """
    if not (0 <= a <= k):
        raise DomainError(f"need 0 <= a <= k, got a={a}, k={k}")
    if not (0 <= b <= 2 * k - a):
        raise DomainError(f"need 0 <= b <= 2k - a, got b={b}")
    if not (0 <= c <= 3 * k - a - b):
        raise DomainError(f"need 0 <= c <= 3k - a - b, got c={c}")
    area = 6 * k - 3 * a - 2 * b - c
    if b >= 2 * k - 2 * a:
        if c >= 4 * k - 2 * a - 2 * b:
            bounce = 6 * a + 3 * b + c - 4 * k
        else:
            bounce = 5 * a + 2 * b + _ceil_div(c, 2) - 2 * k
    elif b % 2 == 0:
        if 2 * c >= 6 * k - 2 * a - 3 * b:
            bounce = 4 * a + 2 * b + c - 2 * k
        elif 2 * c >= 6 * k - 6 * a - 3 * b:
            bounce = 2 * a + b // 2 + k + _ceil_div(6 * a + 3 * b + 2 * c - 6 * k, 4)
        else:
            bounce = 3 * a + b + _ceil_div(c, 3)
    else:
        half = 3 * (b + 1) // 2
        if c >= 3 * k - a - half + 1:
            bounce = 4 * a + 2 * b + c - 2 * k + 1
        elif c >= 3 * k - 3 * a - half + 1:
            bounce = 2 * a + (b + 1) // 2 + k + _ceil_div(3 * a + half + c - 3 * k - 1, 2)
        else:
            bounce = 3 * a + b + 1 + _ceil_div(c - 1, 3)
    return area, bounce
