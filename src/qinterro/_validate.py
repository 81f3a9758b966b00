"""Domain checks shared by every public entry point.

Each scalar helper returns the value as a float (whole: as an int) or raises
DomainError with a "<name> must be ..." message; each() applies one of them
to every value of an array. They stay plain functions that build the
message only on failure, because the bench calls them for every grid point.
"""
from __future__ import annotations

import math

from .exceptions import DomainError


def finite(name: str, x) -> float:
    """x as a float; rejects nan and +-inf."""
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"{name} must be finite, got {x}")
    return x


def unit_interval(name: str, x) -> float:
    """x as a float in [0, 1]; nan and inf fail the comparison."""
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"{name} must be in [0, 1], got {x}")
    return x


def non_negative(name: str, x) -> float:
    """x as a finite float >= 0."""
    x = float(x)
    if not 0.0 <= x < math.inf:
        raise DomainError(f"{name} must be >= 0, got {x}")
    return x


def below_one(name: str, x) -> float:
    """x in [0, 1); nan and inf fail the comparison, and x is named as given."""
    if not 0.0 <= x < 1.0:
        raise DomainError(f"{name} must be in [0, 1), got {x}")
    return float(x)


def whole(name: str, x, lo: int = 0, hi: float = math.inf) -> int:
    """x as an int in [lo, hi); a fraction, nan or inf is refused, never truncated."""
    try:
        n = int(x)
    except (TypeError, ValueError, OverflowError):  # not a number, nan, inf
        n = None
    if n is None or n != x or not lo <= n < hi:
        span = f">= {lo}" if hi == math.inf else f"in [{lo}, {hi})"
        raise DomainError(f"{name} must be an integer {span}, got {x}")
    return n


def each(rule, name: str, values) -> None:
    """Check every value of the ndarray values with rule(name, v) by checking
    its least and greatest; a nan is both, and an empty array passes."""
    if values.size:
        rule(name, values.min())
        rule(name, values.max())
