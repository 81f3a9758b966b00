"""Scalar domain checks shared by every public entry point.

Each helper returns the value as a float (uint64: as an int) or raises
DomainError with a "<name> must be ..." message. They stay plain functions that build the
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


def uint64(name: str, x) -> int:
    """x as an int in [0, 2**64)."""
    x = int(x)
    if not 0 <= x < 2**64:
        raise DomainError(f"{name} must be unsigned 64-bit, got {x}")
    return x
