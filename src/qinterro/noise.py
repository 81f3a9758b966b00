"""Imperfection models: surface reflectivity losses and phase jitter.

Reflectivity is modeled as a probability branch: the optical surfaces divert
a summed fraction lambda_total of the incoming probability out of the forward
mode, so the interrogation probability is scaled by (1 - lambda_total). Phase
jitter is a small random error on the set phase with variance dphi2; to
second order it multiplies the interference term by (1 - dphi2/2).

Each law checks its own lambda_total and dphi2, so callers pass the values
straight in; a dphi2 above JITTER_WARN_THRESHOLD raises a UserWarning that
points at the line calling the law.
"""
from __future__ import annotations

import warnings

from ._validate import below_one, non_negative
from .bench import i_prob
from .exceptions import DomainError

# Above this jitter variance the second-order expansion is visibly biased.
JITTER_WARN_THRESHOLD = 0.2
JITTER_MAX = 0.5


def _check_dphi2(dphi2: float) -> None:
    # stacklevel 3: the warning names the caller of the public function
    non_negative("dphi2", dphi2)
    if dphi2 > JITTER_MAX:
        raise DomainError(
            f"dphi2 = {dphi2} is outside the small-jitter regime (max {JITTER_MAX})"
        )
    if dphi2 > JITTER_WARN_THRESHOLD:
        warnings.warn(
            f"dphi2 = {dphi2} exceeds {JITTER_WARN_THRESHOLD}; the second-order "
            "jitter expansion is inaccurate there",
            stacklevel=3,
        )


def i_prob_reflectivity(mu: float, epsilon: float, lambda_total: float) -> float:
    """Interrogation probability degraded by reflectivity: scaled by (1 - lambda)."""
    base = i_prob(mu, epsilon)
    below_one("lambda_total", lambda_total)
    return (1.0 - lambda_total) * base


def i_prob_jitter(mu: float, epsilon: float, dphi2: float) -> float:
    """Interrogation probability with phase jitter: (1 + 2 eps - mu - dphi2) / 4.

    This is the paper's law and assumes eps = 1. Jitter scales the bright
    fringe's interference term eps/2 by (1 - dphi2/2), a drop of eps dphi2/4,
    but the law subtracts dphi2/4 whatever eps is. It therefore sits
    (1 - eps) dphi2/4 below the jittered bright fringe minus the washed-out
    rate, and can go negative away from eps = 1 (-0.1125 at mu = 1, eps = 0,
    dphi2 = 0.45).
    """
    base = i_prob(mu, epsilon)
    _check_dphi2(dphi2)
    return base - 0.25 * dphi2
