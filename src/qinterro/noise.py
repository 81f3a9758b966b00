"""Imperfection models: surface reflectivity losses and phase jitter.

Reflectivity is modeled as a probability branch: each optical surface j
diverts a fraction lambda_j of the incoming probability out of the forward
mode, so the forward state is scaled by (1 - sum lambda_j). Phase jitter is a
small random error on the set phase with variance dphi2; to second order it
multiplies the interference term by (1 - dphi2/2).

Each closed form checks its own lambda_total and dphi2, so callers pass the
values straight in; a dphi2 above JITTER_WARN_THRESHOLD raises a UserWarning
that points at the line calling the closed form.
"""
from __future__ import annotations

import math
import warnings
from typing import Iterable

from . import jones
from ._validate import non_negative, unit_interval
from .exceptions import DomainError

# Above this jitter variance the second-order expansion is visibly biased.
JITTER_WARN_THRESHOLD = 0.2
JITTER_MAX = 0.5


def _check_lambda(lambda_total: float) -> None:
    if not (math.isfinite(lambda_total) and 0.0 <= lambda_total < 1.0):
        raise DomainError(f"lambda_total must be in [0, 1), got {lambda_total}")


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


def augment_with_reflection(
    rho: jones.DensityMatrix, lambdas: Iterable[float]
) -> tuple[jones.DensityMatrix, float]:
    """Split a state into its forward part and the reflected probability.

    Returns (forward_state, reflected_prob) where the forward state is the
    input scaled by (1 - sum lambda_j) and reflected_prob = sum lambda_j
    scaled by the incoming trace, so probability is conserved exactly even
    for sub-normalized input.
    """
    lam = [float(v) for v in lambdas]
    for v in lam:
        if not (math.isfinite(v) and 0.0 <= v < 1.0):
            raise DomainError(f"each reflectivity must be in [0, 1), got {v}")
    total = sum(lam)
    if total >= 1.0:
        raise DomainError(f"summed reflectivities must stay below 1, got {total}")
    forward = jones.DensityMatrix((1.0 - total) * rho.matrix)
    return forward, total * rho.trace


def detection_with_reflectivity(
    mu: float, epsilon: float, phi: float, lambda_total: float
) -> float:
    """Bright-port click probability with summed surface reflectivity lambda.

    (1 - lambda) (1 + mu + 2 eps sqrt(mu) cos phi) / 4.
    """
    unit_interval("mu", mu)
    unit_interval("epsilon", epsilon)
    _check_lambda(lambda_total)
    fringe = 1.0 + mu + 2.0 * epsilon * math.sqrt(mu) * math.cos(phi)
    return 0.25 * (1.0 - lambda_total) * fringe


def i_prob_reflectivity(mu: float, epsilon: float, lambda_total: float) -> float:
    """Interrogation probability degraded by reflectivity: scaled by (1 - lambda)."""
    unit_interval("mu", mu)
    unit_interval("epsilon", epsilon)
    _check_lambda(lambda_total)
    return 0.25 * (1.0 - lambda_total) * (1.0 + 2.0 * epsilon - mu)


def dmax_with_jitter(mu: float, epsilon: float, dphi2: float) -> float:
    """Fringe maximum under phase jitter of variance dphi2.

    Averaging cos(phi) over a small jitter about the maximum multiplies the
    interference term by (1 - dphi2/2):
    (1 + mu + 2 eps sqrt(mu) (1 - dphi2/2)) / 4.
    """
    unit_interval("mu", mu)
    unit_interval("epsilon", epsilon)
    _check_dphi2(dphi2)
    contrast = 1.0 - 0.5 * dphi2
    return 0.25 * (1.0 + mu + 2.0 * epsilon * math.sqrt(mu) * contrast)


def i_prob_jitter(mu: float, epsilon: float, dphi2: float) -> float:
    """Interrogation probability with phase jitter: (1 + 2 eps - mu - dphi2) / 4.

    This is the paper's law and assumes eps = 1: its jitter offset ignores
    eps, so it sits (1 - eps) dphi2 / 4 below
    dmax_with_jitter(1, eps, dphi2) - detection_prob_washed(mu) and can go
    negative away from eps = 1 (-0.1125 at mu = 1, eps = 0, dphi2 = 0.45).
    """
    unit_interval("mu", mu)
    unit_interval("epsilon", epsilon)
    _check_dphi2(dphi2)
    return 0.25 * (1.0 + 2.0 * epsilon - mu - dphi2)
