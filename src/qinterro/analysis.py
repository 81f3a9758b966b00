"""Fringe analysis: visibility extraction, parameter estimation, weak values.

Visibility conventions: V = (d_max - d_min)/(d_max + d_min). For the standard
bench the closed forms are eps |sin 2 theta| with no object, 2 eps sqrt(mu) /
(1 + mu) for a one-arm object, and 2 eps sqrt(mu1 mu2)/(mu1 + mu2) for a
two-arm object. The estimators below invert those laws.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import jones
from ._validate import finite, unit_interval
from .bench import _QUARTER_PI, _fringe, i_prob
from .exceptions import (
    DomainError,
    InfeasibleError,
    InternalConsistencyError,
    UndefinedVisibilityError,
)
from .sources import FringeScan

# A sinusoid fit whose rms residual exceeds this many Poisson sigmas of the
# mean count level is treated as a model failure and falls back to extrema.
_FALLBACK_RESIDUAL_SIGMAS = 5.0

_SQRT_HALF = math.sqrt(0.5)


@dataclass(frozen=True)
class VisibilityResult:
    """Fringe visibility from a fitted offset a and amplitude b.

    The fringe is a + b cos(phase - fit_phase); V = b/a and the extrema
    a +- b are derived from the two stored parameters. With used_fallback
    set, a and b are the midpoint and half-range of the raw extreme counts.
    """

    std_error: float
    fit_offset: float
    fit_amplitude: float
    fit_phase: float
    used_fallback: bool = False

    def __post_init__(self):
        if not 0.0 <= self.fit_amplitude <= self.fit_offset or self.fit_offset == 0.0:
            raise InternalConsistencyError(
                f"amplitude {self.fit_amplitude} outside [0, offset {self.fit_offset}], "
                "or a zero offset"
            )

    @property
    def visibility(self) -> float:
        return self.fit_amplitude / self.fit_offset

    @property
    def d_max(self) -> float:
        return self.fit_offset + self.fit_amplitude

    @property
    def d_min(self) -> float:
        return self.fit_offset - self.fit_amplitude


def _extrema_fit(scan: FringeScan) -> tuple[float, float, float, float]:
    """Offset, amplitude, phase and Poisson sigma_V from the two extreme bins."""
    counts = scan.counts
    i_max = int(np.argmax(counts))
    d_max = float(counts[i_max])
    d_min = float(counts.min())
    if d_max + d_min == 0.0:
        raise UndefinedVisibilityError("all counts are zero")
    # Poisson errors on the two extreme bins propagated through the ratio.
    total_sq = (d_max + d_min) ** 2
    var = (2.0 * d_min / total_sq) ** 2 * d_max + (2.0 * d_max / total_sq) ** 2 * d_min
    return 0.5 * (d_max + d_min), 0.5 * (d_max - d_min), float(scan.phases[i_max]), math.sqrt(var)


@np.errstate(over="ignore", invalid="ignore")  # huge counts end in ArithmeticError instead
def fit_fringe(scan: FringeScan) -> VisibilityResult:
    """Least-squares sinusoid fit of a fringe scan.

    Fits counts ~ a + b cos(phase - phase0) as a linear model in
    (a, b cos phase0, b sin phase0). One SVD of the design matrix gives the
    rank check, the parameters and their unweighted least-squares covariance,
    propagated from Poisson variances sigma_k^2 = counts_k; sigma_V from V = b/a.

    If the rms residual exceeds _FALLBACK_RESIDUAL_SIGMAS Poisson sigmas of
    the mean count level (and 64 eps max(counts), past what rounding leaves),
    or the fitted offset or amplitude is unusable, the raw extrema give a and
    b instead (midpoint and half-range, with their two-bin Poisson sigma_V)
    and used_fallback is set. Either way sigma_V is floored at eps (1 + V),
    the rounding in V itself, which the Poisson sigma_V falls below past
    ~1e30 counts per point on 25 points.
    """
    if len(scan) < 4:
        raise DomainError(f"need at least 4 scan points, got {len(scan)}")
    phases = scan.phases
    y = scan.counts
    # the fallback squares d_max + d_min: refuse counts where that overflows, fit or not
    if float(y.max()) + float(y.min()) > math.sqrt(np.finfo(float).max):
        raise OverflowError("counts too large for the extrema fallback")
    x = np.column_stack([np.ones_like(phases), np.cos(phases), np.sin(phases)])
    u, s, vt = np.linalg.svd(x, full_matrices=False)
    # the rank cutoff of lstsq and matrix_rank: eps max(M, N) sigma_max
    if s[-1] <= np.finfo(float).eps * len(y) * s[0]:
        raise DomainError("phase grid does not determine a fringe")
    pinv = vt.T @ ((1.0 / s)[:, None] * u.T)  # the product numpy's pinv forms
    beta = pinv @ y
    a, p, q = (float(v) for v in beta)
    b = math.hypot(p, q)
    rms = math.sqrt(float(np.mean((y - x @ beta) ** 2)))
    # rounding leaves up to ~13 eps max(y), over five Poisson sigmas above ~1e33 counts
    rounding = 64.0 * np.finfo(float).eps * float(y.max())
    threshold = max(_FALLBACK_RESIDUAL_SIGMAS * math.sqrt(float(np.mean(y)) + 1.0), rounding)

    fallback = bool(rms > threshold or a <= 0.0 or b > a * (1.0 + 1e-9))
    if fallback:
        a, b, phase, std_error = _extrema_fit(scan)
    else:
        b = min(b, a)  # numerical guard for an exactly saturated fringe
        phase = math.atan2(q, p)
        # Covariance of beta for the unweighted estimator with heteroscedastic
        # Poisson noise: (X^T X)^-1 X^T diag(sigma^2) X (X^T X)^-1.
        cov = pinv @ (pinv * np.maximum(y, 0.0)).T
        var_a = float(cov[0, 0])
        if b > rounding:
            jac = np.array([p / b, q / b])
            var_b = float(jac @ cov[1:, 1:] @ jac)
        else:  # (p, q)/b is rounding noise: average over the directions
            var_b = 0.5 * float(cov[1, 1] + cov[2, 2])
        # Same algebra as V sqrt((sb/b)^2 + (sa/a)^2) but finite at b = 0.
        std_error = math.sqrt(max(var_b, 0.0) / a**2 + (b * math.sqrt(max(var_a, 0.0)) / a**2) ** 2)
    return VisibilityResult(
        std_error=max(std_error, math.ulp(1.0) * (1.0 + b / a)),
        fit_offset=a,
        fit_amplitude=b,
        fit_phase=phase,
        used_fallback=fallback,
    )


def visibility_no_absorber(theta: float, epsilon: float) -> float:
    """Fringe visibility with an empty bench: eps |sin 2 theta|."""
    unit_interval("epsilon", epsilon)
    finite("theta", theta)
    offset, amplitude = _fringe(theta, 1.0, 1.0, epsilon)
    return amplitude / offset


def visibility_one_arm(mu: float, epsilon: float) -> float:
    """Visibility with a one-arm object: 2 eps sqrt(mu) / (1 + mu), the two-arm law at mu1 = 1."""
    unit_interval("mu", mu)
    return visibility_two_arm(1.0, mu, epsilon)


def visibility_two_arm(mu1: float, mu2: float, epsilon: float) -> float:
    """Visibility with attenuation in both arms: 2 eps sqrt(mu1 mu2)/(mu1 + mu2)."""
    unit_interval("mu1", mu1)
    unit_interval("mu2", mu2)
    unit_interval("epsilon", epsilon)
    if mu1 + mu2 == 0.0:
        raise UndefinedVisibilityError("both arms are fully opaque")
    offset, amplitude = _fringe(_QUARTER_PI, mu1, mu2, epsilon)
    # the offset underflows to 0 only for subnormal mu, where mu1 mu2 already has
    return amplitude / offset if offset else 0.0


def _branch_root(visibility: float, epsilon: float, larger: bool) -> float:
    # Roots of V x^2 - 2 eps x + V = 0; they come in reciprocal pairs.
    disc = epsilon * epsilon - visibility * visibility
    if disc < 0.0:
        # Guard against roundoff at V = eps.
        if visibility - epsilon < 1e-12 * max(1.0, epsilon):
            disc = 0.0
        else:
            raise InfeasibleError(
                f"visibility {visibility} exceeds epsilon {epsilon}; no "
                "transmittance is consistent with this input purity"
            )
    root = math.sqrt(disc)
    return (epsilon + root) / visibility if larger else (epsilon - root) / visibility


def estimate_mu(visibility: float, epsilon: float = 1.0) -> float:
    """Invert the one-arm visibility law for the transmittance mu.

    Solves 2 eps sqrt(mu)/(1 + mu) = V on the physical branch mu <= 1. The
    two mathematical roots are reciprocal; the discarded one is 1/mu. This
    is the two-arm inversion with the reference arm open (mu1 = 1).
    """
    return min(estimate_mu_two_arm(visibility, 1.0, epsilon), 1.0)


def estimate_mu_two_arm(
    visibility: float,
    mu1: float,
    epsilon: float = 1.0,
    larger_branch: bool = False,
) -> float:
    """Invert the two-arm visibility law for mu2 given a known mu1.

    Both quadratic branches are mathematically valid; the default returns the
    one with mu2 <= mu1, larger_branch=True the reciprocal partner (which can
    exceed 1 and then describes gain rather than loss).
    """
    unit_interval("mu1", mu1)
    unit_interval("epsilon", epsilon)
    if not math.isfinite(visibility) or visibility <= 0.0:
        raise DomainError(f"visibility must be positive, got {visibility}")
    if mu1 == 0.0:
        raise DomainError("mu1 must be positive to estimate the other arm")
    y = _branch_root(visibility, epsilon, larger=larger_branch)
    return mu1 * y * y


def _scale_fit(g: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    # least-squares eps in y = eps g, clamped to [0, 1], and the rmse there
    eps = min(max(float(np.sum(g * y) / np.sum(g * g)), 0.0), 1.0)
    return eps, float(np.sqrt(np.mean((y - eps * g) ** 2)))


def fit_epsilon_iprob(data: Sequence[tuple[float, float]]) -> tuple[float, float]:
    """Least-squares purity from (mu, measured interrogation probability) pairs.

    The model I(mu) = i_prob(mu, 0) + eps/2 is linear in eps: I - (1 - mu)/4 =
    eps/2, fitted as sum(g y)/sum(g^2) with g = 1/2 and clamped to [0, 1].
    Returns (epsilon_hat, rmse at the clamped value).
    """
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 2:
        raise DomainError("need at least 2 (mu, i_prob) pairs")
    mu, iprob = arr[:, 0], arr[:, 1]
    base = np.array([i_prob(m, 0.0) for m in mu])
    for value in iprob:
        finite("i_prob", value)
    return _scale_fit(np.full_like(mu, 0.5), iprob - base)


def fit_epsilon_visibility(
    data: Sequence[tuple[float, float]], mu1: float
) -> tuple[float, float]:
    """Least-squares purity from (mu2, visibility) pairs at fixed mu1.

    The model V = eps g(mu2) with g = visibility_two_arm(mu1, mu2, 1) is
    linear in eps; the minimizer is sum(g V)/sum(g^2), clamped to [0, 1].
    Returns (epsilon_hat, rmse at the clamped value).
    """
    unit_interval("mu1", mu1)
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 1:
        raise DomainError("need at least 1 (mu2, visibility) pair")
    for m, value in arr:
        unit_interval("mu2", m)
        finite("visibility", value)
    mu2, vis = arr[:, 0], arr[:, 1]
    # visibility_two_arm at eps = 1; a row with both arms opaque carries no eps
    g = np.array([visibility_two_arm(mu1, m, 1.0) if mu1 + m else 0.0 for m in mu2])
    if not g.any():
        raise DomainError("all points have zero model visibility; eps is undetermined")
    return _scale_fit(g, vis)


def weak_value(theta: float, delta: float, mu: float) -> complex:
    """Weak value of the absorber between the diagonal input and P(theta).

    (cos theta + sin theta e^{i delta} sqrt(mu)) / sqrt(2) for the input
    (|H> + |V>)/sqrt(2) post-selected at angle theta.
    """
    unit_interval("mu", mu)
    finite("theta", theta)
    finite("delta", delta)
    return _SQRT_HALF * (
        math.cos(theta) + math.sin(theta) * cmath.exp(1j * delta) * math.sqrt(mu)
    )


def weak_value_detection_identity(phase: float, mu: float) -> float:
    """|weak value|^2 at the equal-superposition post-selection theta = pi/4.

    Equals the pure-input one-arm detection probability
    (1 + mu + 2 sqrt(mu) cos phase)/4, with phase the total accumulated
    phase phi + delta.
    """
    unit_interval("mu", mu)
    finite("phase", phase)
    return abs(weak_value(math.pi / 4.0, phase, mu)) ** 2


def weak_value_visibility(mu: float) -> float:
    """Visibility implied by the weak-value picture: 2 sqrt(mu)/(1 + mu).

    Read off the extrema of |weak value|^2 at theta = pi/4, phase 0 and pi,
    as (hi - lo)/(hi + lo), without the visibility laws.
    """
    hi = abs(weak_value(_QUARTER_PI, 0.0, mu)) ** 2
    lo = abs(weak_value(_QUARTER_PI, math.pi, mu)) ** 2
    return (hi - lo) / (hi + lo)


@dataclass(frozen=True)
class NonunitaryVisibilityResult:
    """Operator-expectation visibility and its ingredients.

    weak_value is the weak value of the Hermitian factor R between the input
    and the polar post-state U^dagger |i>; it is None when that overlap
    vanishes and the decomposition is undefined. expectation is <i|F|i>.
    """

    visibility: float
    expectation: complex
    weak_value: Optional[complex]


def nonunitary_expectation_visibility(
    f: jones.Operator, i_state: Sequence[complex]
) -> NonunitaryVisibilityResult:
    """Visibility of a general nonunitary evolution F on a pure input.

    V = 2 |<i|F|i>| / (1 + <i|R^2|i>) with F = U R the polar decomposition.
    This operator-expectation form does not reduce to the one-arm fringe law
    2 eps sqrt(mu)/(1 + mu); the two quantify different comparisons and both
    are kept.
    """
    i = np.asarray(i_state, dtype=complex).reshape(-1)
    if i.shape != (2,):
        raise DomainError("i_state must be a 2-component vector")
    norm = float(np.linalg.norm(i))
    if abs(norm - 1.0) > 1e-12:
        raise DomainError(f"i_state must be normalized, got norm {norm}")
    fi = f.matrix @ i
    expectation = complex(np.vdot(i, fi))
    # <i|R^2|i> = |F i|^2, and the weak value of R is <i|U R|i> / <i|U|i>
    visibility = 2.0 * abs(expectation) / (1.0 + float(np.vdot(fi, fi).real))
    overlap = complex(np.vdot(i, jones.polar_decompose(f)[0].matrix @ i))
    wv = expectation / overlap if abs(overlap) > 1e-12 else None
    return NonunitaryVisibilityResult(
        visibility=visibility, expectation=expectation, weak_value=wv
    )
