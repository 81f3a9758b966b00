"""Interferometer bench: state evolution and detection probabilities.

The bench is a common-path polarization interferometer. A photon is
pre-selected along H, rotated onto the diagonal by a half-wave plate at pi/8,
split into two displaced paths carrying a relative phase phi1, optionally
attenuated by an object in one or both paths, swapped by a half-wave plate at
pi/4, recombined with a second relative phase phi2, and finally post-selected
by a polarizer at theta_post in front of the detector.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Union

import numpy as np

from . import jones
from ._validate import finite, unit_interval
from .exceptions import DomainError, InternalConsistencyError

_QUARTER_PI = math.pi / 4
_EIGHTH_PI = math.pi / 8


@dataclass(frozen=True)
class NoAbsorber:
    """Empty object slot; equivalent to a one-arm absorber with mu = 1."""


@dataclass(frozen=True)
class OneArmAbsorber:
    """Partial absorber in the displaced (V) path."""

    mu: float
    delta: float = 0.0

    def __post_init__(self):
        unit_interval("mu", self.mu)
        finite("delta", self.delta)


@dataclass(frozen=True)
class TwoArmAbsorber:
    """Absorber spanning both paths with a common phase delta."""

    mu1: float
    mu2: float
    delta: float = 0.0

    def __post_init__(self):
        unit_interval("mu1", self.mu1)
        unit_interval("mu2", self.mu2)
        finite("delta", self.delta)


AbsorberSpec = Union[NoAbsorber, OneArmAbsorber, TwoArmAbsorber]

NO_ABSORBER = NoAbsorber()


@dataclass(frozen=True)
class BenchConfig:
    """Settings of the bench elements.

    contrast_envelope multiplies the interference (off-diagonal) term of the
    final state: 1 means the two paths stay within the coherence length and
    interfere fully, 0 means the fringe is completely washed out. The wave
    plates are fixed at the standard bench's pi/8 then pi/4, which the
    closed-form detection expressions below assume.
    """

    epsilon: float = 1.0
    phi1: float = 0.0
    phi2: float = 0.0
    theta_post: float = _QUARTER_PI
    contrast_envelope: float = 1.0

    def __post_init__(self):
        unit_interval("epsilon", self.epsilon)
        unit_interval("contrast_envelope", self.contrast_envelope)
        for name in ("phi1", "phi2", "theta_post"):
            finite(name, getattr(self, name))

    @property
    def phi(self) -> float:
        """Total accumulated relative phase phi1 + phi2."""
        return self.phi1 + self.phi2

    def with_total_phase(self, phi: float) -> "BenchConfig":
        """Copy with phi2 chosen so that phi1 + phi2 equals phi."""
        return replace(self, phi2=phi - self.phi1)


def _absorber_operator(spec: AbsorberSpec) -> jones.Operator:
    if isinstance(spec, NoAbsorber):
        return jones.absorber(1.0, 0.0)
    if isinstance(spec, OneArmAbsorber):
        return jones.absorber(spec.mu, spec.delta)
    if isinstance(spec, TwoArmAbsorber):
        return jones.two_arm_absorber(spec.mu1, spec.mu2, spec.delta)
    raise DomainError(f"unknown absorber spec {spec!r}")


def _before_second_prism(cfg: BenchConfig, absorber: AbsorberSpec) -> np.ndarray:
    """The state after the second half-wave plate: evolve_bench's chain in closed form.

    [[|b|^2/2, r], [r*, |a|^2/2]] with r = eps b a* e^{i phi1}/2, for the path
    amplitudes a (H) and b (V) on the diagonal of the absorber's operator.
    """
    a, b = np.diagonal(_absorber_operator(absorber).matrix)
    r = cfg.epsilon * b * a.conjugate() * np.exp(1j * cfg.phi1) / 2
    return np.array([[abs(b) ** 2 / 2, r], [r.conjugate(), abs(a) ** 2 / 2]])


def evolve_bench(cfg: BenchConfig, absorber: AbsorberSpec = NO_ABSORBER) -> jones.DensityMatrix:
    """Propagate the pre-selected state through the bench elements in order.

    Returns the (generally sub-normalized) state arriving at the post-selection
    polarizer. The second prism pair recombines the physically displaced paths;
    because the intervening half-wave plate swapped which polarization occupies
    the delayed path, its relative phase enters the polarization basis with the
    opposite sign to the first one. Each step is validated: this is the reference.
    """
    rho = jones.initial_state(cfg.epsilon)
    rho = jones.apply_operator(jones.half_wave_plate(_EIGHTH_PI), rho)
    rho = jones.apply_operator(jones.relative_phase(cfg.phi1), rho)
    rho = jones.apply_operator(_absorber_operator(absorber), rho)
    rho = jones.apply_operator(jones.half_wave_plate(_QUARTER_PI), rho)
    rho = jones.apply_operator(jones.relative_phase(-cfg.phi2), rho)

    gamma = cfg.contrast_envelope
    if gamma != 1.0:
        m = rho.matrix.copy()
        m[0, 1] *= gamma
        m[1, 0] *= gamma
        rho = jones.DensityMatrix(m)
    return rho


def detection_probs(cfg: BenchConfig, absorber: AbsorberSpec, phi2) -> np.ndarray:
    """Click probabilities for a batch of second-prism phases.

    Element k equals detection_prob(replace(cfg, phi2=phi2[k]), absorber);
    cfg.phi2 itself is not used. From the state [[h, r01], [r10, v]] of
    _before_second_prism, the second prism turns the off-diagonal into
    s01 = r01 e^{i phi2} and s10 = r10 e^{-i phi2}, gamma scales both, and
    the polarizer at theta gives p = c^2 h + s^2 v + gamma c s Re(s01 + s10),
    with c, s = cos theta, sin theta, on length-N vectors. The state
    invariants and p in [0, 1] are checked for every point, to the tolerance
    of the validated chain.
    """
    phi2 = np.asarray(phi2, dtype=float)
    if phi2.ndim != 1:
        raise DomainError("phi2 must be a 1-d array")
    if not np.isfinite(phi2).all():
        raise DomainError(f"phi2 must be finite, got {phi2[~np.isfinite(phi2)][0]}")
    rho = _before_second_prism(cfg, absorber)
    h, v = rho[0, 0], rho[1, 1]
    phase = np.exp(1j * phi2)
    # Operand order as in U rho U^dagger: numpy's complex product can round
    # a*b and b*a differently.
    s01 = rho[0, 1] * phase
    s10 = phase.conj() * rho[1, 0]
    # Checked before the envelope: gamma in [0, 1] keeps the trace and the
    # Hermitian part and can only raise the lower eigenvalue.
    jones._check_state(h, v, s01, s10, jones.COMPOSITE_TOL)

    c, s = math.cos(cfg.theta_post), math.sin(cfg.theta_post)
    p = (c * c * h.real + s * s * v.real) + cfg.contrast_envelope * c * s * (s01.real + s10.real)
    tol = jones.COMPOSITE_TOL
    for worst in (p.min(initial=0.0), p.max(initial=0.0)):
        if worst < -tol or worst > 1.0 + tol:
            raise InternalConsistencyError(f"detection probability {worst} outside [0, 1]")
    return np.clip(p, 0.0, 1.0)


def detection_prob(
    cfg: BenchConfig, absorber: AbsorberSpec = NO_ABSORBER
) -> float:
    """Click probability behind the post-selection polarizer at theta_post."""
    return float(detection_probs(cfg, absorber, [cfg.phi2])[0])


def _fringe(theta: float, mu1: float, mu2: float, epsilon: float) -> tuple[float, float]:
    """Offset and amplitude of the bench fringe at the polarizer angle theta.

    p(phi) = offset + amplitude cos phi, with offset (c^2 mu2 + s^2 mu1)/2 and
    amplitude eps |c s| sqrt(mu1 mu2) for c, s = cos theta, sin theta and path
    transmittances mu1 (H) and mu2 (V); where c s < 0 the fringe's phase
    shifts by pi. Callers check the arguments, each with its own names.
    At the bench's standard angle pi/4 the offset is (mu1 + mu2)/4, as
    c^2 = s^2 = 1/2 exactly, so the law is symmetric in mu1 and mu2 bit for
    bit; cos and sin of the float pi/4 square to 1/2 + 1e-16 and 1/2 - 1e-16.
    """
    c, s = math.cos(theta), math.sin(theta)
    offset = 0.25 * (mu1 + mu2) if theta == _QUARTER_PI else 0.5 * (mu2 * c * c + mu1 * s * s)
    return offset, epsilon * abs(c * s) * math.sqrt(mu1 * mu2)


def detection_prob_washed(mu: float, theta_post: float = _QUARTER_PI) -> float:
    """Detection probability when the fringe is fully washed out.

    With no interference term the two paths add incoherently: the fringe's
    offset (mu cos^2 theta + sin^2 theta) / 2, which is (1 + mu)/4 at theta = pi/4.
    """
    unit_interval("mu", mu)
    finite("theta_post", theta_post)
    return _fringe(theta_post, 1.0, mu, 0.0)[0]


def two_arm_detection(mu1: float, mu2: float, epsilon: float, phi: float) -> float:
    """Closed-form click probability with attenuation in both paths.

    (mu1 + mu2 + 2 eps sqrt(mu1 mu2) cos phi) / 4 at the standard bench
    settings (theta_post = pi/4, full contrast).
    """
    unit_interval("mu1", mu1)
    unit_interval("mu2", mu2)
    unit_interval("epsilon", epsilon)
    finite("phi", phi)
    offset, amplitude = _fringe(_QUARTER_PI, mu1, mu2, epsilon)
    return offset + amplitude * math.cos(phi)


def i_prob(mu: float, epsilon: float) -> float:
    """Interrogation probability: drop of the bright-fringe detection rate.

    Difference between the constructive-fringe probability without the object
    and the washed-out probability with it: (1 + 2 eps - mu) / 4. For a fully
    opaque object and a pure input this is 3/4; for a transparent object it
    falls to 1/2.
    """
    unit_interval("mu", mu)
    unit_interval("epsilon", epsilon)
    # the paper's form: as bright minus washed-out fringe it is 0.7000000000000001 at mu = 0.2
    return 0.25 * (1.0 + 2.0 * epsilon - mu)
