"""Jones-calculus primitives: 2x2 polarization operators and density matrices.

Basis order is (|H>, |V>) everywhere. Operators act on density matrices by
conjugation, O rho O^dagger. Lossy elements shrink the trace instead of
renormalizing, so the trace of a state is the survival probability of the
photon up to that point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._validate import finite, unit_interval
from .exceptions import DomainError, InternalConsistencyError

# Exact constructors must satisfy their invariants to CONSTRUCTOR_TOL; states
# assembled from chains of floating-point products are only held to
# COMPOSITE_TOL.
CONSTRUCTOR_TOL = 1e-12
COMPOSITE_TOL = 1e-10

OPERATOR_KINDS = ("polarizer", "hwp", "phase", "absorber", "general")

KET_H = np.array([1.0 + 0.0j, 0.0 + 0.0j])

_I2 = np.eye(2, dtype=np.complex128)


def _frozen_2x2(matrix) -> np.ndarray:
    m = np.array(matrix, dtype=np.complex128)
    if m.shape != (2, 2):
        raise DomainError(f"expected a 2x2 matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise DomainError("matrix entries must be finite")
    m.setflags(write=False)
    return m


def hermitian_eigenvalues(m: np.ndarray) -> tuple[float, float]:
    """Closed-form eigenvalues, ascending, of a Hermitian 2x2 matrix."""
    mid = 0.5 * (m[0, 0].real + m[1, 1].real)
    radius = math.hypot(0.5 * (m[0, 0].real - m[1, 1].real), abs(m[0, 1]))
    return mid - radius, mid + radius


def _hermiticity_defect(m: np.ndarray) -> float:
    return float(np.abs(m - m.conj().T).max())


def _check_operator_kind(m: np.ndarray, kind: str) -> None:
    tol = CONSTRUCTOR_TOL
    if kind == "polarizer":
        if _hermiticity_defect(m) > tol:
            raise DomainError("polarizer operator must be Hermitian")
        if float(np.abs(m @ m - m).max()) > tol:
            raise DomainError("polarizer operator must be idempotent")
        for ev in hermitian_eigenvalues(m):
            if min(abs(ev), abs(ev - 1.0)) > tol:
                raise DomainError("polarizer eigenvalues must be 0 and 1")
    elif kind == "hwp":
        if float(np.abs(m @ m.conj().T - _I2).max()) > tol:
            raise DomainError("wave-plate operator must be unitary")
    elif kind == "phase":
        if abs(m[0, 1]) > tol or abs(m[1, 0]) > tol:
            raise DomainError("phase operator must be diagonal")
        if abs(abs(m[0, 0]) - 1.0) > tol or abs(abs(m[1, 1]) - 1.0) > tol:
            raise DomainError("phase operator entries must have unit modulus")
    elif kind == "absorber":
        if abs(m[0, 1]) > tol or abs(m[1, 0]) > tol:
            raise DomainError("absorber operator must be diagonal")
        if abs(m[0, 0]) > 1.0 + tol or abs(m[1, 1]) > 1.0 + tol:
            raise DomainError("absorber entries must have modulus at most 1")


@dataclass(frozen=True)
class Operator:
    """A 2x2 complex operator with a tag naming the element it models."""

    matrix: np.ndarray
    kind: str = "general"

    def __post_init__(self):
        object.__setattr__(self, "matrix", _frozen_2x2(self.matrix))
        if self.kind not in OPERATOR_KINDS:
            raise DomainError(f"unknown operator kind {self.kind!r}")
        _check_operator_kind(self.matrix, self.kind)


def _check_state(h, v, s01, s10, tol: float) -> None:
    """State invariants of the 2x2 matrix [[h, s01], [s10, v]].

    h and v are complex scalars. s01 and s10 are complex scalars, or arrays
    over the points of a batch that share h and v; a batch reports its worst
    offending value.
    """
    defect = max(
        abs(s01 - s10.conjugate()).max(initial=0.0), 2.0 * abs(h.imag), 2.0 * abs(v.imag)
    )
    if defect > tol:
        raise InternalConsistencyError("density matrix is not Hermitian")
    tr = h.real + v.real
    # lower closed-form eigenvalue, as in hermitian_eigenvalues; it falls as
    # |s01| grows, so the largest |s01| gives a batch's lowest
    lowest = 0.5 * tr - math.hypot(0.5 * (h.real - v.real), abs(s01).max(initial=0.0))
    if lowest < -tol:
        raise InternalConsistencyError(
            f"density matrix has negative eigenvalue {lowest}"
        )
    if tr < -tol or tr > 1.0 + tol:
        raise InternalConsistencyError(f"density matrix trace {tr} outside [0, 1]")


@dataclass(frozen=True)
class DensityMatrix:
    """Sub-normalized 2x2 polarization state; trace is survival probability."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _frozen_2x2(self.matrix))
        m = self.matrix
        _check_state(m[0, 0], m[1, 1], m[0, 1], m[1, 0], COMPOSITE_TOL)

    @property
    def trace(self) -> float:
        return self.matrix[0, 0].real + self.matrix[1, 1].real


def initial_state(epsilon: float) -> DensityMatrix:
    """State delivered by the pre-selection polarizer along H.

    epsilon is the mixing weight of eps |H><H| + (1 - eps) I/2; eps = 1 is a
    pure horizontal state, eps = 0 fully mixed. Note that the conventional
    purity Tr(rho^2) of this family is (1 + eps^2)/2, so epsilon itself is
    not Tr(rho^2).
    """
    epsilon = unit_interval("epsilon", epsilon)
    return DensityMatrix(np.diag([0.5 * (1 + epsilon), 0.5 * (1 - epsilon)]))


def polarizer(theta: float) -> Operator:
    """Projector onto linear polarization at angle theta from H."""
    theta = finite("theta", theta)
    c, s = math.cos(theta), math.sin(theta)
    return Operator(np.array([[c * c, c * s], [c * s, s * s]]), kind="polarizer")


def half_wave_plate(alpha: float) -> Operator:
    """Half-wave plate with fast axis at angle alpha.

    At alpha = pi/8 it maps |H> to the equal superposition (|H> + |V>)/sqrt(2);
    at alpha = pi/4 it swaps |H> and |V>.
    """
    alpha = finite("alpha", alpha)
    c, s = math.cos(2 * alpha), math.sin(2 * alpha)
    return Operator(np.array([[c, s], [s, -c]]), kind="hwp")


def relative_phase(phi: float) -> Operator:
    """Beam-displacing prism pair: adds phase phi to the V component."""
    phi = finite("phi", phi)
    return Operator(np.diag([1.0, np.exp(1j * phi)]), kind="phase")


def absorber(mu: float, delta: float = 0.0) -> Operator:
    """One-arm partial absorber: V amplitude scaled by e^{i delta} sqrt(mu).

    mu is the intensity transmittance of the absorbing arm; delta is the phase
    the object imprints on the transmitted amplitude.
    """
    mu = unit_interval("mu", mu)
    delta = finite("delta", delta)
    return Operator(
        np.diag([1.0, np.exp(1j * delta) * math.sqrt(mu)]), kind="absorber"
    )


def two_arm_absorber(mu1: float, mu2: float, delta: float = 0.0) -> Operator:
    """Absorber acting on both arms: e^{i delta} diag(sqrt(mu1), sqrt(mu2))."""
    mu1 = unit_interval("mu1", mu1)
    mu2 = unit_interval("mu2", mu2)
    delta = finite("delta", delta)
    phase = np.exp(1j * delta)
    return Operator(
        np.diag([phase * math.sqrt(mu1), phase * math.sqrt(mu2)]), kind="absorber"
    )


def apply_operator(op: Operator, rho: DensityMatrix) -> DensityMatrix:
    """Conjugate a state by an element: O rho O^dagger.

    The result is validated (Hermitian, positive, trace <= 1) to COMPOSITE_TOL
    and an InternalConsistencyError is raised if the invariants fail.
    """
    return DensityMatrix(op.matrix @ rho.matrix @ op.matrix.conj().T)


def polar_decompose(op: Operator) -> tuple[Operator, Operator]:
    """Split F into U R with U unitary and R = sqrt(F^dagger F) Hermitian PSD.

    From one SVD F = W S V^dagger: U = W V^dagger, R = V S V^dagger, unique
    for invertible F; U = I for F numerically zero. For rank-one F the kernel
    direction of R goes onto the complement of the image with the phase
    closest to the identity map, so U = I for a polarizer or a dead-arm
    absorber; where those two directions are orthogonal, LAPACK's phase is kept.
    """
    w, s, vh = np.linalg.svd(op.matrix)
    r = Operator((vh.conj().T * s) @ vh, kind="general")
    if s[0] <= CONSTRUCTOR_TOL:  # F is numerically zero: any U works
        return Operator(_I2, kind="general"), r
    if s[1] <= 1e-9 * s[0]:
        # z = <v_1|w_1>; the phase conj(z)/|z| maximizes Re tr U
        z = vh[1] @ w[:, 1]
        if abs(z) > CONSTRUCTOR_TOL:
            w[:, 1] *= z.conjugate() / abs(z)
    return Operator(w @ vh, kind="general"), r
