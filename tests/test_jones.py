import math

import numpy as np
import pytest

from qinterro import jones
from qinterro.exceptions import DomainError, InternalConsistencyError

RNG = np.random.default_rng(20260818)


def random_operator_matrix(rng):
    # entries uniform in the complex unit disk
    z = rng.uniform(-1, 1, size=(2, 2)) + 1j * rng.uniform(-1, 1, size=(2, 2))
    mask = np.abs(z) > 1
    z[mask] /= np.abs(z[mask])
    return z


def test_initial_state_examples():
    rho = jones.initial_state(0.5)
    assert np.allclose(rho.matrix, np.diag([0.75, 0.25]), atol=1e-12)
    assert np.allclose(jones.initial_state(1.0).matrix, np.diag([1.0, 0.0]), atol=0)
    assert np.allclose(jones.initial_state(0.0).matrix, np.eye(2) / 2, atol=0)


def test_initial_state_trace_and_purity_family():
    for eps in np.linspace(0, 1, 11):
        rho = jones.initial_state(eps)
        assert rho.trace == pytest.approx(1.0, abs=1e-15)
        purity = np.trace(rho.matrix @ rho.matrix).real
        assert purity == pytest.approx((1 + eps**2) / 2, abs=1e-15)


@pytest.mark.parametrize("eps", [-0.1, 1.1, float("nan"), float("inf")])
def test_initial_state_domain(eps):
    with pytest.raises(DomainError):
        jones.initial_state(eps)


def test_polarizer_example():
    p = jones.polarizer(math.pi / 4)
    assert np.allclose(p.matrix, 0.5 * np.ones((2, 2)), atol=1e-12)


def test_polarizer_invariants():
    for theta in RNG.uniform(-2 * math.pi, 2 * math.pi, size=50):
        m = jones.polarizer(theta).matrix
        assert np.abs(m - m.conj().T).max() <= 1e-12
        assert np.abs(m @ m - m).max() <= 1e-12
        lo, hi = jones.hermitian_eigenvalues(m)
        assert abs(lo) <= 1e-12 and abs(hi - 1) <= 1e-12


def test_half_wave_plate_action():
    h = jones.half_wave_plate(math.pi / 8)
    out = h.matrix @ jones.KET_H
    assert np.allclose(out, np.array([1, 1]) / math.sqrt(2), atol=1e-12)
    swap = jones.half_wave_plate(math.pi / 4)
    assert np.allclose(swap.matrix, np.array([[0, 1], [1, 0]]), atol=1e-12)


def test_half_wave_plate_unitary():
    for alpha in RNG.uniform(-math.pi, math.pi, size=50):
        m = jones.half_wave_plate(alpha).matrix
        assert np.abs(m @ m.conj().T - np.eye(2)).max() <= 1e-12


def test_relative_phase_matrix():
    m = jones.relative_phase(math.pi / 2).matrix
    assert np.allclose(m, np.diag([1, 1j]), atol=1e-12)
    for phi in RNG.uniform(-10, 10, size=20):
        m = jones.relative_phase(phi).matrix
        assert abs(abs(m[1, 1]) - 1) <= 1e-12 and m[0, 1] == 0 and m[1, 0] == 0


def test_absorber_example():
    a = jones.absorber(0.25, math.pi)
    assert np.allclose(a.matrix, np.diag([1.0, -0.5]), atol=1e-12)


def test_absorber_bounds():
    with pytest.raises(DomainError):
        jones.absorber(-0.01)
    with pytest.raises(DomainError):
        jones.absorber(1.01)


def test_two_arm_absorber_example():
    a = jones.two_arm_absorber(0.861, 0.25)
    assert np.allclose(a.matrix, np.diag([math.sqrt(0.861), 0.5]), atol=1e-12)
    # common phase delta multiplies both entries
    b = jones.two_arm_absorber(0.861, 0.25, 0.7)
    assert np.allclose(b.matrix, np.exp(0.7j) * a.matrix, atol=1e-12)


def test_operator_kind_validation():
    with pytest.raises(DomainError):
        jones.Operator(np.array([[1, 1], [0, 1]]), kind="phase")
    with pytest.raises(DomainError):
        jones.Operator(np.diag([1.5, 1.0]), kind="absorber")
    with pytest.raises(DomainError):
        jones.Operator(np.array([[0.5, 0.1], [0.2, 0.5]]), kind="polarizer")
    with pytest.raises(DomainError):
        jones.Operator(np.eye(2), kind="banana")
    # general accepts anything finite
    jones.Operator(np.array([[3.0, 1j], [0, 0]]), kind="general")


def test_operator_rejects_nonfinite():
    with pytest.raises(DomainError):
        jones.Operator(np.array([[np.nan, 0], [0, 1]]))
    with pytest.raises(DomainError):
        jones.Operator(np.array([[1, 2, 3], [4, 5, 6]]))


def test_apply_absorbs_probability():
    # fully opaque arm drains the V population: trace drops to 0.5
    rho = jones.apply_operator(jones.absorber(0.0), jones.initial_state(0.0))
    assert np.allclose(rho.matrix, np.diag([0.5, 0.0]), atol=1e-12)
    assert rho.trace == pytest.approx(0.5, abs=1e-12)


def test_apply_trace_rule_and_positivity():
    # Tr(O rho O^dagger) = Tr(O^dagger O rho) for arbitrary contractions
    for _ in range(200):
        m = random_operator_matrix(RNG)
        m /= max(1.0, np.linalg.norm(m, 2))  # physical elements never amplify
        op = jones.Operator(m)
        eps = RNG.uniform(0, 1)
        rho = jones.initial_state(eps)
        out = jones.apply_operator(op, rho)
        expected = np.trace(m.conj().T @ m @ rho.matrix).real
        assert out.trace == pytest.approx(expected, abs=1e-12)
        lo, _ = jones.hermitian_eigenvalues(out.matrix)
        assert lo >= -1e-12


def test_apply_unitary_preserves_trace():
    for alpha in RNG.uniform(-math.pi, math.pi, size=30):
        op = jones.half_wave_plate(alpha)
        rho = jones.initial_state(RNG.uniform(0, 1))
        out = jones.apply_operator(op, rho)
        assert out.trace == pytest.approx(rho.trace, abs=1e-12)


def test_apply_flags_inconsistent_result():
    # an amplifying "general" operator pushes the trace above 1
    op = jones.Operator(2.0 * np.eye(2))
    with pytest.raises(InternalConsistencyError):
        jones.apply_operator(op, jones.initial_state(1.0))


def test_density_matrix_validation():
    with pytest.raises(InternalConsistencyError):
        jones.DensityMatrix(np.array([[0.5, 0.3], [0.1, 0.5]]))  # not Hermitian
    with pytest.raises(InternalConsistencyError):
        jones.DensityMatrix(np.array([[0.9, 0.5], [0.5, 0.1]]))  # negative eigenvalue
    with pytest.raises(InternalConsistencyError):
        jones.DensityMatrix(np.diag([0.9, 0.9]))  # trace > 1


def test_polar_decompose_example():
    f = jones.absorber(0.25, math.pi / 3)
    u, r = jones.polar_decompose(f)
    assert np.allclose(r.matrix, np.diag([1.0, 0.5]), atol=1e-12)
    assert np.allclose(u.matrix, np.diag([1.0, np.exp(1j * math.pi / 3)]), atol=1e-12)


def test_polar_decompose_randomized():
    for _ in range(300):
        f = jones.Operator(random_operator_matrix(RNG))
        u, r = jones.polar_decompose(f)
        assert np.abs(u.matrix @ r.matrix - f.matrix).max() <= 1e-10
        assert np.abs(r.matrix - r.matrix.conj().T).max() <= 1e-12
        lo, _ = jones.hermitian_eigenvalues(r.matrix)
        assert lo >= -1e-12
        # the unitary factor really is unitary for generic (invertible) input
        if abs(np.linalg.det(f.matrix)) > 1e-6:
            assert np.abs(u.matrix @ u.matrix.conj().T - np.eye(2)).max() <= 1e-10
    # rank-one F = a b^dagger: its Gram matrix is singular only up to rounding
    rng = np.random.default_rng(20261019)
    for _ in range(300):
        a, b = (rng.normal(size=2) + 1j * rng.normal(size=2) for _ in range(2))
        m = np.outer(a, b.conj())
        f = jones.Operator(m / (np.linalg.norm(m, 2) * rng.uniform(1.0, 3.0)))
        u, r = jones.polar_decompose(f)
        assert np.abs(u.matrix @ u.matrix.conj().T - np.eye(2)).max() <= 1e-12
        assert np.abs(u.matrix @ r.matrix - f.matrix).max() <= 1e-12


def test_polar_decompose_singular_cases():
    # dead arm: the identity completion is admissible and must be chosen
    f = jones.absorber(0.0)
    u, r = jones.polar_decompose(f)
    assert np.allclose(u.matrix, np.eye(2), atol=1e-12)
    assert np.allclose(r.matrix, np.diag([1.0, 0.0]), atol=1e-12)

    # nilpotent input: identity on the kernel is not unitary; the completion
    # must still return a unitary factor with U R = F
    f = jones.Operator(np.array([[0, 1], [0, 0]], dtype=complex))
    u, r = jones.polar_decompose(f)
    assert np.abs(u.matrix @ u.matrix.conj().T - np.eye(2)).max() <= 1e-12
    assert np.abs(u.matrix @ r.matrix - f.matrix).max() <= 1e-12

    # zero operator: R = 0 and U defaults to the identity
    u, r = jones.polar_decompose(jones.Operator(np.zeros((2, 2))))
    assert np.allclose(u.matrix, np.eye(2), atol=0)
    assert np.allclose(r.matrix, np.zeros((2, 2)), atol=0)

    # rank-1 projector along a skewed direction
    v = np.array([1.0, 1.0]) / math.sqrt(2)
    f = jones.Operator(np.outer(v, v))
    u, r = jones.polar_decompose(f)
    assert np.abs(u.matrix @ r.matrix - f.matrix).max() <= 1e-12
    assert np.abs(u.matrix @ u.matrix.conj().T - np.eye(2)).max() <= 1e-12

    # a polarizer is its own R, so the completion closest to the identity is I
    for theta in np.linspace(0.0, math.pi, 181):
        f = jones.polarizer(theta)
        u, r = jones.polar_decompose(f)
        assert np.abs(u.matrix - np.eye(2)).max() <= 1e-12
        assert np.abs(r.matrix - f.matrix).max() <= 1e-12
