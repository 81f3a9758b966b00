import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from qinterro import jones
from qinterro.analysis import (
    estimate_mu,
    estimate_mu_two_arm,
    fit_epsilon_iprob,
    fit_epsilon_visibility,
    fit_fringe,
    nonunitary_expectation_visibility,
    visibility_from_extrema,
    visibility_no_absorber,
    visibility_one_arm,
    visibility_two_arm,
    weak_value,
    weak_value_detection_identity,
    weak_value_visibility,
)
from qinterro.bench import (
    BenchConfig,
    OneArmAbsorber,
    TwoArmAbsorber,
    detection_prob,
    i_prob,
)
from qinterro.exceptions import (
    DomainError,
    InfeasibleError,
    UndefinedVisibilityError,
)
from qinterro.sources import FringeScan, HeraldedSource, simulate_fringe_scan

RNG = np.random.default_rng(3141)


def scanned_visibility(cfg_maker, absorber):
    """Oracle: extremize the pipeline detection probability over phase.

    Coarse grid plus bounded refinement around the best bins; independent of
    the closed-form visibility laws.
    """
    def d_of(phi):
        return detection_prob(cfg_maker().with_total_phase(phi), absorber)

    grid = np.linspace(0.0, 2 * math.pi, 97)
    values = np.array([d_of(p) for p in grid])
    step = grid[1] - grid[0]

    def refine(idx, sign):
        lo = grid[idx] - step
        hi = grid[idx] + step
        res = minimize_scalar(
            lambda p: sign * d_of(p), bounds=(lo, hi), method="bounded",
            options={"xatol": 1e-12},
        )
        return sign * res.fun

    d_max = refine(int(np.argmax(values)), -1.0)
    d_min = refine(int(np.argmin(values)), 1.0)
    return (d_max - d_min) / (d_max + d_min)


def noiseless_scan(a, b, phase0, n=25):
    phases = np.linspace(0.0, 2 * math.pi, n)
    counts = a + b * np.cos(phases - phase0)
    return FringeScan(phases=phases, counts=counts)


def test_visibility_from_extrema_example():
    assert visibility_from_extrema(0.941, 0.059) == pytest.approx(0.882, abs=1e-12)
    with pytest.raises(UndefinedVisibilityError):
        visibility_from_extrema(0.0, 0.0)
    with pytest.raises(DomainError):
        visibility_from_extrema(0.5, -0.1)
    with pytest.raises(DomainError):
        visibility_from_extrema(0.1, 0.5)


def test_fit_fringe_noiseless_saturated():
    scan = noiseless_scan(50.0, 50.0, 0.0)
    res = fit_fringe(scan)
    assert res.visibility == pytest.approx(1.0, abs=1e-9)
    assert res.fit_offset == pytest.approx(50.0, abs=1e-9)
    assert res.fit_amplitude == pytest.approx(50.0, abs=1e-9)
    assert not res.used_fallback


def test_fit_fringe_noiseless_recovers_generating_visibility():
    for _ in range(50):
        a = RNG.uniform(10, 1000)
        v = RNG.uniform(0, 1)
        phase0 = RNG.uniform(-math.pi, math.pi)
        res = fit_fringe(noiseless_scan(a, a * v, phase0))
        assert res.visibility == pytest.approx(v, abs=1e-9)
        # fitted phase matches modulo 2 pi when there is any fringe to locate
        if v > 1e-3:
            dphi = (res.fit_phase - phase0 + math.pi) % (2 * math.pi) - math.pi
            assert abs(dphi) < 1e-6


def test_fit_fringe_constant_data():
    scan = FringeScan(phases=np.linspace(0, 2 * math.pi, 12), counts=np.full(12, 80.0))
    res = fit_fringe(scan)
    assert res.visibility == pytest.approx(0.0, abs=1e-12)
    assert res.std_error > 0.0
    assert not res.used_fallback


def test_fit_fringe_result_consistency():
    res = fit_fringe(noiseless_scan(100.0, 40.0, 0.3))
    assert res.d_max == pytest.approx(res.fit_offset + res.fit_amplitude, abs=1e-12)
    assert res.d_min == pytest.approx(res.fit_offset - res.fit_amplitude, abs=1e-12)
    total = res.d_max + res.d_min
    assert res.visibility == pytest.approx((res.d_max - res.d_min) / total, abs=1e-12)


def test_fit_fringe_poisson_single_run():
    src = HeraldedSource(pairs_per_window=800)
    scan = simulate_fringe_scan(
        src, BenchConfig(epsilon=0.7713), phase_grid=np.linspace(0, 2 * math.pi, 25),
        windows_per_point=25, seed=2718,
    )
    res = fit_fringe(scan)
    assert res.std_error < 0.02
    assert abs(res.visibility - 0.7713) <= 4.0 * res.std_error


def test_fit_fringe_fallback_on_non_sinusoid():
    phases = np.linspace(0, 2 * math.pi, 40, endpoint=False)
    counts = np.where(np.cos(phases) > 0, 4000.0, 100.0)  # square wave
    res = fit_fringe(FringeScan(phases=phases, counts=counts))
    assert res.used_fallback
    assert res.d_max == 4000.0 and res.d_min == 100.0
    assert res.visibility == pytest.approx((4000 - 100) / (4100), abs=1e-12)


def test_fit_fringe_input_validation():
    with pytest.raises(DomainError):
        fit_fringe(FringeScan(phases=np.array([0.0, 1.0, 2.0]), counts=np.ones(3)))
    same = np.full(8, 1.3)
    with pytest.raises(DomainError):
        fit_fringe(FringeScan(phases=same, counts=np.ones(8)))
    with pytest.raises(UndefinedVisibilityError):
        fit_fringe(FringeScan(phases=np.linspace(0, 6.2, 8), counts=np.zeros(8)))


def test_visibility_laws_examples():
    assert visibility_no_absorber(math.pi / 8, 0.5) == pytest.approx(
        0.5 * math.sin(math.pi / 4), abs=1e-12
    )
    assert visibility_one_arm(0.25, 1.0) == pytest.approx(0.8, abs=1e-12)
    assert visibility_one_arm(1.0, 0.77) == pytest.approx(0.77, abs=1e-12)
    # recomputed by hand: 2*0.63*sqrt(0.861*0.25)/(0.861+0.25)
    assert visibility_two_arm(0.861, 0.25, 0.63) == pytest.approx(
        0.5261724030305734, abs=1e-12
    )
    assert visibility_two_arm(0.5, 0.5, 0.9) == pytest.approx(0.9, abs=1e-12)
    with pytest.raises(UndefinedVisibilityError):
        visibility_two_arm(0.0, 0.0, 1.0)


def test_visibility_laws_match_fringe_extremization():
    # closed forms against the grid-plus-refinement oracle on the pipeline
    for _ in range(8):
        eps = RNG.uniform(0.2, 1.0)
        mu = RNG.uniform(0.05, 1.0)
        got = scanned_visibility(lambda e=eps: BenchConfig(epsilon=e), OneArmAbsorber(mu))
        assert got == pytest.approx(visibility_one_arm(mu, eps), abs=1e-9)

        mu1, mu2 = RNG.uniform(0.05, 1.0, size=2)
        got = scanned_visibility(
            lambda e=eps: BenchConfig(epsilon=e), TwoArmAbsorber(mu1, mu2)
        )
        assert got == pytest.approx(visibility_two_arm(mu1, mu2, eps), abs=1e-9)

    for theta in (math.pi / 8, math.pi / 4, 1.0):
        eps = RNG.uniform(0.2, 1.0)
        got = scanned_visibility(
            lambda e=eps, t=theta: BenchConfig(epsilon=e, theta_post=t), OneArmAbsorber(1.0)
        )
        assert got == pytest.approx(visibility_no_absorber(theta, eps), abs=1e-9)


def test_estimate_mu_example_and_round_trip():
    assert estimate_mu(0.8, 1.0) == pytest.approx(0.25, abs=1e-12)
    for eps in (1.0, 0.9, 0.63, 0.3):
        for mu in np.linspace(0.001, 1.0, 100):
            v = visibility_one_arm(mu, eps)
            assert estimate_mu(v, eps) == pytest.approx(mu, abs=1e-9)
    # saturated visibility pins mu to 1 on the physical branch
    assert estimate_mu(0.63, 0.63) == pytest.approx(1.0, abs=1e-12)


def test_estimate_mu_errors():
    with pytest.raises(InfeasibleError):
        estimate_mu(0.9, 0.63)
    with pytest.raises(DomainError):
        estimate_mu(0.0, 1.0)
    with pytest.raises(DomainError):
        estimate_mu(-0.2, 1.0)
    with pytest.raises(DomainError):
        estimate_mu(0.5, 1.2)


def test_estimate_mu_two_arm_branches():
    mu1 = 0.861
    for eps in (1.0, 0.63):
        for mu2 in np.linspace(0.01, mu1, 40):
            v = visibility_two_arm(mu1, mu2, eps)
            low = estimate_mu_two_arm(v, mu1, eps)
            assert low == pytest.approx(mu2, abs=1e-9)
            high = estimate_mu_two_arm(v, mu1, eps, larger_branch=True)
            # the two quadratic roots are reciprocal: mu2_high = mu1^2 / mu2_low
            assert high == pytest.approx(mu1 * mu1 / mu2, rel=1e-9)
    with pytest.raises(DomainError):
        estimate_mu_two_arm(0.5, 0.0, 1.0)
    with pytest.raises(InfeasibleError):
        estimate_mu_two_arm(0.95, 0.861, 0.63)


def test_fit_epsilon_iprob_exact_recovery():
    mus = np.linspace(0, 1, 9)
    for eps in (1.0, 0.92, 0.77, 0.5, 0.0):
        data = [(mu, i_prob(mu, eps)) for mu in mus]
        eps_hat, rmse = fit_epsilon_iprob(data)
        assert eps_hat == pytest.approx(eps, abs=1e-12)
        assert rmse <= 1e-12
    # all-transparent data at the ideal level pins eps to 1
    eps_hat, _ = fit_epsilon_iprob([(1.0, 0.5), (1.0, 0.5)])
    assert eps_hat == pytest.approx(1.0, abs=1e-12)


def test_fit_epsilon_iprob_noisy_and_clamped():
    mus = np.linspace(0, 1, 25)
    noise = RNG.normal(0, 0.004, size=mus.size)
    data = list(zip(mus, [i_prob(m, 0.92) for m in mus] + noise))
    eps_hat, rmse = fit_epsilon_iprob(data)
    assert eps_hat == pytest.approx(0.92, abs=0.01)
    assert 0 < rmse < 0.02
    # biased-high data clamps at the physical ceiling
    eps_hat, _ = fit_epsilon_iprob([(1.0, 0.9), (0.5, 0.95)])
    assert eps_hat == 1.0
    with pytest.raises(DomainError):
        fit_epsilon_iprob([])
    with pytest.raises(DomainError):
        fit_epsilon_iprob([(0.5, 0.6)])
    with pytest.raises(DomainError):
        fit_epsilon_iprob([(1.5, 0.6), (0.5, 0.6)])


def test_fit_epsilon_visibility_exact_recovery():
    mu1 = 0.861
    mu2s = np.linspace(0.05, 0.861, 12)
    for eps in (0.63, 0.51, 1.0):
        data = [(m2, visibility_two_arm(mu1, m2, eps)) for m2 in mu2s]
        eps_hat, rmse = fit_epsilon_visibility(data, mu1)
        assert eps_hat == pytest.approx(eps, abs=1e-12)
        assert rmse <= 1e-12
    with pytest.raises(DomainError):
        fit_epsilon_visibility([], mu1)
    with pytest.raises(DomainError):
        fit_epsilon_visibility([(0.0, 0.0)], mu1)


def test_weak_value_examples():
    assert weak_value(math.pi / 4, 0.0, 0.25) == pytest.approx(0.75, abs=1e-12)
    wv = weak_value(math.pi / 4, math.pi / 2, 1.0)
    assert wv == pytest.approx(0.5 + 0.5j, abs=1e-12)
    assert weak_value_detection_identity(math.pi, 0.25) == pytest.approx(0.0625, abs=1e-12)


def test_weak_value_detection_identity_matches_pipeline():
    for _ in range(200):
        mu = RNG.uniform(0, 1)
        phase = RNG.uniform(-2 * math.pi, 2 * math.pi)
        cfg = BenchConfig(epsilon=1.0, phi1=phase)
        got = weak_value_detection_identity(phase, mu)
        assert got == pytest.approx(detection_prob(cfg, OneArmAbsorber(mu)), abs=1e-12)


def test_weak_value_visibility_matches_one_arm():
    for mu in np.linspace(0, 1, 50):
        assert weak_value_visibility(mu) == pytest.approx(
            visibility_one_arm(mu, 1.0), abs=1e-12
        )


def test_nonunitary_visibility_identity_operator():
    diag_plus = np.array([1.0, 1.0]) / math.sqrt(2)
    res = nonunitary_expectation_visibility(jones.Operator(np.eye(2)), diag_plus)
    assert res.visibility == pytest.approx(1.0, abs=1e-12)
    assert res.weak_value == pytest.approx(1.0, abs=1e-12)


def test_nonunitary_visibility_opaque_arm():
    diag_plus = np.array([1.0, 1.0]) / math.sqrt(2)
    res = nonunitary_expectation_visibility(jones.absorber(0.0), diag_plus)
    assert res.expectation == pytest.approx(0.5, abs=1e-12)
    assert res.visibility == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_nonunitary_visibility_pure_phase():
    diag_plus = np.array([1.0, 1.0]) / math.sqrt(2)
    for delta in (0.0, 0.4, 1.0, math.pi):
        res = nonunitary_expectation_visibility(jones.absorber(1.0, delta), diag_plus)
        assert res.visibility == pytest.approx(abs(math.cos(delta / 2)), abs=1e-12)
    res = nonunitary_expectation_visibility(jones.absorber(1.0, 0.0), diag_plus)
    assert res.visibility == pytest.approx(1.0, abs=1e-12)


def test_nonunitary_visibility_weak_value_factorization():
    # <i|F|i> = (weak value of R) * <f|i> with |f> the polar post-state
    for _ in range(50):
        m = RNG.uniform(-1, 1, (2, 2)) + 1j * RNG.uniform(-1, 1, (2, 2))
        m /= max(1.0, np.linalg.norm(m, 2))
        vec = RNG.normal(size=2) + 1j * RNG.normal(size=2)
        vec /= np.linalg.norm(vec)
        res = nonunitary_expectation_visibility(jones.Operator(m), vec)
        if res.weak_value is None:
            continue
        u, _ = jones.polar_decompose(jones.Operator(m))
        post = u.matrix.conj().T @ vec
        overlap = complex(np.vdot(post, vec))
        assert res.weak_value * overlap == pytest.approx(res.expectation, abs=1e-10)


def test_nonunitary_visibility_undefined_weak_value():
    # a swap sends |H> to an orthogonal post-state: weak value undefined,
    # the operator-expectation visibility still evaluates (to zero here)
    swap = jones.Operator(np.array([[0, 1], [1, 0]], dtype=complex))
    res = nonunitary_expectation_visibility(swap, np.array([1.0, 0.0]))
    assert res.weak_value is None
    assert res.visibility == pytest.approx(0.0, abs=1e-12)


def test_nonunitary_visibility_requires_normalized_state():
    with pytest.raises(DomainError):
        nonunitary_expectation_visibility(jones.absorber(0.5), np.array([1.0, 1.0]))
