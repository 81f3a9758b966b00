import math

import numpy as np
import pytest

from qinterro import jones
from qinterro.bench import BenchConfig, OneArmAbsorber, detection_prob, i_prob
from qinterro.exceptions import DomainError
from qinterro.noise import (
    NoiseSpec,
    augment_with_reflection,
    detection_with_reflectivity,
    dmax_with_jitter,
    i_prob_jitter,
    i_prob_reflectivity,
)

RNG = np.random.default_rng(777)


def test_reflectivity_examples():
    assert detection_with_reflectivity(1.0, 1.0, 0.0, 0.1) == pytest.approx(0.9, abs=1e-12)
    assert i_prob_reflectivity(0.0, 1.0, 0.1) == pytest.approx(0.675, abs=1e-12)
    assert i_prob_reflectivity(1.0, 1.0, 0.1) == pytest.approx(0.45, abs=1e-12)


def test_reflectivity_scaling_law():
    # both laws are exactly (1 - lambda) times the ideal expressions
    for _ in range(200):
        mu = RNG.uniform(0, 1)
        eps = RNG.uniform(0, 1)
        phi = RNG.uniform(-2 * math.pi, 2 * math.pi)
        lam = RNG.uniform(0, 0.99)
        ideal = detection_prob(BenchConfig(epsilon=eps, phi1=phi), OneArmAbsorber(mu))
        assert detection_with_reflectivity(mu, eps, phi, lam) == pytest.approx(
            (1 - lam) * ideal, abs=1e-12
        )
        assert i_prob_reflectivity(mu, eps, lam) == pytest.approx(
            (1 - lam) * i_prob(mu, eps), abs=1e-12
        )


def test_reflectivity_curve_dips_below_half():
    # with 10 percent loss the transparent-object endpoint drops under 0.5,
    # erasing the advantage over a perfect classical probe
    curve = [i_prob_reflectivity(mu, 1.0, 0.1) for mu in np.linspace(0, 1, 50)]
    assert curve[0] > 0.5
    assert min(curve) < 0.5


def test_augment_with_reflection_examples():
    rho = jones.initial_state(1.0)
    forward, reflected = augment_with_reflection(rho, [0.05, 0.05])
    assert forward.trace == pytest.approx(0.9, abs=1e-12)
    assert reflected == pytest.approx(0.1, abs=1e-12)

    half = jones.DensityMatrix(np.diag([0.5, 0.0]))
    forward, reflected = augment_with_reflection(half, [0.1])
    assert forward.trace == pytest.approx(0.45, abs=1e-12)
    assert reflected == pytest.approx(0.05, abs=1e-12)


def test_augment_with_reflection_conserves_probability():
    for _ in range(100):
        eps = RNG.uniform(0, 1)
        mu = RNG.uniform(0, 1)
        rho = jones.apply_operator(jones.absorber(mu), jones.initial_state(eps))
        lams = RNG.uniform(0, 0.2, size=RNG.integers(1, 5))
        if lams.sum() >= 1:
            continue
        forward, reflected = augment_with_reflection(rho, lams)
        assert forward.trace + reflected == pytest.approx(rho.trace, abs=1e-12)


def test_augment_with_reflection_errors():
    rho = jones.initial_state(1.0)
    with pytest.raises(DomainError):
        augment_with_reflection(rho, [0.6, 0.6])
    with pytest.raises(DomainError):
        augment_with_reflection(rho, [-0.1])


def test_jitter_examples():
    assert dmax_with_jitter(1.0, 1.0, 0.1) == pytest.approx(0.975, abs=1e-12)
    assert i_prob_jitter(0.0, 1.0, 0.1) == pytest.approx(0.725, abs=1e-12)
    assert i_prob_jitter(0.5, 0.9, 0.1) == pytest.approx(0.55, abs=1e-12)
    # zero jitter reduces to the ideal expressions
    assert dmax_with_jitter(0.3, 0.8, 0.0) == pytest.approx(
        detection_prob(BenchConfig(epsilon=0.8), OneArmAbsorber(0.3)), abs=1e-12
    )
    assert i_prob_jitter(0.3, 0.8, 0.0) == pytest.approx(i_prob(0.3, 0.8), abs=1e-12)


def test_jitter_domain_and_warning():
    with pytest.raises(DomainError):
        dmax_with_jitter(0.5, 1.0, 0.6)
    with pytest.raises(DomainError):
        i_prob_jitter(0.5, 1.0, -0.01)
    with pytest.warns(UserWarning):
        dmax_with_jitter(0.5, 1.0, 0.3)
    with pytest.warns(UserWarning):
        NoiseSpec(dphi2=0.25)


def test_noise_spec_validation():
    spec = NoiseSpec(lambda_total=0.1, dphi2=0.05)
    assert (spec.lambda_total, spec.dphi2) == (0.1, 0.05)
    with pytest.raises(DomainError):
        NoiseSpec(lambda_total=1.0)
    with pytest.raises(DomainError):
        NoiseSpec(dphi2=0.7)


def test_jitter_matches_monte_carlo_average():
    """Gaussian-jitter average of the pipeline detection probability.

    detection_prob is affine in cos(total phase), so averaging it over phase
    samples equals A + B * mean(cos(samples)) with A, B recovered from two
    pipeline evaluations; the affine identity is itself verified on random
    phases first. The second-order formula dmax_with_jitter then has to agree
    within C * dphi2^2 with C = 0.1, which covers the analytic fourth-order
    remainder eps sqrt(mu) dphi2^2 / 16 plus Monte Carlo error at this seed
    (measured discrepancy ratio stays below 0.07).
    """
    rng = np.random.default_rng(123456)
    for mu, eps in [(1.0, 1.0), (0.5, 0.9), (0.25, 0.6)]:
        cfg0 = BenchConfig(epsilon=eps)
        d0 = detection_prob(cfg0, OneArmAbsorber(mu))
        dpi = detection_prob(cfg0.with_total_phase(math.pi), OneArmAbsorber(mu))
        a_coef = 0.5 * (d0 + dpi)
        b_coef = 0.5 * (d0 - dpi)
        for phi in rng.uniform(-math.pi, math.pi, size=20):
            direct = detection_prob(cfg0.with_total_phase(phi), OneArmAbsorber(mu))
            assert direct == pytest.approx(a_coef + b_coef * math.cos(phi), abs=1e-12)
        for dphi2 in (0.02, 0.05, 0.1):
            samples = rng.normal(0.0, math.sqrt(dphi2), size=1_000_000)
            mc_mean = a_coef + b_coef * float(np.mean(np.cos(samples)))
            assert abs(mc_mean - dmax_with_jitter(mu, eps, dphi2)) <= 0.1 * dphi2**2


def test_jitter_warning_points_at_the_caller():
    for call in (
        lambda: NoiseSpec(dphi2=0.3),
        lambda: i_prob_jitter(0.5, 1.0, 0.3),
        lambda: dmax_with_jitter(0.5, 1.0, 0.3),
    ):
        with pytest.warns(UserWarning, match="exceeds") as record:
            call()
        assert record[0].filename == __file__
