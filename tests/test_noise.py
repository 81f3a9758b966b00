import math

import numpy as np
import pytest

from qinterro.bench import BenchConfig, OneArmAbsorber, detection_prob, i_prob
from qinterro.exceptions import DomainError
from qinterro.noise import i_prob_jitter, i_prob_reflectivity

RNG = np.random.default_rng(777)


def test_reflectivity_examples():
    assert i_prob_reflectivity(0.0, 1.0, 0.1) == pytest.approx(0.675, abs=1e-12)
    assert i_prob_reflectivity(1.0, 1.0, 0.1) == pytest.approx(0.45, abs=1e-12)


def test_reflectivity_scaling_law():
    # the law is exactly (1 - lambda) times the ideal expression
    for _ in range(200):
        mu = RNG.uniform(0, 1)
        eps = RNG.uniform(0, 1)
        lam = RNG.uniform(0, 0.99)
        assert i_prob_reflectivity(mu, eps, lam) == pytest.approx(
            (1 - lam) * i_prob(mu, eps), abs=1e-12
        )


def test_reflectivity_curve_dips_below_half():
    # with 10 percent loss the transparent-object endpoint drops under 0.5,
    # erasing the advantage over a perfect classical probe
    curve = [i_prob_reflectivity(mu, 1.0, 0.1) for mu in np.linspace(0, 1, 50)]
    assert curve[0] > 0.5
    assert min(curve) < 0.5


def test_jitter_examples():
    assert i_prob_jitter(0.0, 1.0, 0.1) == pytest.approx(0.725, abs=1e-12)
    assert i_prob_jitter(0.5, 0.9, 0.1) == pytest.approx(0.55, abs=1e-12)
    # zero jitter reduces to the ideal expression
    assert i_prob_jitter(0.3, 0.8, 0.0) == pytest.approx(i_prob(0.3, 0.8), abs=1e-12)


def test_jitter_domain_and_warning():
    with pytest.raises(DomainError):
        i_prob_jitter(0.5, 1.0, 0.6)
    with pytest.raises(DomainError):
        i_prob_jitter(0.5, 1.0, -0.01)
    with pytest.warns(UserWarning):
        i_prob_jitter(0.5, 1.0, 0.3)


def test_jitter_matches_monte_carlo_average():
    """Jittered bright fringe minus washed-out rate, from the Jones pipeline.

    With no object, detection_prob is affine in cos(total phase), so its
    average over phase samples equals A + B * mean(cos(samples)) with A, B
    recovered from two pipeline evaluations; the affine identity is itself
    verified on random phases first. The washed-out rate with the object is
    the pipeline at eps = 0. i_prob_jitter is the paper's eps = 1 law, so it
    sits (1 - eps) dphi2/4 below that difference; adding that back, it has to
    agree within C * dphi2^2 with C = 0.1, which covers the analytic
    fourth-order remainder eps dphi2^2 / 16 plus Monte Carlo error at this seed.
    """
    rng = np.random.default_rng(123456)
    for mu, eps in [(1.0, 1.0), (0.5, 0.9), (0.25, 0.6)]:
        cfg0 = BenchConfig(epsilon=eps)
        d0 = detection_prob(cfg0)
        dpi = detection_prob(cfg0.with_total_phase(math.pi))
        a_coef = 0.5 * (d0 + dpi)
        b_coef = 0.5 * (d0 - dpi)
        for phi in rng.uniform(-math.pi, math.pi, size=20):
            direct = detection_prob(cfg0.with_total_phase(phi))
            assert direct == pytest.approx(a_coef + b_coef * math.cos(phi), abs=1e-12)
        washed = detection_prob(BenchConfig(epsilon=0.0), OneArmAbsorber(mu))
        for dphi2 in (0.02, 0.05, 0.1):
            samples = rng.normal(0.0, math.sqrt(dphi2), size=1_000_000)
            mc_drop = a_coef + b_coef * float(np.mean(np.cos(samples))) - washed
            law = i_prob_jitter(mu, eps, dphi2) + 0.25 * (1.0 - eps) * dphi2
            assert abs(mc_drop - law) <= 0.1 * dphi2**2


def test_noise_spec_validation():
    # lambda_total is half-open: a surface that reflects everything is refused
    assert i_prob_reflectivity(0.5, 1.0, 0.1) == pytest.approx(0.9 * i_prob(0.5, 1.0), abs=1e-12)
    with pytest.raises(DomainError):
        i_prob_reflectivity(0.5, 1.0, 1.0)
    with pytest.raises(DomainError):
        i_prob_jitter(0.5, 1.0, 0.7)


def test_jitter_warning_points_at_the_caller():
    with pytest.warns(UserWarning, match="exceeds") as record:
        i_prob_jitter(0.5, 1.0, 0.3)
    assert record[0].filename == __file__
