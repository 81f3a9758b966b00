import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qinterro import bench, jones
from qinterro.analysis import visibility_two_arm
from qinterro.bench import (
    NO_ABSORBER,
    BenchConfig,
    NoAbsorber,
    OneArmAbsorber,
    TwoArmAbsorber,
    detection_prob,
    detection_prob_washed,
    detection_probs,
    evolve_bench,
    i_prob,
    two_arm_detection,
)
from qinterro.exceptions import DomainError, InternalConsistencyError

RNG = np.random.default_rng(8181)


def closed_form_detection(mu1, mu2, epsilon, phase, theta, gamma=1.0):
    """Independent closed form for the click probability at the detector.

    Derived by hand from the final state: diagonal (mu2/2, mu1/2), off-diagonal
    gamma*eps*sqrt(mu1 mu2)/2 at phase `phase`, projected on the polarizer at
    theta. One-arm objects map to mu1=1, mu2=mu, phase=phi+delta.
    """
    c, s = math.cos(theta), math.sin(theta)
    incoherent = 0.5 * (mu2 * c * c + mu1 * s * s)
    fringe = 0.5 * gamma * epsilon * math.sqrt(mu1 * mu2) * math.sin(2 * theta) * math.cos(phase)
    return incoherent + fringe


def test_evolve_bench_one_arm_example():
    rho = evolve_bench(BenchConfig(epsilon=0.5), OneArmAbsorber(0.25))
    expected = np.array([[0.125, 0.125], [0.125, 0.5]])
    assert np.abs(rho.matrix - expected).max() <= 1e-12


def test_evolve_bench_opaque_example():
    rho = evolve_bench(BenchConfig(epsilon=1.0), OneArmAbsorber(0.0))
    assert np.abs(rho.matrix - np.diag([0.0, 0.5])).max() <= 1e-12


def test_evolve_bench_matches_closed_form_state():
    for _ in range(300):
        eps = RNG.uniform(0, 1)
        mu = RNG.uniform(0, 1)
        delta = RNG.uniform(-math.pi, math.pi)
        phi1 = RNG.uniform(-math.pi, math.pi)
        phi2 = RNG.uniform(-math.pi, math.pi)
        cfg = BenchConfig(epsilon=eps, phi1=phi1, phi2=phi2)
        rho = evolve_bench(cfg, OneArmAbsorber(mu, delta)).matrix
        phase = phi1 + phi2 + delta
        off = 0.5 * eps * math.sqrt(mu) * np.exp(1j * phase)
        expected = np.array([[0.5 * mu, off], [np.conj(off), 0.5]])
        assert np.abs(rho - expected).max() <= 1e-12


def test_contrast_envelope_scales_off_diagonals():
    cfg_full = BenchConfig(epsilon=1.0, phi1=0.3)
    cfg_half = BenchConfig(epsilon=1.0, phi1=0.3, contrast_envelope=0.5)
    cfg_none = BenchConfig(epsilon=1.0, phi1=0.3, contrast_envelope=0.0)
    spec = OneArmAbsorber(0.6, 0.2)
    full = evolve_bench(cfg_full, spec).matrix
    half = evolve_bench(cfg_half, spec).matrix
    none = evolve_bench(cfg_none, spec).matrix
    assert half[0, 1] == pytest.approx(0.5 * full[0, 1], abs=1e-15)
    assert none[0, 1] == 0.0 and none[1, 0] == 0.0
    assert np.allclose(np.diag(half), np.diag(full), atol=0)


def test_detection_prob_examples():
    cfg = BenchConfig(epsilon=1.0)
    assert detection_prob(cfg, OneArmAbsorber(0.25)) == pytest.approx(0.5625, abs=1e-12)
    assert detection_prob(cfg, NO_ABSORBER) == pytest.approx(1.0, abs=1e-12)
    assert detection_prob(cfg, OneArmAbsorber(1.0)) == pytest.approx(1.0, abs=1e-12)


_ANGLES = st.floats(-10.0, 10.0)
_UNIT = st.floats(0.0, 1.0)


@settings(max_examples=300, deadline=None)
@given(
    cfg=st.builds(
        BenchConfig, epsilon=_UNIT, phi1=_ANGLES, phi2=_ANGLES, theta_post=_ANGLES,
        contrast_envelope=_UNIT,
    ),
    absorber=st.one_of(
        st.just(NO_ABSORBER),
        st.builds(OneArmAbsorber, _UNIT, _ANGLES),
        st.builds(TwoArmAbsorber, _UNIT, _UNIT, _ANGLES),
    ),
    phi2=st.lists(_ANGLES, min_size=1, max_size=401),
)
# a batch the size of a dense fringe scan
@example(
    cfg=BenchConfig(epsilon=0.9, theta_post=0.7, contrast_envelope=0.8),
    absorber=OneArmAbsorber(0.4, 0.3),
    phi2=np.linspace(-2 * math.pi, 2 * math.pi, 401).tolist(),
)
# theta = pi/2 with unit amplitudes puts p at 1/2 for every phase
@example(cfg=BenchConfig(theta_post=math.pi / 2), absorber=NO_ABSORBER, phi2=[0.0, 1.0, 2.0])
@example(
    cfg=BenchConfig(theta_post=math.pi / 2, phi1=0.4), absorber=OneArmAbsorber(1.0, 0.3),
    phi2=np.linspace(0, 2 * math.pi, 25).tolist(),
)
# an opaque arm (mu = 0) and a fully mixed input (epsilon = 0)
@example(cfg=BenchConfig(theta_post=0.3), absorber=OneArmAbsorber(0.0, 1.0), phi2=[0.0, 2.5])
@example(
    cfg=BenchConfig(epsilon=0.0, theta_post=1.1), absorber=TwoArmAbsorber(0.3, 0.9, 0.2),
    phi2=[0.0, 2.5],
)
def test_detection_probs_matches_reference_chain(cfg, absorber, phi2):
    got = detection_probs(cfg, absorber, np.array(phi2))
    assert got.shape == (len(phi2),)
    for k, x in enumerate(phi2):
        point = replace(cfg, phi2=x)
        rho = evolve_bench(point, absorber)
        want = np.trace(jones.polarizer(point.theta_post).matrix @ rho.matrix).real
        assert abs(got[k] - want) <= 1e-15
    assert detection_prob(cfg, absorber) == detection_probs(cfg, absorber, [cfg.phi2])[0]


@pytest.mark.parametrize("matrix, message", [
    ([[0.5, 0.2], [0.1, 0.5]], "not Hermitian"),
    ([[0.5, 0.0], [0.0, 0.5 + 1e-6j]], "not Hermitian"),
    ([[0.2, 0.3], [0.3, 0.2]], "negative eigenvalue"),
    ([[0.75, 0.1j], [-0.1j, 0.5]], r"trace 1\.25 outside"),
])
def test_detection_probs_checks_each_point(monkeypatch, matrix, message):
    # the kernel checks the closed-form state it conjugates, point by point
    stub = np.array(matrix, dtype=np.complex128)
    monkeypatch.setattr(bench, "_before_second_prism", lambda cfg, absorber: stub)
    with pytest.raises(InternalConsistencyError, match=message):
        detection_probs(BenchConfig(), NO_ABSORBER, np.linspace(0, 2 * math.pi, 9))


def test_detection_probs_builds_one_operator_and_no_state(monkeypatch):
    # the absorber's validated operator is the only jones object per call
    built = {jones.Operator: 0, jones.DensityMatrix: 0}
    for cls in built:
        def counting(self, _cls=cls, _init=cls.__post_init__):
            built[_cls] += 1
            _init(self)
        monkeypatch.setattr(cls, "__post_init__", counting)
    for absorber in (NO_ABSORBER, OneArmAbsorber(0.4, 0.3), TwoArmAbsorber(0.2, 0.7, 1.0)):
        built.update(dict.fromkeys(built, 0))
        detection_probs(BenchConfig(epsilon=0.9, phi1=0.2), absorber, np.linspace(0, 6, 25))
        assert built == {jones.Operator: 1, jones.DensityMatrix: 0}


def test_detection_prob_no_absorber_law():
    # half (1 + sin 2theta cos phi) for a pure input and empty bench
    for _ in range(100):
        theta = RNG.uniform(-math.pi, math.pi)
        phi = RNG.uniform(-2 * math.pi, 2 * math.pi)
        cfg = BenchConfig(epsilon=1.0, phi1=phi, theta_post=theta)
        expected = 0.5 * (1 + math.sin(2 * theta) * math.cos(phi))
        assert detection_prob(cfg) == pytest.approx(expected, abs=1e-12)


def test_detection_prob_pipeline_equals_closed_form():
    for _ in range(500):
        eps = RNG.uniform(0, 1)
        gamma = RNG.uniform(0, 1)
        theta = RNG.uniform(-math.pi, math.pi)
        phi1 = RNG.uniform(-math.pi, math.pi)
        phi2 = RNG.uniform(-math.pi, math.pi)
        delta = RNG.uniform(-math.pi, math.pi)
        cfg = BenchConfig(
            epsilon=eps, phi1=phi1, phi2=phi2, theta_post=theta, contrast_envelope=gamma
        )
        mu1, mu2 = RNG.uniform(0, 1, size=2)
        got_two = detection_prob(cfg, TwoArmAbsorber(mu1, mu2, delta))
        want_two = closed_form_detection(mu1, mu2, eps, phi1 + phi2, theta, gamma)
        assert got_two == pytest.approx(want_two, abs=1e-10)

        mu = RNG.uniform(0, 1)
        got_one = detection_prob(cfg, OneArmAbsorber(mu, delta))
        want_one = closed_form_detection(1.0, mu, eps, phi1 + phi2 + delta, theta, gamma)
        assert got_one == pytest.approx(want_one, abs=1e-10)


def test_detection_prob_bounds():
    for _ in range(200):
        cfg = BenchConfig(
            epsilon=RNG.uniform(0, 1),
            phi1=RNG.uniform(-7, 7),
            phi2=RNG.uniform(-7, 7),
            theta_post=RNG.uniform(-7, 7),
            contrast_envelope=RNG.uniform(0, 1),
        )
        p = detection_prob(cfg, OneArmAbsorber(RNG.uniform(0, 1), RNG.uniform(-7, 7)))
        assert 0.0 <= p <= 1.0


def test_detection_prob_washed():
    assert detection_prob_washed(0.526) == pytest.approx(0.3815, abs=1e-12)
    # equals the full pipeline with the contrast envelope at zero
    for _ in range(100):
        mu = RNG.uniform(0, 1)
        theta = RNG.uniform(-math.pi, math.pi)
        cfg = BenchConfig(
            epsilon=RNG.uniform(0, 1),
            phi1=RNG.uniform(-3, 3),
            theta_post=theta,
            contrast_envelope=0.0,
        )
        got = detection_prob(cfg, OneArmAbsorber(mu, RNG.uniform(-3, 3)))
        assert got == pytest.approx(detection_prob_washed(mu, theta), abs=1e-12)


def test_detection_prob_washed_refuses_nonfinite_theta():
    for theta in (float("nan"), math.inf, -math.inf):
        with pytest.raises(DomainError, match="theta_post must be finite"):
            detection_prob_washed(0.5, theta)


def test_two_arm_detection_examples_and_equivalence():
    assert two_arm_detection(0.861, 0.861, 1.0, 0.0) == pytest.approx(0.861, abs=1e-12)
    for _ in range(200):
        mu1, mu2 = RNG.uniform(0, 1, size=2)
        eps = RNG.uniform(0, 1)
        phi = RNG.uniform(-2 * math.pi, 2 * math.pi)
        delta = RNG.uniform(-math.pi, math.pi)
        cfg = BenchConfig(epsilon=eps, phi1=phi)
        got = detection_prob(cfg, TwoArmAbsorber(mu1, mu2, delta))
        assert got == pytest.approx(two_arm_detection(mu1, mu2, eps, phi), abs=1e-12)


def test_two_arm_laws_are_symmetric_in_the_arms_bit_for_bit():
    # the fringe law weighs both arms by exactly 1/2 at pi/4, where cos and
    # sin of the float pi/4, squared, differ in the last bit
    rng = np.random.default_rng(2727)
    for mu1, mu2, eps, phi in rng.uniform(0, 1, size=(10_000, 4)).tolist():
        phi *= 2 * math.pi
        assert two_arm_detection(mu1, mu2, eps, phi) == two_arm_detection(mu2, mu1, eps, phi)
        assert visibility_two_arm(mu1, mu2, eps) == visibility_two_arm(mu2, mu1, eps)
    # the one-arm law is the two-arm law with the open arm at 1
    assert detection_prob_washed(0.3) == two_arm_detection(0.3, 1.0, 0.0, 0.0)


def test_i_prob_values():
    assert i_prob(0.0, 1.0) == pytest.approx(0.75, abs=1e-12)
    assert i_prob(1.0, 1.0) == pytest.approx(0.5, abs=1e-12)
    assert i_prob(0.5, 0.9) == pytest.approx(0.575, abs=1e-12)


def test_i_prob_is_detection_drop():
    # matches D_max(no object) - D_washed(object) computed via the pipeline
    for _ in range(100):
        mu = RNG.uniform(0, 1)
        eps = RNG.uniform(0, 1)
        bright = detection_prob(BenchConfig(epsilon=eps))
        washed = detection_prob(
            BenchConfig(epsilon=eps, contrast_envelope=0.0), OneArmAbsorber(mu)
        )
        assert i_prob(mu, eps) == pytest.approx(bright - washed, abs=1e-12)


def test_i_prob_monotonicity():
    mus = np.linspace(0, 1, 21)
    vals = [i_prob(m, 1.0) for m in mus]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert min(vals) == pytest.approx(0.5, abs=1e-12)
    assert max(vals) == pytest.approx(0.75, abs=1e-12)
    eps_vals = [i_prob(0.5, e) for e in np.linspace(0, 1, 21)]
    assert all(a < b for a, b in zip(eps_vals, eps_vals[1:]))


def test_config_validation():
    with pytest.raises(DomainError):
        BenchConfig(epsilon=1.2)
    with pytest.raises(DomainError):
        BenchConfig(contrast_envelope=-0.1)
    with pytest.raises(DomainError):
        BenchConfig(phi1=float("nan"))
    with pytest.raises(DomainError):
        OneArmAbsorber(1.5)
    with pytest.raises(DomainError):
        TwoArmAbsorber(0.5, -0.1)
    with pytest.raises(DomainError, match="phi2 must be finite, got nan"):
        detection_probs(BenchConfig(), NO_ABSORBER, [0.0, float("nan")])
    with pytest.raises(DomainError):
        detection_probs(BenchConfig(), NO_ABSORBER, [[0.0]])
    for phi in (math.inf, math.nan):
        with pytest.raises(DomainError, match=f"phi must be finite, got {phi}"):
            two_arm_detection(0.5, 0.5, 1.0, phi)


def test_with_total_phase():
    cfg = BenchConfig(phi1=0.7)
    assert cfg.with_total_phase(2.0).phi == pytest.approx(2.0, abs=1e-15)
    assert cfg.with_total_phase(2.0).phi1 == 0.7


def test_absorber_none_equivalent_to_unit_transmittance():
    cfg = BenchConfig(epsilon=0.8, phi1=0.4, phi2=0.3)
    a = evolve_bench(cfg, NoAbsorber()).matrix
    b = evolve_bench(cfg, OneArmAbsorber(1.0, 0.0)).matrix
    assert np.abs(a - b).max() == 0.0
