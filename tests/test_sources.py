import math
import tracemalloc

import numpy as np
import pytest

from qinterro.bench import BenchConfig, OneArmAbsorber, detection_prob, i_prob
from qinterro.exceptions import DomainError
from qinterro.sources import (
    CoherentSource,
    FringeScan,
    HeraldedSource,
    _draw_total,
    derived_rng,
    simulate_fringe_scan,
    simulate_interrogation_prob,
)


def test_source_validation():
    with pytest.raises(DomainError):
        HeraldedSource(pairs_per_window=-1)
    with pytest.raises(DomainError):
        HeraldedSource(pairs_per_window=2.5)
    with pytest.raises(DomainError):
        CoherentSource(nbar=-1.0)
    with pytest.raises(DomainError):
        HeraldedSource(10, epsilon=1.5)
    with pytest.raises(DomainError):
        CoherentSource(10.0, background_rate=-0.1)


# The test_sample_counts_* tests check the per-point total draw that both
# simulators call.
def test_sample_counts_degenerate_probabilities():
    src = HeraldedSource(pairs_per_window=10_000)
    assert _draw_total(src, 1.0, 3, derived_rng(1)) == 30_000
    assert _draw_total(src, 0.0, 3, derived_rng(1)) == 0


def test_sample_counts_poisson_mean():
    # brute-force frequency check of the Poisson total: mean and spread of
    # W nbar p = 10^4
    src = CoherentSource(nbar=10_000.0)
    totals = [_draw_total(src, 0.25, 4, derived_rng(2024, i)) for i in range(1000)]
    assert abs(float(np.mean(totals)) - 10_000.0) <= 150.0
    assert np.std(totals) == pytest.approx(100.0, rel=0.2)


def test_sample_counts_heralded_never_exceeds_pairs():
    src = HeraldedSource(pairs_per_window=40)
    totals = [_draw_total(src, 0.9, 5, derived_rng(7, i)) for i in range(500)]
    assert max(totals) <= 40 * 5


def test_sample_counts_background_adds():
    src = HeraldedSource(pairs_per_window=0, background_rate=5.0)
    totals = [_draw_total(src, 0.5, 4, derived_rng(3, i)) for i in range(2000)]
    assert float(np.mean(totals)) == pytest.approx(20.0, rel=0.05)


def test_sample_counts_beyond_int64_are_refused():
    with pytest.raises(DomainError, match="int64"):
        _draw_total(HeraldedSource(pairs_per_window=2**40), 0.5, 2**30, derived_rng(1))
    with pytest.raises(DomainError, match="int64"):
        _draw_total(CoherentSource(nbar=1e18), 0.5, 100, derived_rng(1))
    with pytest.raises(DomainError, match="int64"):
        _draw_total(HeraldedSource(10, background_rate=1e18), 0.5, 100, derived_rng(1))


def test_determinism_bit_identical():
    src = HeraldedSource(pairs_per_window=200)
    cfg = BenchConfig(epsilon=0.9)
    grid = np.linspace(0, 2 * math.pi, 17)
    a = simulate_fringe_scan(src, cfg, OneArmAbsorber(0.5), grid, 10, seed=99)
    b = simulate_fringe_scan(src, cfg, OneArmAbsorber(0.5), grid, 10, seed=99)
    assert np.array_equal(a.counts, b.counts)
    assert np.array_equal(a.phases, b.phases)
    assert np.array_equal(a.expected_probs, b.expected_probs)
    c = simulate_fringe_scan(src, cfg, OneArmAbsorber(0.5), grid, 10, seed=100)
    assert not np.array_equal(a.counts, c.counts)

    r1 = _draw_total(src, 0.37, 10, derived_rng(5))
    r2 = _draw_total(src, 0.37, 10, derived_rng(5))
    assert r1 == r2


@pytest.mark.parametrize(
    "src", [HeraldedSource(300, background_rate=2.0), CoherentSource(300.0, background_rate=2.0)]
)
def test_scan_counts_match_fresh_keyed_streams(src):
    # the scan reuses one Philox; point i must draw as derived_rng(seed, i) does
    grid = np.linspace(0, 2 * math.pi, 33)
    scan = simulate_fringe_scan(src, BenchConfig(epsilon=0.9), OneArmAbsorber(0.6),
                                grid, 7, seed=(5, 2))
    for i, p in enumerate(scan.expected_probs):
        assert scan.counts[i] == _draw_total(src, p, 7, derived_rng((5, 2), i))


def test_scan_prefix_reproduces_counts():
    # a point's count depends only on (seed, i, p_i), not on the rest of the grid
    src = CoherentSource(500.0)
    cfg = BenchConfig(epsilon=0.8)
    grid = np.linspace(-math.pi, math.pi, 41)
    full = simulate_fringe_scan(src, cfg, OneArmAbsorber(0.3), grid, 9, seed=77)
    for m in (1, 6, 40):
        part = simulate_fringe_scan(src, cfg, OneArmAbsorber(0.3), grid[:m], 9, seed=77)
        assert np.array_equal(part.counts, full.counts[:m])


def test_interrogation_memory_does_not_grow_with_windows():
    src = CoherentSource(800.0, background_rate=1.0)
    tracemalloc.start()
    try:
        simulate_interrogation_prob(src, 0.4, windows=10**7, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_scan_uses_total_phase_and_expected_probs():
    src = HeraldedSource(pairs_per_window=100)
    cfg = BenchConfig(epsilon=1.0, phi1=0.4)
    grid = np.linspace(0, 2 * math.pi, 9)
    scan = simulate_fringe_scan(src, cfg, phase_grid=grid, windows_per_point=3, seed=1)
    expected = [detection_prob(cfg.with_total_phase(p)) for p in grid]
    assert np.allclose(scan.expected_probs, expected, atol=1e-12)
    assert len(scan) == 9
    assert scan.phases[0] == 0.0


def test_scan_law_of_large_numbers():
    """Empirical rate converges to detection_prob within 3 relative sigmas.

    Checked over 300 derived seeds; at the Poisson/Binomial scale used the
    3-sigma window must cover at least 99 percent of repetitions.
    """
    src = HeraldedSource(pairs_per_window=200)
    cfg = BenchConfig(epsilon=0.8)
    grid = np.array([0.0, math.pi / 3, math.pi / 2, math.pi])
    reps = 300
    windows = 50
    checks = 0
    hits = 0
    for rep in range(reps):
        scan = simulate_fringe_scan(
            src, cfg, phase_grid=grid, windows_per_point=windows, seed=(4242, rep)
        )
        offered = src.mean_rate * windows
        for k in range(len(scan)):
            expected_total = offered * scan.expected_probs[k]
            rel_err = abs(scan.counts[k] / offered - scan.expected_probs[k])
            checks += 1
            hits += rel_err <= 3.0 * math.sqrt(expected_total) / offered
    assert hits >= 0.99 * checks


def test_scan_validation():
    src = HeraldedSource(pairs_per_window=10)
    with pytest.raises(DomainError):
        simulate_fringe_scan(src, BenchConfig(), phase_grid=[], seed=0)
    with pytest.raises(DomainError):
        simulate_fringe_scan(src, BenchConfig(), phase_grid=[0.0, 1.0], windows_per_point=0, seed=0)
    with pytest.raises(DomainError):
        simulate_fringe_scan(src, BenchConfig(), phase_grid=[0.0, 1.0], seed=-1)


def test_fringe_scan_validation():
    with pytest.raises(DomainError):
        FringeScan(phases=np.array([0.0, 1.0]), counts=np.array([1.0]))
    with pytest.raises(DomainError):
        FringeScan(phases=np.array([0.0]), counts=np.array([-2.0]))


def test_interrogation_prob_monte_carlo_tracks_ideal():
    for src in (HeraldedSource(2000, epsilon=1.0), CoherentSource(2000.0, epsilon=1.0)):
        for mu in (0.0, 0.5, 1.0):
            est = simulate_interrogation_prob(src, mu, windows=200, seed=11)
            ideal = i_prob(mu, src.epsilon)
            # 400k offered photons per leg: statistical error well under 0.01
            assert abs(est - ideal) < 0.01


def test_interrogation_prob_deterministic():
    src = HeraldedSource(500)
    a = simulate_interrogation_prob(src, 0.3, windows=50, seed=8)
    b = simulate_interrogation_prob(src, 0.3, windows=50, seed=8)
    assert a == b
