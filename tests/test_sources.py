import math
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from numpy.random import bit_generator
from hypothesis import given, settings
from hypothesis import strategies as st

from qinterro.bench import BenchConfig, OneArmAbsorber, detection_prob, i_prob
from qinterro.exceptions import DomainError
from qinterro.schemes import eta_npass
from qinterro.sources import (
    CoherentSource,
    FringeScan,
    HeraldedSource,
    _draw_totals,
    derived_rng,
    simulate_fringe_scan,
    simulate_interrogation_prob,
)


def test_source_validation():
    with pytest.raises(DomainError):
        HeraldedSource(pairs_per_window=-1)
    with pytest.raises(DomainError):
        HeraldedSource(pairs_per_window=2.5)
    for pairs in (float("nan"), float("inf")):
        with pytest.raises(DomainError, match="pairs_per_window must be an integer >= 0, got"):
            HeraldedSource(pairs_per_window=pairs)
    with pytest.raises(DomainError):
        CoherentSource(nbar=-1.0)
    with pytest.raises(DomainError):
        simulate_interrogation_prob(HeraldedSource(10), 0.5, windows=1, seed=0, epsilon=1.5)
    with pytest.raises(DomainError):
        CoherentSource(10.0, background_rate=-0.1)


# The test_sample_counts_* tests check the sampler that both simulators call;
# total i comes from the stream derived_rng(seed, i).
def test_sample_counts_degenerate_probabilities():
    src = HeraldedSource(pairs_per_window=10_000)
    assert _draw_totals(src, [1.0, 0.0], 3, seed=1).tolist() == [30_000, 0]


def test_sample_counts_poisson_mean():
    # brute-force frequency check of the Poisson total: mean and spread of
    # W nbar p = 10^4
    src = CoherentSource(nbar=10_000.0)
    totals = _draw_totals(src, [0.25] * 1000, 4, seed=2024)
    assert abs(float(np.mean(totals)) - 10_000.0) <= 150.0
    assert np.std(totals) == pytest.approx(100.0, rel=0.2)


def test_sample_counts_heralded_never_exceeds_pairs():
    src = HeraldedSource(pairs_per_window=40)
    totals = _draw_totals(src, [0.9] * 500, 5, seed=7)
    assert max(totals) <= 40 * 5


def test_sample_counts_background_adds():
    src = HeraldedSource(pairs_per_window=0, background_rate=5.0)
    totals = _draw_totals(src, [0.5] * 2000, 4, seed=3)
    assert float(np.mean(totals)) == pytest.approx(20.0, rel=0.05)


def test_sample_counts_beyond_int64_are_refused():
    with pytest.raises(DomainError, match="int64"):
        _draw_totals(HeraldedSource(pairs_per_window=2**40), [0.5], 2**30, seed=1)
    with pytest.raises(DomainError, match="int64"):
        _draw_totals(CoherentSource(nbar=1e18), [0.5], 100, seed=1)
    with pytest.raises(DomainError, match="int64"):
        _draw_totals(HeraldedSource(10, background_rate=1e18), [0.5], 100, seed=1)


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

    r1 = _draw_totals(src, [0.37, 0.5], 10, seed=5)
    r2 = _draw_totals(src, [0.37, 0.5], 10, seed=5)
    assert np.array_equal(r1, r2)


@pytest.mark.parametrize("seed, index", [(0, 0), (7, 3), ((2**32, 99), 2**64 - 1), (2**64 - 1, 12)])
def test_derived_rng_is_the_philox_stream_keyed_k_i(seed, index):
    # an independent reference: numpy's Philox built from the key (k, i),
    # with k = SeedSequence(seed).generate_state(1, uint64)
    k = int(np.random.SeedSequence(seed).generate_state(1, np.uint64)[0])
    want = np.random.Generator(np.random.Philox(key=np.array([k, index], dtype=np.uint64)))
    got = derived_rng(seed, index)
    assert got.integers(0, 2**63, 8).tolist() == want.integers(0, 2**63, 8).tolist()
    assert got.binomial(10**9, 0.3) == want.binomial(10**9, 0.3)
    assert got.poisson(1e6) == want.poisson(1e6)


def test_seeding_reads_no_os_entropy(monkeypatch):
    # numpy's SeedSequence(None) draws its entropy through this function
    reads = []
    real = bit_generator.randbits
    monkeypatch.setattr(bit_generator, "randbits", lambda bits: reads.append(bits) or real(bits))
    np.random.Philox()
    assert len(reads) == 1  # the spy sees an unseeded construction
    reads.clear()
    derived_rng(7, 3).random()
    _draw_totals(HeraldedSource(10, background_rate=1.0), [0.5] * 3, 2, seed=7)
    # a fresh thread builds its own sampler Generator on its first call
    worker = threading.Thread(
        target=_draw_totals, args=(CoherentSource(10.0, background_rate=1.0), [0.5] * 3, 2, 7)
    )
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive()
    assert reads == []


def test_derived_rng_returns_a_new_generator_each_call():
    a, b = derived_rng(7, 3), derived_rng(7, 3)
    assert a is not b and a.bit_generator is not b.bit_generator
    first = a.random(4).tolist()
    assert b.random(4).tolist() == first  # drawing from a left b at the stream's start


def test_threads_draw_the_totals_of_serial_calls():
    # each thread samples on its own Generator; threads that interleave their
    # calls, switching as often as the interpreter allows, get the serial totals
    jobs = [
        (HeraldedSource(300, background_rate=2.0), 11),
        (CoherentSource(300.0, background_rate=2.0), 12),
        (HeraldedSource(50), (13, 1)),
        (CoherentSource(7.5), 2**64 - 1),
    ]
    batches = [[0.1 * (b % 10), 0.5, 1.0 - 0.03 * b] * 20 for b in range(20)]
    serial = [[_draw_totals(src, probs, 40, seed).tolist() for probs in batches]
              for src, seed in jobs]
    got = [[] for _ in jobs]
    turn = threading.Barrier(len(jobs), timeout=30)

    def work(k):
        src, seed = jobs[k]
        for probs in batches:
            turn.wait()
            got[k].append(_draw_totals(src, probs, 40, seed).tolist())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(jobs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == serial


@pytest.mark.parametrize("src", [HeraldedSource(300), CoherentSource(300.0)])
@settings(max_examples=60, deadline=None)
@given(
    background=st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
    windows=st.integers(1, 10**6),
    probs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12),
    seed=st.one_of(st.integers(0, 2**64 - 1), st.tuples(st.integers(0, 2**32), st.integers(0, 99))),
    data=st.data(),
)
def test_scan_counts_match_fresh_keyed_streams(src, background, windows, probs, seed, data):
    # the sampler reuses one Philox; total i must draw as derived_rng(seed, i)
    # does, the signal first and then the background
    source = replace(src, background_rate=background)
    totals = _draw_totals(source, probs, windows, seed)
    for i, p in enumerate(probs):
        rng = derived_rng(seed, i)
        if isinstance(source, HeraldedSource):
            want = int(rng.binomial(source.pairs_per_window * windows, p))
        else:
            want = int(rng.poisson(windows * source.nbar * p))
        if background > 0.0:
            want += int(rng.poisson(windows * background))
        assert totals[i] == want

    # total i depends on neither the other probabilities nor the points after it
    i = data.draw(st.integers(0, len(probs) - 1))
    others = data.draw(st.lists(st.floats(0.0, 1.0), min_size=len(probs), max_size=len(probs)))
    others[i] = probs[i]
    assert _draw_totals(source, others, windows, seed)[i] == totals[i]
    assert _draw_totals(source, probs[: i + 1], windows, seed)[i] == totals[i]


def test_scan_prefix_reproduces_counts():
    # a point's count depends only on (seed, i, p_i), not on the rest of the grid
    src = CoherentSource(500.0)
    cfg = BenchConfig(epsilon=0.8)
    grid = np.linspace(-math.pi, math.pi, 41)
    full = simulate_fringe_scan(src, cfg, OneArmAbsorber(0.3), grid, 9, seed=77)
    assert np.array_equal(full.counts, _draw_totals(src, full.expected_probs.tolist(), 9, 77))
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


NAN, INF = math.nan, math.inf
_U64 = 2**64
_SOURCES = (HeraldedSource(800), CoherentSource(800.0))


def _scan(source, windows=1, seed=0):
    return lambda: simulate_fringe_scan(
        source, BenchConfig(), phase_grid=[0.0, 1.0], windows_per_point=windows, seed=seed
    )


def _iprob(source, windows=1, seed=0):
    return lambda: simulate_interrogation_prob(source, 0.5, windows=windows, seed=seed)


# Each whole number is checked by _validate.whole: a fraction, nan or inf is
# refused with its message, where int() would have truncated it or failed bare.
@pytest.mark.parametrize("call, message", [
    *[(sim(src, windows=w), f"windows must be an integer >= 1, got {w}")
      for sim in (_scan, _iprob) for src in _SOURCES for w in (2.5, NAN, INF)],
    (_scan(_SOURCES[0], seed=1.5), f"seed entries must be an integer in [0, {_U64}), got 1.5"),
    (_iprob(_SOURCES[1], seed=(1.5, 0)),
     f"seed entries must be an integer in [0, {_U64}), got 1.5"),
    (lambda: derived_rng(1, 2.5), f"stream index must be an integer in [0, {_U64}), got 2.5"),
    (lambda: derived_rng(1, NAN), f"stream index must be an integer in [0, {_U64}), got nan"),
    (lambda: eta_npass(NAN), "number of passes must be an integer >= 2, got nan"),
    (lambda: eta_npass(INF), "number of passes must be an integer >= 2, got inf"),
])
def test_whole_number_refusals(call, message):
    with pytest.raises(DomainError) as exc:
        call()
    assert str(exc.value) == message


def test_fringe_scan_validation():
    with pytest.raises(DomainError):
        FringeScan(phases=np.array([0.0, 1.0]), counts=np.array([1.0]))
    with pytest.raises(DomainError):
        FringeScan(phases=np.array([0.0]), counts=np.array([-2.0]))


def test_interrogation_prob_monte_carlo_tracks_ideal():
    for src in (HeraldedSource(2000), CoherentSource(2000.0)):
        for eps in (1.0, 0.6):
            for mu in (0.0, 0.5, 1.0):
                est = simulate_interrogation_prob(src, mu, windows=200, seed=11, epsilon=eps)
                # 400k offered photons per leg: statistical error well under 0.01
                assert abs(est - i_prob(mu, eps)) < 0.01


def test_interrogation_prob_deterministic():
    src = HeraldedSource(500)
    a = simulate_interrogation_prob(src, 0.3, windows=50, seed=8)
    b = simulate_interrogation_prob(src, 0.3, windows=50, seed=8)
    assert a == b
