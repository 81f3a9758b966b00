"""Photon-counting sources and Monte Carlo fringe scans.

A source model describes photon statistics only. A heralded source emits a
known number of signal photons per counting window, so detections are
Binomial in the click probability. A coherent (attenuated laser) source has
Poissonian photon statistics, so detections are Poisson with mean nbar * p.
Dark and stray counts are an additional Poisson background per window. The
input purity epsilon belongs to the bench: simulate_fringe_scan reads it from
its BenchConfig and simulate_interrogation_prob takes it as an argument.

Both simulators draw through one sampler, _draw_totals. A point's detections
summed over its W windows are drawn as one variate with exactly the
distribution of that sum: Binomial(n W, p) for a heralded source,
Poisson(W nbar p) for a coherent one, plus Poisson(W b) background. Memory
and time per point therefore do not grow with W.

Reproducibility: the counts of point i come from a Philox stream keyed
(k, i), where k = SeedSequence(seed).generate_state(1, uint64) is computed
once per call; derived_rng(seed, i) returns that stream. A point's count
depends only on the seed, its index and its click probability, so identical
inputs give bit-identical counts regardless of evaluation order. The first
0.1.0 builds drew every window from a SeedSequence((*seed, i)) generator, so
count columns differ from their 0.1.0 outputs for the same seed.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from ._validate import non_negative
from .bench import (
    AbsorberSpec,
    BenchConfig,
    NO_ABSORBER,
    detection_prob,  # kept: benchmark/run.py traces qinterro.sources.detection_prob
    detection_prob_washed,
    detection_probs,
    two_arm_detection,
)
from .exceptions import DomainError

SeedLike = Union[int, Sequence[int]]


def _seed_tuple(seed: SeedLike) -> tuple[int, ...]:
    if isinstance(seed, (int, np.integer)):
        parts = (int(seed),)
    else:
        parts = tuple(int(s) for s in seed)
    for s in parts:
        if s < 0 or s >= 2**64:
            raise DomainError(f"seed entries must be unsigned 64-bit, got {s}")
    return parts


def _stream_key(seed: SeedLike) -> int:
    return int(np.random.SeedSequence(_seed_tuple(seed)).generate_state(1, np.uint64)[0])


def _philox_state(key: int, index: int) -> dict:
    return {
        "bit_generator": "Philox",
        "state": {
            "counter": np.zeros(4, dtype=np.uint64),
            "key": np.array([key, index], dtype=np.uint64),
        },
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def derived_rng(seed: SeedLike, index: int = 0) -> np.random.Generator:
    """Generator of point `index` of the given base seed: Philox keyed (k, index)."""
    index = int(index)
    if index < 0 or index >= 2**64:
        raise DomainError(f"stream index must be unsigned 64-bit, got {index}")
    key = np.array([_stream_key(seed), index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class HeraldedSource:
    """Fixed number of heralded signal photons per counting window."""

    pairs_per_window: int
    background_rate: float = 0.0

    def __post_init__(self):
        if int(self.pairs_per_window) != self.pairs_per_window or self.pairs_per_window < 0:
            raise DomainError(
                f"pairs_per_window must be a non-negative integer, got {self.pairs_per_window}"
            )
        object.__setattr__(self, "pairs_per_window", int(self.pairs_per_window))
        non_negative("background_rate", self.background_rate)

    @property
    def mean_rate(self) -> float:
        """Mean photons offered to the bench per window."""
        return float(self.pairs_per_window)


@dataclass(frozen=True)
class CoherentSource:
    """Attenuated laser with mean photon number nbar per counting window."""

    nbar: float
    background_rate: float = 0.0

    def __post_init__(self):
        non_negative("nbar", self.nbar)
        non_negative("background_rate", self.background_rate)

    @property
    def mean_rate(self) -> float:
        return float(self.nbar)


SourceModel = Union[HeraldedSource, CoherentSource]


@dataclass(frozen=True)
class FringeScan:
    """Counts versus set phase, each summed over the windows of its point.

    counts holds integer-valued totals as float64 so that analysis code can
    also fit noiseless fractional expectations. expected_probs carries the
    per-photon click probability used to drive the sampler, when known.
    """

    phases: np.ndarray
    counts: np.ndarray
    expected_probs: Optional[np.ndarray] = None

    def __post_init__(self):
        phases = np.asarray(self.phases, dtype=float)
        counts = np.asarray(self.counts, dtype=float)
        if phases.ndim != 1 or phases.shape != counts.shape:
            raise DomainError("phases and counts must be 1-d arrays of equal length")
        if not np.isfinite(phases).all():
            raise DomainError("phases must be finite")
        if not np.isfinite(counts).all() or (counts < 0).any():
            raise DomainError("counts must be finite and non-negative")
        object.__setattr__(self, "phases", phases)
        object.__setattr__(self, "counts", counts)
        if self.expected_probs is not None:
            probs = np.asarray(self.expected_probs, dtype=float)
            if probs.shape != phases.shape:
                raise DomainError("expected_probs must match phases in length")
            object.__setattr__(self, "expected_probs", probs)

    def __len__(self) -> int:
        return self.phases.size


def _draw_totals(
    source: SourceModel, probs: Sequence[float], windows: int, seed: SeedLike
) -> np.ndarray:
    """Detections of each point summed over `windows` windows, as float64.

    Point i draws from the stream derived_rng(seed, i) returns: one variate
    for the signal, then one for the background. One Philox is reused and its
    state assigned per point, which costs a fraction of building a generator
    per point.
    """
    if windows < 1:
        raise DomainError("windows must be >= 1")
    bitgen = np.random.Philox()
    rng = np.random.Generator(bitgen)
    if isinstance(source, HeraldedSource):
        trials = source.pairs_per_window * int(windows)
        signal = lambda p: rng.binomial(trials, p)
    elif isinstance(source, CoherentSource):
        scale = windows * source.nbar
        signal = lambda p: rng.poisson(scale * p)
    else:
        raise DomainError(f"unknown source model {source!r}")
    background = windows * source.background_rate
    key = _stream_key(seed)
    totals = np.empty(len(probs))
    try:
        for i, p in enumerate(probs):
            bitgen.state = _philox_state(key, i)
            total = int(signal(p))
            if background > 0.0:
                total += int(rng.poisson(background))
            totals[i] = float(total)
    except (OverflowError, ValueError):
        # numpy samples into int64: n >= 2**63 overflows, a mean near 9.2e18 is refused
        raise DomainError(
            f"a point's total over {windows} windows is too large to sample in int64"
        ) from None
    return totals


def simulate_fringe_scan(
    source: SourceModel,
    cfg: BenchConfig,
    absorber: AbsorberSpec = NO_ABSORBER,
    phase_grid: Sequence[float] = (),
    windows_per_point: int = 1,
    seed: SeedLike = 0,
) -> FringeScan:
    """Monte Carlo scan of detector counts versus total relative phase.

    For each grid value the bench is configured so that phi1 + phi2 equals the
    grid phase (phi2 is adjusted, phi1 kept), the click probabilities of all
    points come from one detection_probs call, and each point's total over
    windows_per_point windows is drawn from its own keyed stream. The input
    purity is cfg.epsilon.
    """
    grid = np.asarray(phase_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise DomainError("phase_grid must be a non-empty 1-d sequence")
    if not np.isfinite(grid).all():
        raise DomainError("phase_grid values must be finite")
    # phi2 as BenchConfig.with_total_phase sets it
    probs = detection_probs(cfg, absorber, grid - cfg.phi1)
    counts = _draw_totals(source, probs.tolist(), windows_per_point, seed)
    return FringeScan(phases=grid, counts=counts, expected_probs=probs)


def simulate_interrogation_prob(
    source: SourceModel,
    mu: float,
    windows: int,
    seed: SeedLike,
    epsilon: float = 1.0,
) -> float:
    """Monte Carlo estimate of the interrogation probability for one object.

    Two legs are drawn as points 0 and 1 of one keyed scan: the bright fringe
    with the object removed, (1 + epsilon) / 2, and the washed-out rate with
    the object inserted, (1 + mu) / 4, which no object phase can change. Both
    counts are normalized by the offered photons; the background contributes
    equally to both legs and cancels in the difference on average.
    """
    p_ref = two_arm_detection(1.0, 1.0, epsilon, 0.0)
    p_obj = detection_prob_washed(mu)
    total_ref, total_obj = _draw_totals(source, (p_ref, p_obj), windows, seed)
    denom = source.mean_rate * windows
    if denom <= 0.0:
        raise DomainError("source emits no photons; cannot normalize")
    return float(total_ref) / denom - float(total_obj) / denom
