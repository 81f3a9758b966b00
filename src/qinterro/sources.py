"""Photon-counting sources and Monte Carlo fringe scans.

Two source models are supported. A heralded source emits a known number of
signal photons per counting window, so detections are Binomial in the click
probability. A coherent (attenuated laser) source has Poissonian photon
statistics, so detections are Poisson with mean nbar * p. Dark and stray
counts are an additional Poisson background per window.

Reproducibility: every scan point gets its own generator seeded with
SeedSequence((*seed, point_index)), so identical inputs give bit-identical
count streams regardless of evaluation order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from ._validate import non_negative, unit_interval
from .bench import AbsorberSpec, BenchConfig, NO_ABSORBER, OneArmAbsorber, detection_prob
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


def derived_rng(seed: SeedLike, *indices: int) -> np.random.Generator:
    """Generator for a labelled sub-stream of the given base seed."""
    entropy = _seed_tuple(seed) + tuple(int(i) for i in indices)
    return np.random.default_rng(np.random.SeedSequence(entropy))


@dataclass(frozen=True)
class HeraldedSource:
    """Fixed number of heralded signal photons per counting window."""

    pairs_per_window: int
    epsilon: float = 1.0
    background_rate: float = 0.0

    def __post_init__(self):
        if int(self.pairs_per_window) != self.pairs_per_window or self.pairs_per_window < 0:
            raise DomainError(
                f"pairs_per_window must be a non-negative integer, got {self.pairs_per_window}"
            )
        object.__setattr__(self, "pairs_per_window", int(self.pairs_per_window))
        unit_interval("epsilon", self.epsilon)
        non_negative("background_rate", self.background_rate)

    @property
    def mean_rate(self) -> float:
        """Mean photons offered to the bench per window."""
        return float(self.pairs_per_window)


@dataclass(frozen=True)
class CoherentSource:
    """Attenuated laser with mean photon number nbar per counting window."""

    nbar: float
    epsilon: float = 1.0
    background_rate: float = 0.0

    def __post_init__(self):
        non_negative("nbar", self.nbar)
        unit_interval("epsilon", self.epsilon)
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

    @property
    def points(self) -> list[tuple[float, float, float]]:
        probs = (
            self.expected_probs
            if self.expected_probs is not None
            else np.full(self.phases.shape, math.nan)
        )
        return list(zip(self.phases.tolist(), self.counts.tolist(), probs.tolist()))


def _draw_window_counts(
    source: SourceModel, p: float, windows: int, rng: np.random.Generator
) -> np.ndarray:
    if isinstance(source, HeraldedSource):
        counts = rng.binomial(source.pairs_per_window, p, size=windows)
    elif isinstance(source, CoherentSource):
        counts = rng.poisson(source.nbar * p, size=windows)
    else:
        raise DomainError(f"unknown source model {source!r}")
    if source.background_rate > 0.0:
        counts = counts + rng.poisson(source.background_rate, size=windows)
    return counts


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
    grid phase (phi2 is adjusted, phi1 kept), the click probability is computed
    through the full pipeline, and windows_per_point windows are sampled.
    """
    grid = np.asarray(phase_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise DomainError("phase_grid must be a non-empty 1-d sequence")
    if not np.isfinite(grid).all():
        raise DomainError("phase_grid values must be finite")
    if windows_per_point < 1:
        raise DomainError("windows_per_point must be >= 1")
    base = _seed_tuple(seed)

    counts = np.empty(grid.size, dtype=float)
    probs = np.empty(grid.size, dtype=float)
    for i, phi in enumerate(grid):
        p = detection_prob(cfg.with_total_phase(float(phi)), absorber)
        rng = derived_rng(base, i)
        counts[i] = float(_draw_window_counts(source, p, windows_per_point, rng).sum())
        probs[i] = p
    return FringeScan(phases=grid, counts=counts, expected_probs=probs)


def simulate_interrogation_prob(
    source: SourceModel,
    mu: float,
    windows: int,
    seed: SeedLike,
    delta: float = 0.0,
) -> float:
    """Monte Carlo estimate of the interrogation probability for one object.

    Two legs are measured with independent derived seeds: the bright fringe
    with the object removed (total phase 0, full contrast), and the washed-out
    rate with the object inserted (contrast 0). Both counts are normalized by
    the offered photons; the background contributes equally to both legs and
    cancels in the difference on average.
    """
    if windows < 1:
        raise DomainError("windows must be >= 1")
    eps = source.epsilon
    p_ref = detection_prob(BenchConfig(epsilon=eps))
    p_obj = detection_prob(
        BenchConfig(epsilon=eps, contrast_envelope=0.0), OneArmAbsorber(mu, delta)
    )
    base = _seed_tuple(seed)
    total_ref = _draw_window_counts(source, p_ref, windows, derived_rng(base, 0)).sum()
    total_obj = _draw_window_counts(source, p_obj, windows, derived_rng(base, 1)).sum()
    denom = source.mean_rate * windows
    if denom <= 0.0:
        raise DomainError("source emits no photons; cannot normalize")
    return float(total_ref) / denom - float(total_obj) / denom
