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
once per call; derived_rng(seed, i) returns that stream on a new Generator
that the caller owns. Both it and _draw_totals take the state of the (k, 0)
stream from _keyed_stream, which reads no OS entropy, and write only the
point word i of the key. _draw_totals draws on one Generator per thread,
built once, and assigns the full state before each point, so a point costs
one state assignment and its draws, and every output byte is the same as
with one derived_rng per point. A point's count depends only on the seed,
its index and its click probability, so identical inputs give bit-identical
counts regardless of evaluation order or thread.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence, Union

import numpy as np

from ._validate import non_negative, uint64
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


def _keyed_stream(seed: SeedLike) -> dict:
    """The state dict of the seed's (k, 0) Philox stream.

    k is derived from the seed's own SeedSequence. The state holds plain
    Python ints: set word 1 of its key to i and assign it to a Philox bit
    generator to start the stream of point i.
    """
    if isinstance(seed, (int, np.integer)):
        parts = (int(seed),)
    else:
        parts = tuple(int(s) for s in seed)
    for s in parts:
        uint64("seed entries", s)
    key = int(np.random.SeedSequence(parts).generate_state(1, np.uint64)[0])
    return {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": [key, 0]},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def _philox_generator() -> np.random.Generator:
    """A Generator on a Philox whose state the caller then assigns.

    It is seeded from a fixed SeedSequence, so no OS entropy is read
    (Philox() or Philox(key=...) would read it for a seed sequence that is
    then discarded). No draw is made before a keyed state is assigned.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(0)))


# .rng is _draw_totals' Generator, built on the thread's first draw; not at
# import, which would then load numpy.random for every import of the CLI
_per_thread = threading.local()


def derived_rng(seed: SeedLike, index: int = 0) -> np.random.Generator:
    """New Generator of point `index` of the given base seed: Philox keyed (k, index)."""
    index = uint64("stream index", index)
    state = _keyed_stream(seed)
    state["state"]["key"][1] = index
    rng = _philox_generator()
    rng.bit_generator.state = state
    return rng


@dataclass(frozen=True)
class HeraldedSource:
    """Fixed number of heralded signal photons per counting window."""

    pairs_per_window: int
    background_rate: float = 0.0

    def __post_init__(self):
        n = self.pairs_per_window
        if not (0 <= n < np.inf and int(n) == n):  # int() fails on nan and inf
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


def _check_emits(source: SourceModel) -> None:
    # Both simulators normalize by, or fit fringes of, the offered photons;
    # background counts alone carry no interference.
    if not source.mean_rate > 0.0:
        raise DomainError("source emits no photons; cannot normalize")


def _draw_totals(
    source: SourceModel, probs: Sequence[float], windows: int, seed: SeedLike
) -> np.ndarray:
    """Detections of each point summed over `windows` windows, as float64.

    Point i draws from the stream derived_rng(seed, i) returns: one variate
    for the signal, then one for the background. The draws use this thread's
    Generator, built once, and _keyed_stream is called once per call; before
    each point, word 1 of its state's key is set to i and the whole state is
    assigned, which resets the counter and buffer to a fresh (k, i) stream,
    so nothing carries over from an earlier point or call. Totals are exact
    int sums made float64 once, so every output byte is as with derived_rng.
    """
    if windows < 1:
        raise DomainError("windows must be >= 1")
    state = _keyed_stream(seed)
    rng = getattr(_per_thread, "rng", None)
    if rng is None:
        rng = _per_thread.rng = _philox_generator()
    bitgen = rng.bit_generator
    if isinstance(source, HeraldedSource):
        trials = source.pairs_per_window * int(windows)
        signal, params = partial(rng.binomial, trials), probs
    elif isinstance(source, CoherentSource):
        scale = windows * source.nbar
        signal, params = rng.poisson, [scale * p for p in probs]
    else:
        raise DomainError(f"unknown source model {source!r}")
    background = windows * source.background_rate
    key = state["state"]["key"]
    totals = []
    try:
        for i, x in enumerate(params):
            key[1] = i
            bitgen.state = state
            total = int(signal(x))
            if background > 0.0:
                total += int(rng.poisson(background))
            totals.append(total)
    except (OverflowError, ValueError):
        # numpy samples into int64: n >= 2**63 overflows, a mean near 9.2e18 is refused
        raise DomainError(
            f"a point's total over {windows} windows is too large to sample in int64"
        ) from None
    return np.array(totals, dtype=float)


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
    _check_emits(source)
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
    _check_emits(source)
    p_ref = two_arm_detection(1.0, 1.0, epsilon, 0.0)
    p_obj = detection_prob_washed(mu)
    total_ref, total_obj = _draw_totals(source, (p_ref, p_obj), windows, seed)
    denom = source.mean_rate * windows
    return float(total_ref) / denom - float(total_obj) / denom
