"""Interaction-free interrogation schemes and their efficiency figures.

Efficiencies of the classic schemes are reproduced for context: the
Elitzur-Vaidman bound of 1/3, and the discrete multi-pass law
cos^(2N)(pi/2N) shared by the N-pass interferometer and the Zeno-style
polarization rotator. The single-pass post-selected bench is listed by its
interrogation probability, which is a different figure of merit, so the
comparison table carries a mandatory footnote saying so.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from ._validate import unit_interval
from .bench import i_prob
from .exceptions import DomainError

METRIC_FOOTNOTE = (
    "Efficiency metrics are not directly comparable across rows: the bound and "
    "the multi-pass schemes quote the fraction of interrogations that detect "
    "the object without absorption, while single_pass quotes the drop in "
    "bright-port detection probability when the object is inserted."
)


@dataclass(frozen=True)
class SchemeEfficiency:
    """One comparison row: scheme label, its parameter, and its efficiency."""

    scheme: str
    parameter: Optional[float]
    eta: float

    def __post_init__(self):
        unit_interval("eta", self.eta)


@dataclass(frozen=True)
class SchemeComparison:
    rows: tuple[SchemeEfficiency, ...]
    footnote: str = METRIC_FOOTNOTE


def eta_ev_bound() -> float:
    """Best efficiency of the single-shot Elitzur-Vaidman scheme: 1/3."""
    return 1.0 / 3.0


def eta_npass(n: int) -> float:
    """Efficiency of the N-pass interferometer scheme: cos^(2N)(pi/2N).

    Approaches 1 as N grows; equals 1/4 at the minimum N = 2.
    """
    if int(n) != n or n < 2:
        raise DomainError(f"need an integer number of passes >= 2, got {n}")
    return math.cos(math.pi / (2.0 * n)) ** (2 * n)


def eta_zeno(n: int) -> float:
    """Efficiency of the Zeno-style rotator scheme; same law as eta_npass."""
    return eta_npass(n)


def compare_schemes(
    n_values: Sequence[int],
    mu_values: Sequence[float],
    epsilon: float = 1.0,
) -> SchemeComparison:
    """Tabulate scheme efficiencies side by side.

    Emits the Elitzur-Vaidman bound, the multi-pass laws for each N, and the
    single-pass interrogation probability for each object transmittance mu at
    the given input purity. The footnote on the result is part of the output
    contract because the metrics differ.
    """
    rows = [SchemeEfficiency("ev_bound", None, eta_ev_bound())]
    for n in n_values:
        rows.append(SchemeEfficiency("n_pass", float(n), eta_npass(n)))
    for n in n_values:
        rows.append(SchemeEfficiency("zeno", float(n), eta_zeno(n)))
    for mu in mu_values:
        rows.append(SchemeEfficiency("single_pass", float(mu), i_prob(mu, epsilon)))
    return SchemeComparison(rows=tuple(rows))
