"""Calibration tables mapping a filter position to object transmittance.

The file format is CSV with header "position_mm,transmittance", optional
blank lines, and comment lines starting with '#'. A comment of the form
"# wavelength: <label>" names the curve. Positions must be strictly
increasing; transmittances must lie in [0, 1]. Lookups interpolate linearly
and refuse to extrapolate.
"""
from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from typing import Union

import numpy as np

from ._validate import finite
from .exceptions import CalibrationParseError, DomainError, NotUtf8Error

_HEADER = ("position_mm", "transmittance")


@dataclass(frozen=True)
class CalibrationTable:
    positions: np.ndarray
    transmittances: np.ndarray
    wavelength_label: str = "unspecified"

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        mu = np.asarray(self.transmittances, dtype=float)
        if pos.ndim != 1 or pos.shape != mu.shape or pos.size < 2:
            raise DomainError("need at least 2 calibration rows of equal length")
        if not (np.isfinite(pos).all() and np.isfinite(mu).all()):
            raise DomainError("calibration values must be finite")
        if (np.diff(pos) <= 0).any():
            raise DomainError("calibration positions must be strictly increasing")
        if (mu < 0).any() or (mu > 1).any():
            raise DomainError("transmittances must lie in [0, 1]")
        pos.setflags(write=False)
        mu.setflags(write=False)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "transmittances", mu)


def load_calibration(path: Union[str, os.PathLike]) -> CalibrationTable:
    """Read a position-to-transmittance table from a CSV file."""
    label = "unspecified"
    positions: list[float] = []
    mus: list[float] = []
    header_seen = False
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except UnicodeDecodeError as exc:
        raise NotUtf8Error(path, exc) from None
    for line_number, raw in enumerate(rows, start=1):
        if not raw or not "".join(raw).strip():
            continue
        first = raw[0].strip()
        if first.startswith("#"):
            comment = ",".join(raw).lstrip("#").strip()
            if comment.lower().startswith("wavelength"):
                _, _, value = comment.partition(":")
                if value.strip():
                    label = value.strip()
            continue
        if not header_seen:
            got = tuple(c.strip().lower() for c in raw)
            if got != _HEADER:
                raise CalibrationParseError(
                    f"expected header {','.join(_HEADER)}, got {','.join(raw)}",
                    line_number,
                )
            header_seen = True
            continue
        if len(raw) != 2:
            raise CalibrationParseError(
                f"expected 2 columns, got {len(raw)}", line_number
            )
        try:
            positions.append(float(raw[0]))
            mus.append(float(raw[1]))
        except ValueError:
            raise CalibrationParseError(
                f"could not parse row {','.join(raw)!r} as two numbers",
                line_number,
            ) from None
    if not header_seen:
        raise CalibrationParseError("missing header row", 1)
    return CalibrationTable(
        positions=np.array(positions),
        transmittances=np.array(mus),
        wavelength_label=label,
    )


def mu_at(table: CalibrationTable, position: float) -> float:
    """Linearly interpolated transmittance at a position inside the table range."""
    finite("position", position)
    lo, hi = float(table.positions[0]), float(table.positions[-1])
    if position < lo or position > hi:
        raise DomainError(
            f"position {position} outside calibrated range [{lo}, {hi}]; "
            "extrapolation is not supported"
        )
    return float(np.interp(position, table.positions, table.transmittances))
