import math
from pathlib import Path

import numpy as np
import pytest

from qinterro import _validate
from qinterro._validate import below_one, each, finite, non_negative, unit_interval, whole
from qinterro.exceptions import DomainError

NAN, INF = math.nan, math.inf


def test_finite_edges():
    for x in (0, -1e308, 1e308, -3.5):
        assert finite("x", x) == float(x)
    assert type(finite("x", 2)) is float
    for x in (NAN, INF, -INF):
        with pytest.raises(DomainError, match="^phi must be finite, got"):
            finite("phi", x)


def test_unit_interval_edges():
    for x in (0, 1, 0.5, 5e-324):
        assert unit_interval("mu", x) == float(x)
    for x in (-5e-324, math.nextafter(1.0, 2.0), NAN, INF, -INF):
        with pytest.raises(DomainError, match=r"^mu must be in \[0, 1\], got"):
            unit_interval("mu", x)
    with pytest.raises(DomainError) as exc:
        unit_interval("mu", 1.5)
    assert str(exc.value) == "mu must be in [0, 1], got 1.5"


def test_non_negative_edges():
    for x in (0, 5e-324, 1e308):
        assert non_negative("nbar", x) == float(x)
    for x in (-5e-324, -1.0, NAN, INF, -INF):
        with pytest.raises(DomainError, match="^nbar must be >= 0, got"):
            non_negative("nbar", x)


def test_below_one_edges():
    for x in (0, 0.5, 5e-324, math.nextafter(1.0, 0.0)):
        assert below_one("lambda_total", x) == float(x)
    for x in (-5e-324, 1, 1.0, NAN, INF, -INF):
        with pytest.raises(DomainError, match=r"^lambda_total must be in \[0, 1\), got"):
            below_one("lambda_total", x)
    with pytest.raises(DomainError) as exc:
        below_one("lambda_total", 1)
    assert str(exc.value) == "lambda_total must be in [0, 1), got 1"  # named as given


def test_uint64_edges():
    for x in (0, 2**64 - 1, 3.0):
        assert whole("stream index", x, hi=2**64) == int(x)
        assert type(whole("stream index", x, hi=2**64)) is int
    for x in (-1, 2**64, 2.5, NAN, INF):
        with pytest.raises(DomainError) as exc:
            whole("stream index", x, hi=2**64)
        assert str(exc.value) == f"stream index must be an integer in [0, {2**64}), got {x}"


def test_whole_without_upper_bound():
    assert whole("windows", 10**30, lo=1) == 10**30
    assert whole("windows", 1.0, lo=1) == 1
    for x in (0, -INF, INF, NAN, 1.5, "2", None):
        with pytest.raises(DomainError) as exc:
            whole("windows", x, lo=1)
        assert str(exc.value) == f"windows must be an integer >= 1, got {x}"


def test_each_checks_the_least_and_greatest_value():
    each(finite, "x", np.array([]))
    each(unit_interval, "mu", np.array([0.0, 0.5, 1.0]))
    for bad, got in ((NAN, "nan"), (-INF, "-inf"), (INF, "inf")):
        values = np.array([0.5, bad, 0.25])
        with pytest.raises(DomainError) as exc:
            each(finite, "phases", values)
        assert str(exc.value) == f"phases must be finite, got {got}"
    with pytest.raises(DomainError, match=r"^counts must be >= 0, got -1.0$"):
        each(non_negative, "counts", np.array([3.0, -1.0, 2.0]))
    with pytest.raises(DomainError, match=r"^mu must be in \[0, 1\], got 1.5$"):
        each(unit_interval, "mu", np.array([0.0, 1.5]))


def test_unit_interval_message_lives_in_one_module():
    # Range checks go through _validate so that every entry point reports
    # the same message; a hand-written copy elsewhere would drift.
    package = Path(_validate.__file__).parent
    # the rest are wordings of checks that _validate has replaced
    for message in (
        "must be in [0, 1]", "must be in [0, 1)", "must be unsigned 64-bit",
        "must lie in [0, 1]", "non-negative integer", "windows must be >= 1",
        "finite and non-negative", "values must be finite", "integer number of passes",
    ):
        offenders = [
            path.name
            for path in sorted(package.glob("*.py"))
            if path.name != "_validate.py" and message in path.read_text()
        ]
        assert offenders == [], message
