"""Exception types shared across the package."""


class QInterroError(Exception):
    """Base class for all package errors."""


class DomainError(QInterroError, ValueError):
    """An argument is outside the physically or mathematically valid range."""


class CliError(DomainError):
    """Bad command-line input."""


class InternalConsistencyError(QInterroError):
    """A computed object violates its own invariants beyond tolerance."""


class InfeasibleError(QInterroError):
    """No parameter value is consistent with the supplied measurements."""


class UndefinedVisibilityError(QInterroError):
    """Visibility is undefined because both fringe extremes vanish."""


class CalibrationParseError(DomainError):
    """A calibration file row could not be parsed."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class NotUtf8Error(DomainError):
    """An input file is not UTF-8 text."""

    def __init__(self, path, exc: UnicodeDecodeError):
        bad = exc.object[exc.start]
        super().__init__(f"{path} is not UTF-8 text: {exc.reason}, byte {bad:#04x}")
