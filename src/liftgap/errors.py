"""Exception hierarchy shared by all modules.

Every failure raises a subclass of LiftgapError, so the CLI can map a
domain error to exit code 1 and an InternalError (a failed exact
self-check, which is a bug) to exit code 3.
"""

from __future__ import annotations


class LiftgapError(Exception):
    """Base class for all domain errors."""


class InputError(LiftgapError):
    """Malformed input: bad dimensions, unparsable text, invalid tables."""


class ParseError(InputError):
    """Text input failed to parse; carries line (1-based) and column."""

    def __init__(self, message: str, line: int, column: int = 0):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class ParameterError(LiftgapError):
    """Parameter outside its documented range (e.g. gamma = 0)."""


class SizeCapError(LiftgapError):
    """Desk-scale size cap exceeded; see liftgap.caps for overrides."""


class HypothesisError(LiftgapError):
    """A stated hypothesis of an operation is violated (e.g. arity > d)."""


class UnboundedError(LiftgapError):
    """LP objective unbounded where a finite value is required."""


class CertificationError(LiftgapError):
    """An instance failed a required certification (e.g. opt > s)."""


class ExhaustedError(LiftgapError):
    """Trial budget exhausted; carries the best report seen."""

    def __init__(self, message: str, best_report=None):
        super().__init__(message)
        self.best_report = best_report


class InternalError(LiftgapError):
    """Exact post-verification of a computed object failed; a bug."""
