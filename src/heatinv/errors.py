"""Exception hierarchy shared across the package, and the rules of integer and
float arguments."""

import math
import numbers


class HeatInvError(Exception):
    """Base class for all package errors."""


class DomainError(HeatInvError, ValueError):
    """An argument lies outside its mathematical domain."""


class DataError(HeatInvError, ValueError):
    """Input data violate a structural requirement (non-finite values,
    mismatched grids, series too short for a stencil)."""


class GridMismatchError(DataError):
    """Two grid functions do not share the same time grid."""


class ScheduleError(HeatInvError, ValueError):
    """A peeling schedule is inconsistent with the data grid."""


class ConfigError(HeatInvError, ValueError):
    """An experiment configuration failed strict validation."""


class ParseError(HeatInvError, ValueError):
    """A data file could not be parsed.

    Carries the 1-based line number when known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class InversionError(HeatInvError, RuntimeError):
    """A reconstruction stage failed; carries the stage name, and the stage's
    exception as its __cause__."""

    def __init__(self, stage: str, message: str):
        self.stage = stage
        super().__init__(f"stage '{stage}': {message}")


#: the largest integer a knob may take: the largest int64, numpy's default integer
_INT_MAX = 2 ** 63 - 1


def _text(value, fmt=repr) -> str:
    """fmt(value), or, where CPython's int-to-text limit refuses an integer in
    value, an integer named by its bit length and anything else by its type."""
    try:
        return fmt(value)
    except ValueError:  # longer than sys.get_int_max_str_digits()
        if isinstance(value, numbers.Integral):
            sign = "a negative" if value < 0 else "an"
            return f"{sign} integer of {int(value).bit_length()} bits"
        return f"a {type(value).__name__} holding an integer too long to write"


def _finite(value) -> bool:
    """The one rule of a float knob's value: math.isfinite(value), an integer
    past float range (on which math.isfinite raises OverflowError) being
    no finite float."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _require_int(name: str, value, error: type = DomainError, least: int | None = None) -> None:
    """The one home of every integer knob's rule: raise error unless value is
    an integer (a numpy one too), not a bool, at least `least` if given and
    at most _INT_MAX."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name} must be an integer, got {_text(value)}")
    if least is not None and value < least:
        raise error(f"{name} must be >= {least}, got {_text(value, str)}")
    if value > _INT_MAX:
        raise error(f"{name} must be <= {_INT_MAX}, got {_text(value, str)}")
