"""Exception and warning types shared across the package."""


class DelayMatError(Exception):
    """Base class for all delaymat errors."""


class DimensionMismatch(DelayMatError):
    """Operands do not have compatible matrix dimensions."""


class DegreeCapExceeded(DelayMatError):
    """A piecewise polynomial would exceed the supported maximum degree."""


class CommutationError(DelayMatError):
    """A closed form that requires commuting coefficients got a
    noncommuting pair."""


class HypothesisViolation(DelayMatError):
    """History or forcing data does not commute with the right
    coefficient matrix, so the representation formula is not known to
    apply."""


class DataMismatch(DelayMatError, ValueError):
    """History or forcing data does not fit the system or the horizon.

    ``role`` names the data at fault, ``"history"`` or ``"forcing"``, and
    starts the message.
    """

    def __init__(self, role, message):
        self.role = role
        super().__init__(f"{role} {message}")


class NonFiniteOutput(DelayMatError, ValueError):
    """A writer met NaN or ±inf, which JSON cannot hold; the message
    names the key or row."""


class SchemaError(DelayMatError):
    """An input file does not match the documented schema.

    Carries a ``location`` string of the form ``path:line:col`` (parse
    errors) or ``path: <json pointer>`` (semantic errors) so messages
    stay anchored to the offending input.
    """

    def __init__(self, message, location=None):
        self.location = location
        super().__init__(f"{location}: {message}" if location else message)


class UnsupportedHypothesisWarning(UserWarning):
    """Emitted when a solve is forced past a failed commutation check;
    the result is a formal evaluation of the representation formula and
    need not solve the equation."""
