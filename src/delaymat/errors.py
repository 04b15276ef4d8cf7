"""Exception types shared across the package."""


class DelayMatError(Exception):
    """Base class for all delaymat errors."""


class DimensionMismatch(DelayMatError):
    """Operands do not have compatible matrix dimensions."""


class DegreeCapExceeded(DelayMatError):
    """A piecewise polynomial would exceed the supported maximum degree."""


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


class UnwritablePath(DelayMatError):
    """An output path cannot be opened for writing; the message names
    the path as given."""


class SchemaError(DelayMatError):
    """An input file does not match the documented schema.

    Carries a ``location`` string of the form ``path:line:col`` (parse
    errors) or ``path: <json pointer>`` (semantic errors) so messages
    stay anchored to the offending input.
    """

    def __init__(self, message, location=None):
        self.location = location
        super().__init__(f"{location}: {message}" if location else message)
