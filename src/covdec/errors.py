"""Exception taxonomy shared across the package.

Each class carries the exit code the CLI returns for it: ConfigError,
StateError, ShapeError and a bare CovdecError -> 2, DataError (incl.
ParseError) -> 3, NumericError -> 4. A closed stdout (BrokenPipeError, not
one of these) exits 141, 128 + SIGPIPE.
"""


class CovdecError(Exception):
    """Base class for every error raised by this package."""

    exit_code = 2


class ShapeError(CovdecError):
    """Operands with incompatible shapes."""


class ConfigError(CovdecError):
    """Invalid configuration or model geometry; `key` is the config key whose
    value was rejected, when one was."""

    def __init__(self, message: str = "", key: str | None = None):
        super().__init__(message)
        self.key = key


class DataError(CovdecError):
    """Invalid or degenerate input data."""

    exit_code = 3


class ParseError(DataError):
    """Malformed on-disk artifact; the message carries path and byte offset."""


class NumericError(CovdecError):
    """Non-finite value where a finite one is required."""

    exit_code = 4


class StateError(CovdecError):
    """Operation requires trained weights that are not present."""
