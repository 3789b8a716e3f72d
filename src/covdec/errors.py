"""Exception taxonomy shared across the package.

The CLI maps these to exit codes: ConfigError/StateError/ShapeError -> 2,
DataError (incl. ParseError) -> 3, NumericError -> 4. A closed stdout
(BrokenPipeError, not one of these) exits 141, 128 + SIGPIPE.
"""


class CovdecError(Exception):
    """Base class for every error raised by this package."""


class ShapeError(CovdecError):
    """Operands with incompatible shapes."""


class ConfigError(CovdecError):
    """Invalid configuration or model geometry."""


class DataError(CovdecError):
    """Invalid or degenerate input data."""


class ParseError(DataError):
    """Malformed on-disk artifact; the message carries path and byte offset."""


class NumericError(CovdecError):
    """Non-finite value where a finite one is required."""


class StateError(CovdecError):
    """Operation requires trained weights that are not present."""
