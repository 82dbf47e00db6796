"""Exception taxonomy shared across the toolkit.

The CLI maps these onto exit codes: ConfigError -> 1, DataError -> 2,
NumericalError -> 3.
"""

import os


class DataSelectError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(DataSelectError):
    """Invalid configuration, flags, or parameter values."""


class DataError(DataSelectError):
    """Malformed or inconsistent input data."""


class ParseError(DataError):
    """A file failed to parse; carries the file's path and the offending line
    number, both of which the message names."""

    def __init__(self, message: str, path: str | os.PathLike, line: int):
        self.path = path
        self.line = line
        super().__init__(f"{path}, line {line}: {message}")


class NumericalError(DataSelectError):
    """A numerical procedure diverged or produced non-finite values."""
