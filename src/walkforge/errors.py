"""Exception hierarchy shared by every pipeline stage.

Three families map onto the CLI exit codes: ConfigError -> 2,
DataError -> 3, NumericError -> 4. Each is raised with its message alone,
so an error raised in a pool worker pickles as cls(message) and reaches
the parent unchanged.
"""

from __future__ import annotations


class WalkforgeError(Exception):
    """Base class for every error this package raises on purpose."""


class ConfigError(WalkforgeError):
    """Invalid configuration, arguments, or parameter combinations."""


class DataError(WalkforgeError):
    """Malformed, inconsistent, or insufficient input data."""


class NumericError(WalkforgeError):
    """Numerical failure while fitting or training."""
