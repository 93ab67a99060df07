"""Exception hierarchy shared by every pipeline stage.

Three broad families map onto the CLI exit codes: ConfigError -> 2,
DataError -> 3, NumericError -> 4.
"""

from __future__ import annotations

import copyreg


class WalkforgeError(Exception):
    """Base class for every error this package raises on purpose."""

    def __reduce__(self):
        # Exception pickles as cls(*args), which feeds the formatted message
        # back into a subclass __init__ that expects the raw fields. Rebuild
        # from args and attributes instead, without calling __init__, so an
        # error raised in a pool worker reaches the parent unchanged.
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class ConfigError(WalkforgeError):
    """Invalid configuration, arguments, or parameter combinations."""


class DataError(WalkforgeError):
    """Malformed, inconsistent, or insufficient input data."""


class NumericError(WalkforgeError):
    """Numerical failure while fitting or training."""


# --- ingest ---------------------------------------------------------------

class MissingColumn(DataError):
    def __init__(self, name: str) -> None:
        super().__init__(f"missing required column {name!r}")
        self.name = name


class DuplicateDate(DataError):
    def __init__(self, date: str) -> None:
        super().__init__(f"duplicate date {date}")
        self.date = date


class EmptyFile(DataError):
    def __init__(self, path: str) -> None:
        super().__init__(f"no data rows in {path}")
        self.path = path


class GapTooLong(DataError):
    def __init__(self, column: str, start_date: str, length: int, cap: int) -> None:
        super().__init__(
            f"column {column!r} has a {length}-day gap starting {start_date}, "
            f"fill cap is {cap}"
        )
        self.column = column
        self.start_date = start_date
        self.length = length
        self.cap = cap


class LeadingNaN(DataError):
    def __init__(self, column: str) -> None:
        super().__init__(f"column {column!r} starts with a missing value")
        self.column = column


class OhlcViolation(DataError):
    def __init__(self, detail: str) -> None:
        super().__init__(f"price columns violate low <= open,close <= high > 0: {detail}")
        self.detail = detail


class InvalidConfig(ConfigError):
    def __init__(self, detail: str) -> None:
        super().__init__(detail)
        self.detail = detail


# --- indicators -----------------------------------------------------------

class InvalidSpec(ConfigError):
    def __init__(self, detail: str) -> None:
        super().__init__(detail)
        self.detail = detail


class ZeroDenominator(DataError):
    def __init__(self, index: int) -> None:
        super().__init__(f"rate of change undefined at row {index}: base value is zero")
        self.index = index


class SeriesTooShort(DataError):
    def __init__(self, n: int, required: int) -> None:
        super().__init__(f"series has {n} rows, feature expansion needs at least {required}")
        self.n = n
        self.required = required


# --- scaling --------------------------------------------------------------

class EmptyRange(DataError):
    def __init__(self, detail: str = "row range selects no rows") -> None:
        super().__init__(detail)


class ColumnMismatch(DataError):
    def __init__(self, detail: str) -> None:
        super().__init__(detail)


# --- forest ---------------------------------------------------------------

class DimensionMismatch(DataError):
    def __init__(self, expected: int, got: int) -> None:
        super().__init__(f"expected {expected} features, got {got}")
        self.expected = expected
        self.got = got


class KTooLarge(ConfigError):
    def __init__(self, k: int, p: int) -> None:
        super().__init__(f"cannot take top {k} of {p} ranked features")
        self.k = k
        self.p = p


# --- splitter -------------------------------------------------------------

class TooShort(DataError):
    def __init__(self, n: int, required: int) -> None:
        super().__init__(f"{n} rows cannot hold one train+test batch of {required}")
        self.n = n
        self.required = required


class RangeTooShort(DataError):
    def __init__(self, length: int, required: int) -> None:
        super().__init__(f"range of {length} rows is shorter than {required}")
        self.length = length
        self.required = required


# --- nets -----------------------------------------------------------------

class ShapeMismatch(DataError):
    def __init__(self, detail: str) -> None:
        super().__init__(detail)


class NonFiniteActivation(NumericError):
    def __init__(self, where: str) -> None:
        super().__init__(f"non-finite activation in {where}")
        self.where = where


class LengthMismatch(DataError):
    def __init__(self, a: int, b: int) -> None:
        super().__init__(f"length mismatch: {a} vs {b}")
        self.a = a
        self.b = b


class StaleCache(DataError):
    def __init__(self, detail: str = "backward needs a cache from a train-mode forward pass") -> None:
        super().__init__(detail)


class DivergedLoss(NumericError):
    def __init__(self, epoch: int) -> None:
        super().__init__(f"training loss became non-finite at epoch {epoch}")
        self.epoch = epoch


# --- baselines ------------------------------------------------------------

class NonFiniteInput(DataError):
    def __init__(self, detail: str = "inputs contain non-finite values") -> None:
        super().__init__(detail)


# --- evalreport -----------------------------------------------------------

class ZeroActual(DataError):
    def __init__(self, index: int) -> None:
        super().__init__(f"actual value at position {index} is zero, relative error undefined")
        self.index = index


class EmptyGroup(DataError):
    def __init__(self, detail: str = "no batch metrics to aggregate") -> None:
        super().__init__(detail)


# --- serialization --------------------------------------------------------

class BadArtifact(DataError):
    def __init__(self, path: str, detail: str) -> None:
        super().__init__(f"{path}: {detail}")
        self.path = path
        self.detail = detail
