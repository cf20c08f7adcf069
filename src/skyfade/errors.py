"""Exception types raised across the package.

Everything derives from SkyfadeError so callers can catch the package's
failures with a single except clause while still distinguishing causes.
"""

import numpy as np


class SkyfadeError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(SkyfadeError):
    """An input value violates a documented precondition."""


class UndefinedGeometryError(SkyfadeError):
    """A geometric quantity is undefined (e.g. coincident endpoints)."""


class InsufficientDataError(SkyfadeError):
    """Too few samples to compute the requested statistic."""


class InsufficientCoverageError(InsufficientDataError):
    """The data does not cover the requested estimation domain.

    Carries the list of empty cells or lags in ``missing``.
    """

    def __init__(self, message: str, missing=None):
        super().__init__(message)
        self.missing = list(missing) if missing is not None else []


class DegenerateCorrelationError(SkyfadeError):
    """A correlation is undefined because one input has zero energy."""


class SingularSystemError(SkyfadeError):
    """A linear system could not be solved to the required accuracy."""


class NotPositiveDefiniteError(SkyfadeError):
    """A covariance matrix admits no usable triangular factorization."""


class SchemaError(SkyfadeError):
    """A file does not conform to the expected schema.

    ``field`` names the offending column or key when known.
    """

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class IngestError(SkyfadeError):
    """Ingestion aborted because too many rows failed validation."""

    def __init__(self, message: str, bad_rows=None):
        super().__init__(message)
        self.bad_rows = list(bad_rows) if bad_rows is not None else []


class RowErrors(dict):
    """Row index -> the first error found in that row.

    Column code records failing rows here, rule by rule, instead of
    raising, so a file reports every bad row; :meth:`strict` raises
    instead, for callers that accept no bad row (a one-row check, or
    columns the package built itself).
    """

    @classmethod
    def strict(cls, function, *args):
        """``function(*args, errors)``, raising the error of the lowest
        failing row, if any."""
        errors = cls()
        result = function(*args, errors)
        if errors:
            raise errors[min(errors)]
        return result

    def flag(self, bad, make_error) -> None:
        """Record ``make_error(i)`` for each row ``i`` where ``bad`` holds,
        unless an earlier rule already failed that row."""
        for i in np.flatnonzero(bad).tolist():
            if i not in self:
                self[i] = make_error(i)
