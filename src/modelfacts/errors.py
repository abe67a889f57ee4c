"""Exception hierarchy with stable error codes.

Every user-facing failure carries a ``code`` string that the CLI maps to an
exit status; codes are part of the public contract and never change meaning.
"""

from __future__ import annotations


class ModelFactsError(Exception):
    """Base class for all expected (user-input) failures."""

    code = "ERROR"

    def __init__(self, message: str):
        super().__init__(message)
        self.message = message

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


class SchemaError(ModelFactsError):
    """A structured document does not match its schema."""

    code = "SCHEMA_ERROR"

    def __init__(self, path: str, reason: str):
        super().__init__(f"at '{path}': {reason}")
        self.path = path
        self.reason = reason


class UnsupportedVersionError(ModelFactsError):
    code = "UNSUPPORTED_VERSION"


class UnknownMetricError(ModelFactsError):
    code = "UNKNOWN_METRIC"


class MissingColumnError(ModelFactsError):
    code = "MISSING_COLUMN"

    def __init__(self, column: str):
        super().__init__(f"required column '{column}' is missing")
        self.column = column


class BadValueError(ModelFactsError):
    """A cell in a predictions file failed its type check."""

    code = "BAD_VALUE"

    def __init__(self, row: int, column: str, reason: str):
        super().__init__(f"row {row}, column '{column}': {reason}")
        self.row = row
        self.column = column
        self.reason = reason


class EmptyFileError(ModelFactsError):
    code = "EMPTY_FILE"


class DuplicateIdError(ModelFactsError):
    code = "DUPLICATE_ID"


class EmptyDatasetError(ModelFactsError):
    code = "EMPTY_DATASET"


class LengthMismatchError(ModelFactsError):
    code = "LENGTH_MISMATCH"


class SingleClassError(ModelFactsError):
    """AUC is undefined without at least one positive and one negative."""

    code = "SINGLE_CLASS"


class ZeroVarianceError(ModelFactsError):
    """R-squared is undefined when the truth values have no variance."""

    code = "ZERO_VARIANCE"


class ZeroBaselineError(ModelFactsError):
    code = "ZERO_BASELINE"


class NumericOverflowError(ModelFactsError):
    """A statistic of finite inputs is too large for a float."""

    code = "NUMERIC_OVERFLOW"


class ImplausibleAgeError(ModelFactsError):
    code = "IMPLAUSIBLE_AGE"


class UnknownCategoryError(ModelFactsError):
    code = "UNKNOWN_CATEGORY"


class DeclaredConflictError(ModelFactsError):
    """A manifest cell, at its manifest ``path``, contradicts the computed value."""

    code = "DECLARED_CONFLICT"

    def __init__(self, path: str, declared: object, computed: object):
        super().__init__(f"{path}: declared {declared!r} contradicts computed {computed!r}")
        self.path = path
        self.declared = declared
        self.computed = computed


class NoOverlapError(ModelFactsError):
    code = "NO_OVERLAP"


class BadArgumentError(ModelFactsError, ValueError):
    """A library call got an argument outside its domain; also a ValueError."""

    code = "BAD_ARGUMENT"
