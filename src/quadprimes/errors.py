"""Shared exception types with CLI exit codes attached."""


class QuadPrimesError(Exception):
    """Base class; `exit_code` is used by the CLI."""

    exit_code = 1


class FieldSpecError(QuadPrimesError):
    """Malformed or inconsistent field specification."""

    exit_code = 2


class UsageError(QuadPrimesError, ValueError):
    """An argument outside its domain: a malformed flag or a value such as
    a negative radius.  Also a ValueError, for library callers."""

    exit_code = 2


class GridFileError(QuadPrimesError, ValueError):
    """A file that is not a well-formed grid file.  Also a ValueError, for
    library callers."""


class BudgetError(QuadPrimesError):
    """A computation would exceed its memory/time budget."""

    exit_code = 3


class ExtentError(QuadPrimesError):
    """A box query reaches outside the precomputed grid extent."""

    exit_code = 4
