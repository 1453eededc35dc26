"""Shared exception types with CLI exit codes attached, and the one rule
for writing a number into an error message."""

from decimal import Decimal


def brief(n: int) -> str:
    """An integer for an error message: in full below 10^20, else to four
    significant digits (1.600e+601), so the message stays short however
    large the input that made it."""
    return str(n) if abs(n) < 10**20 else f"{Decimal(n):.3e}"


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
