"""Shared exception types."""

__all__ = ["NumericError", "UsageError"]


class NumericError(ArithmeticError):
    """A computation produced a non-finite value and the run cannot continue."""


class UsageError(ValueError):
    """Bad command-line or config-file input."""
