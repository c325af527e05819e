"""Small argument-validation helpers used across the library.

These raise :class:`~repro.exceptions.ConfigurationError` with a uniform
message format so user-facing errors always name the offending argument.
"""

from __future__ import annotations

from repro.exceptions import ConfigurationError

__all__ = [
    "check_positive",
    "check_non_negative",
]


def check_positive(name: str, value: float) -> float:
    """Return ``value`` if strictly positive, else raise."""
    if not value > 0:
        raise ConfigurationError(f"{name} must be > 0, got {value!r}")
    return value


def check_non_negative(name: str, value: float) -> float:
    """Return ``value`` if >= 0, else raise."""
    if value < 0:
        raise ConfigurationError(f"{name} must be >= 0, got {value!r}")
    return value
