"""Small argument-validation helpers shared across the library.

Raising early with a clear message keeps the algorithmic modules free of
repetitive guard clauses. A bad value raises
:class:`~repro.exceptions.ConfigurationError` naming the field (a
:class:`ValueError`, so callers that catch the built-in still catch it).
"""

from __future__ import annotations

from typing import Any

from repro.exceptions import ConfigurationError


def require(condition: bool, message: str) -> None:
    """Raise :class:`ConfigurationError` with ``message`` unless ``condition`` holds."""
    if not condition:
        raise ConfigurationError(message)


def require_positive(value: float, name: str) -> float:
    """Return ``value`` if strictly positive, else raise :class:`ConfigurationError`."""
    if not value > 0:
        raise ConfigurationError(f"{name} must be > 0, got {value!r}")
    return value


def require_non_negative(value: float, name: str) -> float:
    """Return ``value`` if >= 0, else raise :class:`ConfigurationError`."""
    if value < 0:
        raise ConfigurationError(f"{name} must be >= 0, got {value!r}")
    return value


def require_probability(value: float, name: str) -> float:
    """Return ``value`` if within [0, 1], else raise :class:`ConfigurationError`."""
    if not 0.0 <= value <= 1.0:
        raise ConfigurationError(f"{name} must be within [0, 1], got {value!r}")
    return value


def require_type(value: Any, expected: type | tuple[type, ...], name: str) -> Any:
    """Return ``value`` if of the expected type, else raise :class:`TypeError`."""
    if not isinstance(value, expected):
        raise TypeError(f"{name} must be {expected}, got {type(value).__name__}")
    return value
