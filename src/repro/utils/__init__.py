"""Shared utilities: RNG streams, validation, retry/backoff policies."""

from repro.utils.retry import CircuitBreaker, RetryPolicy
from repro.utils.rng import RngStream, derive_rng
from repro.utils.validation import check_non_negative, check_positive

__all__ = [
    "CircuitBreaker",
    "RetryPolicy",
    "RngStream",
    "derive_rng",
    "check_non_negative",
    "check_positive",
]
