"""Cross-cutting resilience primitives: deadlines, retries, breakers,
typed errors, and partial results.

This package has no dependencies on the rest of the library except
:class:`~repro.core.plan.LookupResult` (the base of
:class:`PartialResult`), so every layer — storage, shard, serve — can
import it without cycles.  See ``docs/resilience.md`` for the full
semantics.
"""

from .backend import BACKEND_READ_RETRY, ResilientBackend
from .breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from .deadline import DEFAULT_TIMEOUT_S, Deadline, default_timeout
from .errors import (CircuitOpenError, DeadlineExceeded, PartialResultError,
                     ResilienceError, StoreCorruptedError, StoreNotFoundError)
from .hedging import HedgeController, HedgePolicy
from .retry import RetryPolicy, retry

__all__ = [
    "CircuitBreaker", "CLOSED", "OPEN", "HALF_OPEN",
    "Deadline", "DEFAULT_TIMEOUT_S", "default_timeout",
    "ResilienceError", "StoreNotFoundError", "StoreCorruptedError",
    "DeadlineExceeded", "PartialResultError", "CircuitOpenError",
    "PartialResult",
    "RetryPolicy", "retry",
    "HedgePolicy", "HedgeController",
    "ResilientBackend", "BACKEND_READ_RETRY",
]


def __getattr__(name):
    # PartialResult subclasses core.LookupResult, and core transitively
    # imports storage, which imports resilience.errors — loading it
    # eagerly here would close an import cycle.  PEP 562 keeps
    # ``repro.resilience.PartialResult`` working without it.
    if name == "PartialResult":
        from .partial import PartialResult
        return PartialResult
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
