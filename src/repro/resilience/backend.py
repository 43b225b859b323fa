"""``ResilientBackend``: retry-with-backoff + circuit breaker over reads.

Wraps any :class:`~repro.storage.backends.StorageBackend`.  Read-side
operations (``read_bytes`` / ``read_view`` / ``exists`` / ``list`` /
``blob_version``) are retried under a :class:`RetryPolicy` and gated by
one :class:`CircuitBreaker` per wrapped backend; writes and deletes pass
straight through (they are already atomic, and blind write retries can
reorder against a concurrent writer).

Two failure classes are deliberately *not* retried:

- :class:`StoreNotFoundError` — an absent blob is an answer, not a
  transient fault.
- :class:`StoreCorruptedError` — corruption retries are owned by the
  cache layers (retry-*once* semantics in ``BlobCache``/``BufferPool``);
  retrying them here too would multiply the attempts.

Every read *capability* gets the same treatment as the core reads:
``read_view`` / ``blob_version`` / ``read_range`` / ``size`` are
retried under the policy and breaker when the inner backend has them,
while non-I/O capabilities (``batch`` / ``url`` / ``scheme`` /
``remote`` / ``stats`` / ``bind_stats`` / ``bind_hedger`` /
``writable``) are forwarded untouched — so capability sniffing
(``getattr``) sees the same surface as the inner backend, and a
remote-backed read-only open is resilient on every access path, not
just ``read_bytes``.  Inside a store read the retry loop stops at the
read's deadline (:data:`~repro.resilience.deadline.read_deadline`).
"""

from __future__ import annotations

from typing import Optional

from .breaker import CircuitBreaker
from .deadline import read_deadline
from .errors import StoreCorruptedError, StoreNotFoundError
from .retry import RetryPolicy, retry

__all__ = ["ResilientBackend", "BACKEND_READ_RETRY"]

#: Default read-retry posture: three attempts, fast full-jitter backoff,
#: only transient I/O faults retried.
BACKEND_READ_RETRY = RetryPolicy(
    attempts=3, base_delay=0.02, max_delay=0.5, jitter=1.0,
    retry_on=(OSError, ConnectionError),
    give_up_on=(StoreNotFoundError, StoreCorruptedError),
)


class ResilientBackend:
    """Fault-tolerant read facade over a storage backend."""

    def __init__(self, inner, *,
                 policy: RetryPolicy = BACKEND_READ_RETRY,
                 breaker: Optional[CircuitBreaker] = None):
        self.inner = inner
        self.policy = policy
        self.breaker = breaker if breaker is not None else CircuitBreaker(
            name=f"backend:{getattr(inner, 'url', repr(inner))}")

    # -- retried reads -----------------------------------------------------
    def _read(self, fn):
        # A store read binds its deadline: no attempt or backoff sleep
        # starts once it is spent.
        return retry(fn, self.policy, breaker=self.breaker,
                     deadline=read_deadline.get())

    def read_bytes(self, name: str) -> bytes:
        return self._read(lambda: self.inner.read_bytes(name))

    def exists(self, name: str) -> bool:
        return self._read(lambda: self.inner.exists(name))

    def list(self):
        return self._read(self.inner.list)

    # -- pass-through writes ----------------------------------------------
    def write_bytes(self, name: str, payload) -> int:
        return self.inner.write_bytes(name, payload)

    def delete(self, name: str) -> None:
        self.inner.delete(name)

    #: Read capabilities retried (per call) under the policy + breaker.
    _RETRIED_CAPS = ("read_view", "blob_version", "size")
    #: Non-I/O capabilities forwarded verbatim from the inner backend.
    _FORWARDED_CAPS = ("batch", "url", "scheme", "remote", "stats",
                       "bind_stats", "bind_hedger", "writable")

    # -- capabilities, present iff the inner backend has them --------------
    def __getattr__(self, attr):
        if attr in self._RETRIED_CAPS:
            inner_value = getattr(self.inner, attr)  # may raise Attribute
            return lambda name: self._read(lambda: inner_value(name))
        if attr == "read_range":
            inner_range = getattr(self.inner, attr)
            return lambda name, start, length: self._read(
                lambda: inner_range(name, start, length))
        if attr in self._FORWARDED_CAPS:
            return getattr(self.inner, attr)
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {attr!r}")

    def __repr__(self) -> str:
        return f"ResilientBackend({self.inner!r}, {self.breaker!r})"
