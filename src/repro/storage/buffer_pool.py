"""LRU buffer pool with a byte budget.

This is the reproduction's stand-in for the paper's three hardware tiers
(AWS t2-medium / g4dn.xlarge / A10 server).  What distinguishes those tiers
for the evaluated workloads is whether a representation fits the available
memory pool; here the pool budget is an explicit number of bytes.  When a
store's partitions exceed the budget, the pool evicts the least recently used
partition, and the next access pays disk I/O + decompression again — exactly
the cost the paper's Table I measures and DeepMapping avoids.

Stores cache under keys from :func:`new_pool_key`, one process-wide
counter, so any number of stores can share one pool without naming
schemes: a key is never issued twice, not even after its store is
collected (which ``id()`` would not guarantee).
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable, Optional, Tuple

from ..resilience.errors import StoreCorruptedError
from .stats import StoreStats

__all__ = ["BufferPool", "MemoryBudgetError", "new_pool_key"]

_pool_keys = itertools.count()


def new_pool_key() -> int:
    """A pool key never issued before in this process."""
    return next(_pool_keys)


class MemoryBudgetError(MemoryError):
    """Raised when a single object cannot fit the pool even when empty.

    Stores that must materialize such objects (e.g. the DeepSqueeze decoder
    output) surface this as the paper's "failed" / OOM entries.
    """


class _Fault:
    """One in-flight load: the leader fills it, followers wait on it."""

    __slots__ = ("event", "obj", "error")

    def __init__(self):
        self.event = threading.Event()
        self.obj = None
        self.error = None


class BufferPool:
    """Byte-budgeted LRU cache of deserialized partitions.

    The pool is thread-safe: the sharded store fans per-shard lookups out
    on a thread pool while all shards share one pool, so bookkeeping is
    guarded by a lock.  Loaders run *outside* the lock (they do disk I/O
    and decompression), and faults are **deduplicated per key**: when
    several threads miss on the same partition at once, exactly one runs
    ``loader()`` while the rest wait on the in-flight fault and receive
    its object (counted under ``pool_waits``) — without this, the sharded
    fan-out decompresses the same partition once per caller (the classic
    thundering herd).  If the leading loader raises, each waiter retries
    from scratch (one of them becomes the next leader), so per-caller
    error semantics match the un-deduplicated pool.  A load that
    straddles an ``invalidate()``/``clear()`` is returned to its callers
    but never cached (generation check), so a rebuild that retires
    partitions cannot have stale content resurrected by an in-flight
    loader.

    Parameters
    ----------
    budget_bytes:
        Maximum total size of cached objects.  ``None`` means unbounded
        (the paper's "dataset fits memory" configurations).
    stats:
        Optional stats sink.  Counters: ``pool_hits``, ``pool_misses``,
        ``pool_waits`` (deduplicated concurrent faults) and
        ``pool_evictions``.  The loader itself should record its own
        ``io`` / ``decompress`` / ``deserialize`` timers.
    strict:
        When True, an object larger than the whole budget raises
        :class:`MemoryBudgetError` instead of being passed through uncached.
    """

    def __init__(
        self,
        budget_bytes: Optional[int] = None,
        stats: Optional[StoreStats] = None,
        strict: bool = False,
    ):
        if budget_bytes is not None and budget_bytes <= 0:
            raise ValueError("budget_bytes must be positive or None")
        self.budget_bytes = budget_bytes
        self.stats = stats if stats is not None else StoreStats()
        self.strict = strict
        self._entries: "OrderedDict[Hashable, Tuple[Any, int]]" = OrderedDict()
        self._used_bytes = 0
        self.peak_bytes = 0
        self._lock = threading.Lock()
        # In-flight faults, one per key: followers wait on the leader's
        # event instead of re-running the loader (see class docstring).
        self._faults: dict = {}
        # Bumped by invalidate()/clear(); a load that straddles a bump is
        # returned to its caller but never cached (it may be stale: the
        # key's partition was just retired).
        self._generation = 0

    # ------------------------------------------------------------------
    @property
    def used_bytes(self) -> int:
        """Bytes currently cached."""
        return self._used_bytes

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    # ------------------------------------------------------------------
    def get(self, key: Hashable, loader: Callable[[], Tuple[Any, int]]) -> Any:
        """Return the object cached under ``key``, loading it on a miss.

        ``loader`` must return ``(object, size_bytes)``.  On a miss the
        loaded object is inserted and LRU entries are evicted until the
        budget holds.  Concurrent misses on one key run ``loader()``
        once: the first thread leads, the rest wait and share its result
        (``pool_waits``).  Objects larger than the entire budget are
        returned uncached (or raise, under ``strict``), mirroring a scan
        that streams through memory without being retainable.
        """
        while True:
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None:
                    self._entries.move_to_end(key)
                    self.stats.bump("pool_hits")
                    return entry[0]
                fault = self._faults.get(key)
                if fault is None:
                    fault = _Fault()
                    self._faults[key] = fault
                    generation = self._generation
                    self.stats.bump("pool_misses")
                    break
                self.stats.bump("pool_waits")
            fault.event.wait()
            if fault.error is None:
                return fault.obj
            # The leader's loader failed; retry from scratch — this
            # follower (or another) becomes the next leader and raises
            # its own error, preserving per-caller failure semantics.

        try:
            # Deliberately outside the lock (I/O-heavy).  Corruption is
            # treated as a cache-miss-and-retry-once: a checksum failure
            # may be a torn read racing an atomic replace, and the second
            # attempt sees the settled blob.  If it fails again, the
            # typed error propagates to this leader and every waiter
            # retries per the usual fault semantics.
            try:
                obj, size = loader()
            except StoreCorruptedError:
                self.stats.bump("pool_corruption_retries")
                obj, size = loader()
            size = int(size)
            if self.budget_bytes is not None and size > self.budget_bytes \
                    and self.strict:
                raise MemoryBudgetError(
                    f"object of {size} bytes exceeds pool budget "
                    f"of {self.budget_bytes} bytes"
                )
        except BaseException as exc:
            fault.error = exc
            with self._lock:
                self._pop_fault(key, fault)
            fault.event.set()
            raise

        with self._lock:
            if (key not in self._entries and generation == self._generation
                    and (self.budget_bytes is None
                         or size <= self.budget_bytes)):
                self._insert(key, obj, size)
            self._pop_fault(key, fault)
            fault.obj = obj
            fault.event.set()
        return obj

    def _pop_fault(self, key: Hashable, fault: "_Fault") -> None:
        """Retire ``fault`` if it is still the registered one (an
        invalidation may have detached it and a successor taken the
        slot; the successor must not be evicted by the old leader)."""
        if self._faults.get(key) is fault:
            del self._faults[key]

    def put(self, key: Hashable, obj: Any, size: int) -> None:
        """Insert (or replace) an entry directly."""
        with self._lock:
            self._invalidate(key)
            if self.budget_bytes is not None and size > self.budget_bytes:
                if self.strict:
                    raise MemoryBudgetError(
                        f"object of {size} bytes exceeds pool budget "
                        f"of {self.budget_bytes} bytes"
                    )
                return
            self._insert(key, obj, int(size))

    def invalidate(self, key: Hashable) -> None:
        """Drop ``key`` from the cache if present."""
        with self._lock:
            self._invalidate(key)

    def _invalidate(self, key: Hashable) -> None:
        self._generation += 1
        entry = self._entries.pop(key, None)
        if entry is not None:
            self._used_bytes -= entry[1]
        # Detach any in-flight fault: a getter arriving *after* this
        # invalidation must lead a fresh load, not adopt the retired
        # content the detached leader is still producing.  (Callers that
        # joined the fault before the invalidation get that content,
        # exactly like a pre-dedup loader that straddled the bump.)
        self._faults.pop(key, None)

    def clear(self) -> None:
        """Drop every cached entry."""
        with self._lock:
            self._generation += 1
            self._entries.clear()
            self._faults.clear()
            self._used_bytes = 0

    def cached_keys(self):
        """Keys currently cached, least recently used first."""
        with self._lock:
            return list(self._entries)

    # ------------------------------------------------------------------
    def _insert(self, key: Hashable, obj: Any, size: int) -> None:
        self._entries[key] = (obj, size)
        self._used_bytes += size
        self._evict_to_budget()
        self.peak_bytes = max(self.peak_bytes, self._used_bytes)

    def _evict_to_budget(self) -> None:
        if self.budget_bytes is None:
            return
        while self._used_bytes > self.budget_bytes and self._entries:
            _, (_, size) = self._entries.popitem(last=False)
            self._used_bytes -= size
            self.stats.bump("pool_evictions")

    def __repr__(self) -> str:
        budget = "unbounded" if self.budget_bytes is None else f"{self.budget_bytes}B"
        return (
            f"BufferPool(budget={budget}, used={self._used_bytes}B, "
            f"entries={len(self._entries)})"
        )
