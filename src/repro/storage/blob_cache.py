"""Process-wide read-through cache for deserialized store payloads.

``repro.open(url, writable=False)`` opens are immutable by contract, so
the expensive part of an open — reading the payload, unpickling it, and
rebuilding the auxiliary partitions — can be done once per *blob
content* and shared by every subsequent open in the process.
:class:`BlobCache` holds those deserialized bundles behind a byte-budgeted
LRU, keyed on ``(backend identity, blob name)`` and guarded by the
backend's freshness stamp (inode+mtime+size for ``file://``, a write
counter for ``mem://``, the archive stamp for ``zip://`` — see
:func:`repro.storage.backends.blob_version`):

- a **hit** requires the stored version to equal the blob's *current*
  version; a re-saved blob therefore misses naturally, even without an
  explicit invalidation;
- ``save`` paths additionally call :meth:`BlobCache.invalidate` /
  :meth:`BlobCache.invalidate_backend` so retired bundles free their
  memory immediately instead of waiting for LRU pressure;
- blobs whose backend cannot produce a version stamp are never cached
  (served fresh every time), so correctness never depends on the
  capability being present.

One shared instance serves the whole process (:func:`payload_cache`);
its budget is adjustable via :func:`configure_payload_cache`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Optional, Tuple

from ..resilience.errors import StoreCorruptedError
from .backends import StorageBackend, backend_identity, blob_version

__all__ = ["BlobCache", "payload_cache", "configure_payload_cache"]

#: Default budget of the process-wide payload cache.  Sized for "a few
#: warm stores", not "every store ever opened" — tune with
#: :func:`configure_payload_cache`.
DEFAULT_BUDGET_BYTES = 256 * 1024 * 1024


class BlobCache:
    """Byte-budgeted LRU of per-blob deserialized objects.

    Thread-safe; loaders run outside the lock.  Unlike
    :class:`~repro.storage.buffer_pool.BufferPool` (hot-path partition
    faults), opens are rare and idempotent, so concurrent misses on the
    same blob may both load — last insert wins.
    """

    def __init__(self, budget_bytes: Optional[int] = DEFAULT_BUDGET_BYTES):
        if budget_bytes is not None and budget_bytes <= 0:
            raise ValueError("budget_bytes must be positive or None")
        self.budget_bytes = budget_bytes
        self._lock = threading.Lock()
        #: key -> (version, obj, size)
        self._entries: "OrderedDict[Tuple[str, str], Tuple[Any, Any, int]]" \
            = OrderedDict()
        self._used_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.corruption_retries = 0

    # ------------------------------------------------------------------
    @property
    def used_bytes(self) -> int:
        """Bytes currently charged to cached bundles."""
        return self._used_bytes

    def __len__(self) -> int:
        return len(self._entries)

    def cached_keys(self):
        """Cached ``(identity, blob)`` keys, least recently used first."""
        with self._lock:
            return list(self._entries)

    # ------------------------------------------------------------------
    def get(
        self,
        backend: StorageBackend,
        name: str,
        loader: Callable[[Any], Tuple[Any, int]],
    ) -> Any:
        """The object cached for blob ``name`` of ``backend``, loading
        (and caching) it when absent or stale.

        ``loader(version)`` returns ``(object, charged_bytes)``.  The
        version stamp is taken *before* the load and handed to it, so a
        write racing the load can only make the entry stale-keyed (it
        will miss next time), never let stale content impersonate fresh
        — and a backend that revalidates per read reuses this stamp
        instead of asking for the same one again.

        A loader that raises :class:`StoreCorruptedError` is retried
        once (``corruption_retries`` counts them): a checksum failure
        can be a torn read racing an atomic replace, and the second
        attempt observes the settled blob.  Persistent corruption
        propagates the typed error to the caller.
        """
        key = (backend_identity(backend), name)
        version = blob_version(backend, name)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                if version is not None and entry[0] == version:
                    self._entries.move_to_end(key)
                    self.hits += 1
                    return entry[1]
                self._drop(key)
            self.misses += 1
        try:
            obj, size = loader(version)
        except StoreCorruptedError:
            self.corruption_retries += 1
            version = blob_version(backend, name)  # re-stamp: may be mid-save
            obj, size = loader(version)
        if version is None:
            return obj  # unversionable: serve fresh, never cache
        size = int(size)
        if self.budget_bytes is not None and size > self.budget_bytes:
            return obj
        with self._lock:
            self._drop(key)
            self._entries[key] = (version, obj, size)
            self._used_bytes += size
            self._evict_over_budget()
        return obj

    # ------------------------------------------------------------------
    def invalidate(self, backend: StorageBackend, name: str) -> None:
        """Drop the entry for one blob (absent entries are a no-op)."""
        key = (backend_identity(backend), name)
        with self._lock:
            self._drop(key)

    def invalidate_backend(self, backend: StorageBackend) -> None:
        """Drop every entry belonging to ``backend``'s identity (the
        whole-container hook behind sharded ``save`` and stale-blob
        cleanup)."""
        identity = backend_identity(backend)
        with self._lock:
            for key in [k for k in self._entries if k[0] == identity]:
                self._drop(key)

    def clear(self) -> None:
        """Drop everything (tests, memory-pressure escape hatch)."""
        with self._lock:
            self._entries.clear()
            self._used_bytes = 0

    def _evict_over_budget(self) -> None:
        """Drop least recently used entries until under budget (the
        caller holds the lock)."""
        while (self.budget_bytes is not None
               and self._used_bytes > self.budget_bytes and self._entries):
            _, (_, _, evicted) = self._entries.popitem(last=False)
            self._used_bytes -= evicted
            self.evictions += 1

    def _drop(self, key) -> None:
        entry = self._entries.pop(key, None)
        if entry is not None:
            self._used_bytes -= entry[2]

    def __repr__(self) -> str:
        budget = ("unbounded" if self.budget_bytes is None
                  else f"{self.budget_bytes}B")
        return (f"BlobCache(budget={budget}, used={self._used_bytes}B, "
                f"entries={len(self._entries)}, hits={self.hits}, "
                f"misses={self.misses})")


_payload_cache = BlobCache()


def payload_cache() -> BlobCache:
    """The process-wide payload cache behind ``repro.open``."""
    return _payload_cache


def configure_payload_cache(budget_bytes: Optional[int]) -> BlobCache:
    """Resize the process-wide cache budget (``None`` = unbounded).

    Existing entries are kept but immediately subjected to the new
    budget; returns the cache for chaining.
    """
    cache = _payload_cache
    if budget_bytes is not None and budget_bytes <= 0:
        raise ValueError("budget_bytes must be positive or None")
    with cache._lock:
        cache.budget_bytes = budget_bytes
        cache._evict_over_budget()
    return cache
