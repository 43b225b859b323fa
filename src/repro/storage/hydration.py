"""Lazy shard hydration over range-read backends.

A sharded store's manifest routes keys (and prunes misses) without
touching a single shard payload — so a reader over remote storage
should not *download* a shard until a batch actually routes keys into
it.  This module supplies the two pieces that make that work:

- :class:`RangeReader` — one small fixed-prefix fetch reads the
  container index; :func:`~repro.storage.zerocopy.parse_index` (the one
  place that knows the layout) checks it against the blob's length and
  turns it into the byte ranges of the head pickle, the buffer segments
  and the CRC footer.  :meth:`RangeReader.fetch` pulls them as
  **coalesced** range requests (adjacent/overlapping ranges within
  :data:`COALESCE_GAP` merge into one request) and reassembles a
  container image that :func:`~repro.storage.zerocopy.unpack` loads —
  checksums intact — exactly as if it had been read whole.

- :class:`LazyShard` — a deferred-load proxy standing in for a
  :class:`~repro.core.deep_mapping.DeepMapping` shard.  Construction
  costs nothing; the first attribute touch (a routed lookup segment,
  a save) runs the loader exactly once under
  a lock.  ``len()`` answers from the manifest's row count so the
  store facade (``__len__`` / ``repr`` / load-time bookkeeping) never
  forces a download.  Contended hydration bumps a ``hydration_waits``
  counter — the observable cost of two batches racing to fault in the
  same shard (the loader itself dedupes through ``BlobCache``'s
  per-key fault locking, so the bytes are only fetched once).

The layer is backend-agnostic: anything exposing
``read_range(name, start, length) -> bytes`` and ``size(name)`` can be
hydrated from — the HTTP backend (``storage/remote.py``), but also the
local backends (useful for tests and for any future object-store
transport).
"""

from __future__ import annotations

import threading
from typing import Callable, List, Optional, Sequence, Tuple

from .zerocopy import ContainerIndex, index_size, parse_index

__all__ = ["RangeReader", "LazyShard", "SNIFF_BYTES", "COALESCE_GAP"]

#: Bytes of the fixed-prefix sniff: covers magic + header + 254 slot
#: entries, so one request usually reads the whole index (a payload
#: whose ``T_aux`` runs to hundreds of partitions — one slot each —
#: costs one follow-up request).  Blobs smaller than this arrive whole
#: in the sniff and need no second request.
SNIFF_BYTES = 4096

#: Two wanted ranges closer than this are fetched as one request (the
#: gap bytes ride along).  Matches the container's 64-byte alignment
#: padding scale: issuing a second HTTP round-trip to skip a sub-page
#: gap always loses.
COALESCE_GAP = 4096


class RangeReader:
    """Assemble a zero-copy container from byte-range reads.

    Parameters
    ----------
    backend:
        Anything with ``read_range(name, start, length) -> bytes``
        (short reads at end-of-blob are fine and expected) and
        ``size(name)``.
    name:
        Blob name inside the backend.
    prefix, blob_size:
        Optional already-fetched leading bytes and the blob's length
        (a transport whose first response carries both, as an HTTP
        ``Content-Range`` does, saves the sniff and the size probe).

    After construction :attr:`index` holds the container's extents —
    checked against ``blob_size``, so a damaged slot table raises
    :class:`~repro.resilience.errors.StoreCorruptedError` naming the
    blob here, before :meth:`fetch` allocates anything — or None when
    the blob is not a container.  ``ranges_fetched`` / ``bytes_fetched``
    account every request made through this reader (including the
    sniff).
    """

    def __init__(self, backend, name: str,
                 prefix: Optional[bytes] = None,
                 blob_size: Optional[int] = None):
        self.backend = backend
        self.name = name
        self.ranges_fetched: List[Tuple[int, int]] = []
        self.bytes_fetched = 0
        if prefix is None:
            prefix = self._read(0, SNIFF_BYTES)
        prefix = bytes(prefix)
        if blob_size is None:
            # A short sniff is the whole blob; otherwise ask.
            blob_size = len(prefix) if len(prefix) < SNIFF_BYTES \
                else int(backend.size(name))
        self.total_size = blob_size
        #: Whole blob already in hand (it was no longer than the sniff).
        self.whole: Optional[bytes] = (
            prefix if len(prefix) >= blob_size else None)
        what = f"{name!r} in {getattr(backend, 'url', backend)}"
        need = index_size(prefix, blob_size, what)
        if need is not None and len(prefix) < need:
            # Giant slot table (hundreds of buffers): one follow-up
            # request completes the index.
            prefix += self._read(len(prefix), need - len(prefix))
        self._prefix = prefix
        self.index: Optional[ContainerIndex] = (
            None if need is None else parse_index(prefix, blob_size, what))

    @property
    def packed(self) -> bool:
        """True when the blob is a zero-copy container."""
        return self.index is not None

    # -- accounting-aware transport ------------------------------------
    def _read(self, start: int, length: int) -> bytes:
        data = self.backend.read_range(self.name, start, length)
        self.ranges_fetched.append((start, len(data)))
        self.bytes_fetched += len(data)
        return data

    # -- range planning ------------------------------------------------
    def _wanted(self, segments: Optional[Sequence[int]]) -> List[
            Tuple[int, int]]:
        """Absolute (start, end) extents needed beyond the prefix."""
        index = self.index
        chosen = index.segments if segments is None \
            else [index.segments[i] for i in segments]
        have = len(self._prefix)
        return sorted((max(start, have), end)
                      for start, end in (index.head, *chosen, index.footer)
                      if end > have)

    @staticmethod
    def coalesce(extents: List[Tuple[int, int]],
                 gap: int = COALESCE_GAP) -> List[Tuple[int, int]]:
        """Merge sorted (start, end) extents within ``gap`` bytes."""
        merged: List[Tuple[int, int]] = []
        for start, end in extents:
            if merged and start - merged[-1][1] <= gap:
                merged[-1] = (merged[-1][0], max(merged[-1][1], end))
            else:
                merged.append((start, end))
        return merged

    # -- assembly --------------------------------------------------------
    def fetch(self, segments: Optional[Sequence[int]] = None,
              gap: int = COALESCE_GAP) -> memoryview:
        """Materialize the container image as a memoryview.

        ``segments`` restricts which buffer slots are pulled (default:
        all, which is what hydration does, so the image verifies like a
        whole read).  Unfetched segments read as zeros and fail their
        checksums — a sparse image is for callers that read the bytes
        of the segments they named; those stay byte-exact (the
        alignment padding a sparse plan skips is never checksummed).
        """
        if self.whole is not None:
            return memoryview(self.whole)
        if self.index is None:
            raise ValueError(
                f"blob {self.name!r} is not a zero-copy container; "
                "read it whole instead")
        out = bytearray(self.total_size)
        out[:len(self._prefix)] = self._prefix
        for start, end in self.coalesce(self._wanted(segments), gap):
            data = self._read(start, end - start)
            out[start:start + len(data)] = data
        return memoryview(out)


class LazyShard:
    """Deferred-load stand-in for a shard: hydrates on first touch.

    ``loader`` runs at most once (thread-safe); every attribute access
    forwards to the hydrated target.  ``len()`` is answered from the
    manifest row count until hydration so store-level bookkeeping
    (``__len__``, ``repr``, row-count reports) stays download-free.
    """

    __slots__ = ("_loader", "_lock", "_target", "_stats", "_n_rows",
                 "_label")

    def __init__(self, loader: Callable[[], object], *,
                 n_rows: int = 0, stats=None, label: str = ""):
        self._loader = loader
        self._lock = threading.Lock()
        self._target = None
        self._stats = stats
        self._n_rows = int(n_rows)
        self._label = label

    @property
    def hydrated(self) -> bool:
        """True once the underlying shard has been loaded."""
        return self._target is not None

    def hydrate(self):
        """Load (once) and return the underlying shard."""
        target = self._target
        if target is not None:
            return target
        stats = self._stats
        if not self._lock.acquire(blocking=False):
            # Another thread is mid-hydration: the wait is the price of
            # contention, and the counter is how it shows up in stats.
            if stats is not None:
                stats.bump("hydration_waits")
            self._lock.acquire()
        try:
            if self._target is None:
                if stats is not None:
                    with stats.timing("hydrate"):
                        self._target = self._loader()
                    stats.bump("hydrated_shards")
                else:
                    self._target = self._loader()
            return self._target
        finally:
            self._lock.release()

    def __getattr__(self, name):
        return getattr(self.hydrate(), name)

    def __len__(self) -> int:
        target = self._target
        return len(target) if target is not None else self._n_rows

    def __repr__(self) -> str:
        state = "hydrated" if self.hydrated else f"cold, {self._n_rows} rows"
        return f"LazyShard({self._label or '?'}: {state})"
