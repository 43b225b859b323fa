"""Lazy shard hydration over range-read backends.

A sharded store's manifest routes keys (and prunes misses) without
touching a single shard payload — so a reader over remote storage
should not *download* a shard until a batch actually routes keys into
it.  This module supplies the two pieces that make that work:

- :class:`RangeReader` — understands the zero-copy container layout
  (``storage/zerocopy.py``): one small fixed-prefix fetch reads the
  magic, header, and slot table, after which the head pickle, the
  64-byte-aligned buffer segments, and the CRC footer are all known
  byte ranges.  :meth:`RangeReader.fetch` pulls them as **coalesced**
  range requests (adjacent/overlapping ranges within
  :data:`COALESCE_GAP` merge into one request) and reassembles a
  container image that :func:`~repro.storage.zerocopy.unpack` loads —
  checksums intact — exactly as if it had been read whole.

- :class:`LazyShard` — a deferred-load proxy standing in for a
  :class:`~repro.core.deep_mapping.DeepMapping` shard.  Construction
  costs nothing; the first attribute touch (a routed lookup segment,
  a dtype-promotion probe, a save) runs the loader exactly once under
  a lock.  ``len()`` answers from the manifest's row count so the
  store facade (``__len__`` / ``repr`` / load-time bookkeeping) never
  forces a download.  Contended hydration bumps a ``hydration_waits``
  counter — the observable cost of two batches racing to fault in the
  same shard (the loader itself dedupes through ``BlobCache``'s
  per-key fault locking, so the bytes are only fetched once).

The layer is backend-agnostic: anything exposing
``read_range(name, start, length) -> bytes`` can be hydrated from —
the HTTP backend (``storage/remote.py``), but also the local backends
(useful for tests and for any future object-store transport).
"""

from __future__ import annotations

import threading
from typing import Callable, List, Optional, Sequence, Tuple

from .zerocopy import MAGIC, MAGIC_V1, _ALIGN, _CRC, _HEADER, _SLOT, _aligned

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
        (short reads at end-of-blob are fine and expected).
    name:
        Blob name inside the backend.
    prefix:
        Optional already-fetched leading bytes (the caller may have
        sniffed the blob); saves re-reading the index.

    After construction, :attr:`packed` says whether the blob is a
    recognized container.  When it is, :attr:`total_size`,
    :attr:`slots` (absolute ``(offset, length)`` per buffer segment)
    and the index/head/footer extents are all known without any
    further requests, and :meth:`fetch` materializes the container.
    ``ranges_fetched`` / ``bytes_fetched`` account every request made
    through this reader (including the sniff).
    """

    def __init__(self, backend, name: str,
                 prefix: Optional[bytes] = None,
                 sniff_bytes: int = SNIFF_BYTES):
        self.backend = backend
        self.name = name
        self.ranges_fetched: List[Tuple[int, int]] = []
        self.bytes_fetched = 0
        if prefix is None:
            prefix = self._read(0, sniff_bytes)
        self._prefix = bytes(prefix)
        self._sniff_bytes = sniff_bytes
        #: Whole blob already in hand (it was smaller than the sniff).
        self.whole: Optional[bytes] = (
            self._prefix if len(self._prefix) < sniff_bytes else None)
        self.packed = False
        self.version = 0
        self.slots: List[Tuple[int, int]] = []
        self.head_len = 0
        self.index_size = 0
        self.data_end = 0
        self.footer_size = 0
        self.total_size = len(self._prefix)
        self._parse()

    # -- accounting-aware transport ------------------------------------
    def _read(self, start: int, length: int) -> bytes:
        data = self.backend.read_range(self.name, start, length)
        self.ranges_fetched.append((start, len(data)))
        self.bytes_fetched += len(data)
        return data

    # -- index parsing -------------------------------------------------
    def _parse(self) -> None:
        prefix = self._prefix
        if len(prefix) < len(MAGIC) + _HEADER.size:
            return
        lead = prefix[:len(MAGIC)]
        if lead == MAGIC:
            self.version = 2
        elif lead == MAGIC_V1:
            self.version = 1
        else:
            return
        n_buffers, head_len = _HEADER.unpack_from(prefix, len(MAGIC))
        index_size = len(MAGIC) + _HEADER.size + _SLOT.size * n_buffers
        if self.whole is None and len(prefix) < index_size:
            # Giant slot table (hundreds of buffers): one follow-up
            # request completes the index.
            prefix = prefix + self._read(len(prefix),
                                         index_size - len(prefix))
            self._prefix = prefix
        slots = []
        pos = len(MAGIC) + _HEADER.size
        for _ in range(n_buffers):
            slots.append(_SLOT.unpack_from(prefix, pos))
            pos += _SLOT.size
        if slots:
            last_off, last_len = slots[-1]
            data_end = _aligned(last_off + last_len)
        else:
            data_end = index_size + head_len
        self.packed = True
        self.slots = slots
        self.head_len = int(head_len)
        self.index_size = index_size
        self.data_end = data_end
        self.footer_size = _CRC.size * (n_buffers + 1) if self.version == 2 \
            else 0
        self.total_size = data_end + self.footer_size
        if self.whole is not None:
            # The sniff already returned every byte; trust the parse but
            # serve from what we hold.
            self.total_size = len(self.whole)

    # -- range planning ------------------------------------------------
    def _wanted(self, segments: Optional[Sequence[int]]) -> List[
            Tuple[int, int]]:
        """Absolute (start, end) extents needed beyond the prefix."""
        wanted = [(self.index_size, self.index_size + self.head_len)]
        chosen = range(len(self.slots)) if segments is None else segments
        for i in chosen:
            off, length = self.slots[i]
            wanted.append((off, off + length))
        if self.footer_size:
            wanted.append((self.data_end, self.data_end + self.footer_size))
        have = len(self._prefix)
        clipped = [(max(start, have), min(end, self.total_size))
                   for start, end in wanted]
        return sorted((s, e) for s, e in clipped if e > s)

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
        all).  Unfetched segments read as zeros — only useful to
        callers that unpack with ``verify=False`` and touch a known
        subset; the hydration path always fetches everything, so the
        CRC footer verifies as usual.  The inter-segment alignment
        padding a partial plan skips is never checksummed, so sparse
        fetches stay byte-exact for the ranges they do cover.
        """
        if self.whole is not None:
            return memoryview(self.whole)
        if not self.packed:
            raise ValueError(
                f"blob {self.name!r} is not a zero-copy container; "
                "read it whole instead")
        out = bytearray(self.total_size)
        have = min(len(self._prefix), self.total_size)
        out[:have] = self._prefix[:have]
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
