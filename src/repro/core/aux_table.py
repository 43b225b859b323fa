"""Auxiliary accuracy-assurance table ``T_aux`` (paper Sec. IV-B1).

Stores the key→value pairs the model misclassifies, as *label codes*:

- rows are sorted by flattened key and partitioned; a partition is its
  keys as gaps from its first key at their narrowest unsigned width and
  each task's codes at the table's narrowest code dtype, as raw bytes
  (:func:`~repro.storage.partition.encode_partition`), compressed
  (Z-Standard or LZMA in the paper — DM-Z / DM-L);
- lookups locate the partition (binary search over boundaries), fault it
  into the buffer pool, decompress once per query batch, and binary-search
  the key inside — all inherited from
  :class:`~repro.storage.partition.SortedPartitionStore`;
- modifications (Algorithms 3–5) are absorbed by a small in-memory overlay
  (adds/updates plus tombstones) that :meth:`compact` merges back into the
  compressed partitions;
- the compressed partitions are also what is saved: each lives in one
  read-only buffer (the codec's output, or a slice of the opened store
  file), :meth:`to_state` hands those buffers out and :meth:`attach`
  adopts them back without rebuilding, so the bytes :meth:`stored_bytes`
  counts are the bytes on disk;
- retiring a table (:meth:`drop_storage`) only purges its pool entries:
  a reader still holding it answers as before.

The overlay keeps single-row mutations O(1) instead of rewriting a
compressed partition per operation; its serialized size is charged to the
auxiliary structure so the retrain trigger sees the true footprint.

The live row count is kept as rows change, so ``len`` is O(1) and a
write costs O(batch), whatever the table's history: :meth:`add_batch` and
:meth:`remove_batch` each learn from one sorted partition probe which
keys come or go, :meth:`build` (and so :meth:`compact`) resets it, and
after :meth:`attach` it is counted once, on first use — without touching
a partition when the opened overlay is empty.  The count is not saved.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..resilience.errors import StoreCorruptedError
from ..storage.buffer_pool import BufferPool
from ..storage.partition import SortedPartitionStore
from ..storage.serializer import minimal_int_dtype, serialized_size
from ..storage.stats import StoreStats

__all__ = ["AuxiliaryTable"]


class AuxiliaryTable:
    """Compressed, partitioned store of misclassified (key, codes) rows.

    Parameters
    ----------
    tasks:
        Value-column (task) names, defining the code tuple layout.
    codec / target_partition_bytes:
        Partition compression settings (paper's DM-Z vs DM-L knob).
    pool / stats:
        Storage substrate; private instances created when omitted.  Any
        number of tables may share one pool (the sharded store does):
        every partition caches under a key of its own.
    """

    def __init__(
        self,
        tasks: Tuple[str, ...],
        codec: str = "zstd",
        target_partition_bytes: int = 64 * 1024,
        pool: Optional[BufferPool] = None,
        stats: Optional[StoreStats] = None,
        auto_compact_rows: int = 4096,
    ):
        if not tasks:
            raise ValueError("at least one task is required")
        if auto_compact_rows <= 0:
            raise ValueError("auto_compact_rows must be positive")
        self.tasks = tuple(tasks)
        self.auto_compact_rows = auto_compact_rows
        self.stats = stats if stats is not None else StoreStats()
        self._store = SortedPartitionStore(
            codec=codec,
            target_partition_bytes=target_partition_bytes,
            pool=pool,
            stats=self.stats,
        )
        self._overlay: Dict[int, Tuple[int, ...]] = {}
        self._tombstones: set = set()
        #: Live rows; ``None`` from :meth:`attach` until first counted.
        self._live: Optional[int] = 0

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------
    def build(self, flat_keys: np.ndarray, codes: Dict[str, np.ndarray]) -> None:
        """(Re)build the partitions from misclassified rows."""
        flat_keys = np.asarray(flat_keys, dtype=np.int64)
        columns = {}
        for task in self.tasks:
            col = np.asarray(codes[task], dtype=np.int64)
            max_code = int(col.max()) if col.size else 0
            columns[task] = col.astype(minimal_int_dtype(max_code))
        self._store.build(flat_keys, columns)
        self._overlay.clear()
        self._tombstones.clear()
        self._live = len(self._store)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def to_state(self) -> Dict[str, object]:
        """What a save writes: the compressed partitions as stored (see
        :meth:`SortedPartitionStore.export`) plus the overlay and
        tombstones as key-sorted arrays."""
        overlay_keys = np.array(sorted(self._overlay), dtype=np.int64)
        rows = np.array([self._overlay[key] for key in overlay_keys.tolist()],
                        dtype=np.int64).reshape(overlay_keys.size,
                                                len(self.tasks))
        return {
            "store": self._store.export(),
            "overlay_keys": overlay_keys,
            "overlay_codes": rows.astype(
                minimal_int_dtype(int(rows.max()) if rows.size else 0)),
            "tombstones": np.array(sorted(self._tombstones), dtype=np.int64),
        }

    def attach(self, state: Dict[str, object]) -> None:
        """Adopt a :meth:`to_state` image: the partitions are attached
        where they lie (a fault decompresses one straight out of the
        opened payload), never rebuilt."""
        self._store.attach(state["store"])
        if self._store.column_names != self.tasks:
            raise StoreCorruptedError(
                f"auxiliary partitions hold columns "
                f"{self._store.column_names}, expected {self.tasks}")
        rows = np.asarray(state["overlay_codes"])
        self._overlay = {
            key: tuple(row) for key, row
            in zip(state["overlay_keys"].tolist(), rows.tolist())}
        self._tombstones = set(state["tombstones"].tolist())
        self._live = None

    @property
    def pool(self) -> BufferPool:
        """The buffer pool caching this table's decompressed partitions."""
        return self._store.pool

    def drop_storage(self) -> None:
        """Retire this table: purge its partitions from the pool.

        Called when a rebuilt structure replaces this table (a retrain,
        split or merge).  The fences, partition bytes, overlay and
        tombstones stay, so a reader still holding the table gets the
        same answers as before; the bytes are freed with the object.
        """
        self._store.drop_storage()

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def lookup_batch(
        self, flat_keys: np.ndarray
    ) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
        """Return ``(found, codes)`` for a batch of flattened keys.

        Overlay entries win over partitions; tombstoned keys read as
        absent.  Code arrays are int64 and only meaningful where ``found``.
        """
        flat_keys = np.asarray(flat_keys, dtype=np.int64)
        found, raw = self._store.lookup_batch(flat_keys)
        codes = {t: np.asarray(raw[t], dtype=np.int64) for t in self.tasks}
        if self._tombstones or self._overlay:
            for i, key in enumerate(flat_keys.tolist()):
                if key in self._tombstones:
                    found[i] = False
                elif key in self._overlay:
                    found[i] = True
                    row = self._overlay[key]
                    for j, task in enumerate(self.tasks):
                        codes[task][i] = row[j]
        return found, codes

    def contains(self, flat_key: int) -> bool:
        """Membership test for a single key."""
        found, _ = self.lookup_batch(np.array([flat_key], dtype=np.int64))
        return bool(found[0])

    # ------------------------------------------------------------------
    # Mutations (the paper's Algorithms 3-5 write through these)
    # ------------------------------------------------------------------
    def add_batch(self, flat_keys: np.ndarray, codes: Dict[str, np.ndarray]) -> None:
        """Insert or overwrite rows (misclassified inserts / updates)."""
        keys = np.asarray(flat_keys, dtype=np.int64).tolist()
        in_parts = self._in_partitions(
            [key for key in keys if key not in self._overlay
             and key not in self._tombstones])
        added = 0
        for i, key in enumerate(keys):
            if key not in self._overlay and (key in self._tombstones
                                             or key not in in_parts):
                added += 1  # dead or absent until now
            self._tombstones.discard(key)
            self._overlay[key] = tuple(
                int(codes[task][i]) for task in self.tasks
            )
        if self._live is not None:
            self._live += added
        self._maybe_compact()

    def remove_batch(self, flat_keys: np.ndarray) -> None:
        """Remove rows if present (deletes / updates the model now gets
        right).  Removal of an absent key is a no-op."""
        keys = np.asarray(flat_keys, dtype=np.int64).tolist()
        in_parts = self._in_partitions(keys)
        removed = 0
        for key in keys:
            if key in self._overlay or (key in in_parts
                                        and key not in self._tombstones):
                removed += 1  # live until now
            self._overlay.pop(key, None)
            if key in in_parts:
                self._tombstones.add(key)
        if self._live is not None:
            self._live -= removed
        self._maybe_compact()

    def _in_partitions(self, keys: List[int]) -> Set[int]:
        """Which of ``keys`` the compressed partitions hold (tombstoned
        or not): one sorted probe, none for an empty list."""
        if not keys:
            return set()
        probe = np.unique(np.asarray(keys, dtype=np.int64))
        found, _ = self._store.lookup_batch(probe)
        return set(probe[found].tolist())

    def _maybe_compact(self) -> None:
        """Fold the overlay into compressed partitions once it grows past
        ``auto_compact_rows`` (keeps the offline footprint honest: the
        paper stores misclassified modifications compressed)."""
        if len(self._overlay) + len(self._tombstones) >= self.auto_compact_rows:
            self.compact()

    # ------------------------------------------------------------------
    # Maintenance / accounting
    # ------------------------------------------------------------------
    def compact(self) -> None:
        """Merge the overlay and tombstones back into compressed partitions."""
        if not self._overlay and not self._tombstones:
            return
        self.build(*self.scan())

    def __len__(self) -> int:
        """Live row count (partitions − tombstones + fresh overlay rows),
        kept as rows change; counted once after :meth:`attach`."""
        if self._live is None:
            self._live = (len(self._store) - len(self._tombstones)
                          + len(self._overlay)
                          - len(self._in_partitions(list(self._overlay))))
        return self._live

    def stored_bytes(self) -> int:
        """Offline footprint: compressed partitions + serialized overlay."""
        overlay_bytes = 0
        if self._overlay or self._tombstones:
            overlay_bytes = serialized_size((self._overlay, self._tombstones))
        return self._store.stored_bytes() + overlay_bytes

    @property
    def partition_count(self) -> int:
        """Number of compressed partitions."""
        return len(self._store.partitions)

    def scan(self) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
        """Materialize all live rows, sorted by key (overlay merged).

        An array merge, not a per-row dict: partition rows minus the
        tombstoned ones, then the overlay rows, stably sorted by key
        with the last occurrence kept — the overlay wins.
        """
        keys, columns = self._store.scan()
        rows = np.stack([np.asarray(columns[t], dtype=np.int64)
                         for t in self.tasks], axis=1)
        if self._tombstones:
            dead = np.fromiter(self._tombstones, dtype=np.int64,
                               count=len(self._tombstones))
            live = ~np.isin(keys, dead)
            keys, rows = keys[live], rows[live]
        if self._overlay:
            keys = np.concatenate([keys, np.fromiter(
                self._overlay, dtype=np.int64, count=len(self._overlay))])
            rows = np.concatenate([rows, np.array(
                list(self._overlay.values()), dtype=np.int64)])
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
            last = np.append(keys[1:] != keys[:-1], True)
            keys, rows = keys[last], rows[order[last]]
        return keys, {t: np.ascontiguousarray(rows[:, j])
                      for j, t in enumerate(self.tasks)}

    def __repr__(self) -> str:
        return (
            f"AuxiliaryTable(tasks={list(self.tasks)}, rows={len(self)}, "
            f"partitions={self.partition_count}, "
            f"overlay={len(self._overlay)}, tombstones={len(self._tombstones)})"
        )
