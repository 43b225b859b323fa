"""Sorted, partitioned, compressed column storage.

Both the DeepMapping auxiliary table ``T_aux`` and the array-based baselines
(AB / ABC-*) store tuples the same way (paper Sec. IV-B1 and V-A3):

1. rows are sorted by key and split into fixed-size partitions,
2. each partition is serialized (optionally dictionary-encoded first) and
   compressed with a byte codec,
3. partitions live on disk and are faulted into an LRU
   :class:`~repro.storage.buffer_pool.BufferPool` on access — in a
   :class:`~repro.storage.disk.DiskStore` directory for a store built in
   this process, inside the saved store file for one opened from it
   (:meth:`SortedPartitionStore.export` / :meth:`~SortedPartitionStore.attach`:
   the compressed partitions *are* the persistent form, so an open
   neither re-sorts nor re-compresses nor copies them),
4. a lookup locates the partition by binary search over partition boundaries,
   decompresses it (at most once per query batch — queries are sorted), and
   binary-searches the key inside.

:class:`SortedPartitionStore` implements that machinery once so the auxiliary
table and the baselines share identical I/O behaviour.
"""

from __future__ import annotations

import pickle
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..resilience.errors import StoreCorruptedError
from .buffer_pool import BufferPool
from .codecs import Codec, get_codec
from .disk import DiskStore
from .serializer import (
    deserialize_block,
    dictionary_decode,
    dictionary_encode,
    serialize_block,
)
from .stats import StoreStats

__all__ = ["PartitionMeta", "SortedPartitionStore"]


@dataclass(frozen=True)
class PartitionMeta:
    """Summary of one stored partition."""

    name: str
    first_key: int
    last_key: int
    n_rows: int
    stored_bytes: int


class SortedPartitionStore:
    """Key-sorted columnar rows in compressed disk partitions.

    Parameters
    ----------
    codec:
        Byte codec (name or instance) applied to each serialized partition.
    target_partition_bytes:
        Desired *uncompressed serialized* size per partition; the paper tunes
        this per representation (Sec. V-A5).
    dict_encode:
        Apply dictionary encoding before pickling (the paper's ABC-D).
    disk / pool / stats:
        Substrate components; private ones are created when omitted.
    name_prefix:
        Blob-name prefix, letting several stores share one directory.
    """

    def __init__(
        self,
        codec: "Codec | str" = "none",
        target_partition_bytes: int = 128 * 1024,
        dict_encode: bool = False,
        disk: Optional[DiskStore] = None,
        pool: Optional[BufferPool] = None,
        stats: Optional[StoreStats] = None,
        name_prefix: str = "part",
    ):
        if target_partition_bytes <= 0:
            raise ValueError("target_partition_bytes must be positive")
        self.codec = get_codec(codec) if isinstance(codec, str) else codec
        self.target_partition_bytes = int(target_partition_bytes)
        self.dict_encode = bool(dict_encode)
        self.stats = stats if stats is not None else StoreStats()
        self._owns_disk = disk is None
        self.disk = disk if disk is not None else DiskStore(stats=self.stats)
        self.pool = pool if pool is not None else BufferPool(stats=self.stats)
        self.name_prefix = name_prefix
        self._metas: List[PartitionMeta] = []
        self._first_keys = np.empty(0, dtype=np.int64)
        self._last_keys = np.empty(0, dtype=np.int64)
        self._columns: Tuple[str, ...] = ()
        self._dtypes: Dict[str, np.dtype] = {}
        self._n_rows = 0

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------
    def build(self, keys: np.ndarray, columns: Dict[str, np.ndarray]) -> None:
        """(Re)build all partitions from parallel arrays.

        ``keys`` must be int64-compatible and *unique*; rows are sorted here,
        so callers may pass unsorted data.
        """
        keys = np.asarray(keys, dtype=np.int64)
        for name, col in columns.items():
            if len(col) != keys.size:
                raise ValueError(
                    f"column {name!r} has {len(col)} rows, expected {keys.size}"
                )
        if keys.size != np.unique(keys).size:
            raise ValueError("keys must be unique")

        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        columns = {name: np.asarray(col)[order] for name, col in columns.items()}

        # _drop_existing_blobs invalidates this store's own pool entries;
        # a whole-pool clear() would also evict co-hosted stores (the
        # sharded store shares one pool across shards).
        self._drop_existing_blobs()
        self._metas = []
        self._columns = tuple(columns)
        self._dtypes = {name: np.asarray(col).dtype for name, col in columns.items()}
        self._n_rows = int(keys.size)

        if keys.size == 0:
            self._refresh_boundaries()
            return

        rows_per_partition = self._rows_per_partition(keys, columns)
        for pid, start in enumerate(range(0, keys.size, rows_per_partition)):
            stop = min(start + rows_per_partition, keys.size)
            self._write_partition(pid, keys[start:stop],
                                  {n: c[start:stop] for n, c in columns.items()})
        self._refresh_boundaries()

    def _rows_per_partition(self, keys: np.ndarray, columns: Dict[str, np.ndarray]) -> int:
        """Pick a row count whose serialized size approximates the target."""
        probe = min(keys.size, 2048)
        sample = {n: c[:probe] for n, c in columns.items()}
        sample["__keys__"] = keys[:probe]
        per_row = max(1.0, len(serialize_block(sample)) / probe)
        return max(1, int(self.target_partition_bytes / per_row))

    def _write_partition(self, pid: int, keys: np.ndarray,
                         columns: Dict[str, np.ndarray]) -> None:
        block: Dict[str, object] = {"keys": keys}
        if self.dict_encode:
            block["columns"] = dictionary_encode(columns)
        else:
            block["columns"] = dict(columns)
        payload = self.codec.compress(serialize_block(block))
        name = self._partition_name(pid)
        stored = self.disk.write(name, payload)
        self._metas.append(
            PartitionMeta(
                name=name,
                first_key=int(keys[0]),
                last_key=int(keys[-1]),
                n_rows=int(keys.size),
                stored_bytes=stored,
            )
        )

    def _partition_name(self, pid: int) -> str:
        return f"{self.name_prefix}-{pid:06d}"

    def _refresh_boundaries(self) -> None:
        self._first_keys = np.array([m.first_key for m in self._metas], dtype=np.int64)
        self._last_keys = np.array([m.last_key for m in self._metas], dtype=np.int64)

    def _drop_existing_blobs(self) -> None:
        for meta in self._metas:
            self.disk.delete(meta.name)
            self.pool.invalidate(meta.name)

    def drop_storage(self) -> None:
        """Delete every partition blob and purge them from the pool.

        For callers retiring this store while a successor reuses the same
        pool and name prefix (rebuilds): stale cached blocks must not be
        served under the successor's partition names.
        """
        self._drop_existing_blobs()
        self._metas = []
        self._n_rows = 0
        self._refresh_boundaries()
        if self._owns_disk:
            self.disk.close()

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def export(self) -> Dict[str, object]:
        """The persistent form: a fence index plus every partition's
        bytes exactly as stored.

        Each partition is a :class:`pickle.PickleBuffer`, so
        :func:`repro.storage.zerocopy.pack` writes it as its own
        CRC-checked out-of-band segment while the fences (plain ints)
        stay in the container head.  Always exported read-only, so the
        pickle head does not depend on whether the bytes came from a
        build, a private copy or a mapping.
        """
        return {
            "columns": list(self._columns),
            "dtypes": [self._dtypes[name].str for name in self._columns],
            "first_keys": [meta.first_key for meta in self._metas],
            "last_keys": [meta.last_key for meta in self._metas],
            "n_rows": [meta.n_rows for meta in self._metas],
            "partitions": [
                pickle.PickleBuffer(
                    memoryview(self.disk.read(meta.name)).toreadonly())
                for meta in self._metas],
        }

    def attach(self, state: Dict[str, object]) -> None:
        """Adopt partitions written by :meth:`export`, in place.

        No sort, no serialize, no compress, no write: each blob (a slice
        of the opened payload, or of its private copy) is handed to the
        disk store as is and decompressed when a lookup first faults it
        in.  Partition names are derived from this store's prefix, not
        read from the payload, so stores sharing one pool stay apart.
        """
        blobs = state["partitions"]
        fences = [state[name]
                  for name in ("first_keys", "last_keys", "n_rows")]
        if ({len(fence) for fence in fences} != {len(blobs)}
                or len(state["columns"]) != len(state["dtypes"])):
            raise StoreCorruptedError(
                f"partition index of {self.name_prefix!r} does not match "
                f"its {len(blobs)} partition blob(s)")
        self._drop_existing_blobs()
        self._columns = tuple(state["columns"])
        self._dtypes = {name: np.dtype(spec) for name, spec
                        in zip(self._columns, state["dtypes"])}
        self._metas = [
            PartitionMeta(name=self._partition_name(pid),
                          first_key=int(first), last_key=int(last),
                          n_rows=int(n_rows),
                          stored_bytes=self.disk.attach(
                              self._partition_name(pid), blob))
            for pid, (first, last, n_rows, blob)
            in enumerate(zip(*fences, blobs))]
        self._n_rows = sum(meta.n_rows for meta in self._metas)
        self._refresh_boundaries()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._n_rows

    @property
    def column_names(self) -> Tuple[str, ...]:
        """Value-column names held by this store."""
        return self._columns

    @property
    def partitions(self) -> List[PartitionMeta]:
        """Metadata for every stored partition, in key order."""
        return list(self._metas)

    def stored_bytes(self) -> int:
        """Total compressed bytes across partitions (offline footprint)."""
        return sum(meta.stored_bytes for meta in self._metas)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def locate(self, keys: np.ndarray) -> np.ndarray:
        """Partition ordinal for each query key (-1 when outside any range)."""
        keys = np.asarray(keys, dtype=np.int64)
        with self.stats.timing("locate"):
            idx = np.searchsorted(self._first_keys, keys, side="right") - 1
            valid = idx >= 0
            in_range = np.zeros(keys.size, dtype=bool)
            in_range[valid] = keys[valid] <= self._last_keys[idx[valid]]
            idx[~in_range] = -1
        return idx

    def load_partition(self, pid: int) -> Dict[str, np.ndarray]:
        """Fetch partition ``pid`` through the buffer pool, decompressing on miss.

        Undecompressable / unpicklable partition bytes surface as a typed
        :class:`~repro.resilience.errors.StoreCorruptedError` naming the
        blob; the pool retries the load once (torn-read healing) before
        letting it propagate.
        """
        meta = self._metas[pid]

        def loader():
            payload = self.disk.read(meta.name)
            try:
                with self.stats.timing("decompress"):
                    raw = self.codec.decompress(payload)
                with self.stats.timing("deserialize"):
                    block = deserialize_block(raw)
            except StoreCorruptedError:
                raise
            except (zlib.error, pickle.UnpicklingError, EOFError,
                    ValueError, OSError) as exc:
                raise StoreCorruptedError(
                    f"partition blob {meta.name!r} is corrupt "
                    f"({type(exc).__name__}: {exc})") from exc
            columns = block["columns"]
            if self.dict_encode:
                columns = dictionary_decode(columns)
            resident = {"keys": block["keys"], **columns}
            size = sum(np.asarray(v).nbytes for v in resident.values())
            return resident, size

        return self.pool.get(meta.name, loader)

    def lookup_batch(self, keys) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
        """Batch point lookup.

        Returns ``(found, values)`` where ``found`` is a boolean array
        aligned with ``keys`` and ``values`` maps each column to an array
        whose rows are only meaningful where ``found`` is True.

        Query keys are processed in sorted order so each partition is
        faulted in and decompressed at most once per batch (paper
        Sec. IV-B2).  Batches that *arrive* sorted — one vectorized
        monotonicity check — skip the argsort entirely; callers that
        already hold the keys in sorted order (the staged lookup plan,
        the sharded route stage) ride this fast path and never pay a
        second sort.
        """
        keys = np.asarray(keys, dtype=np.int64)
        found = np.zeros(keys.size, dtype=bool)
        values = {name: self._empty_column(name, keys.size) for name in self._columns}
        if keys.size == 0 or not self._metas:
            return found, values

        if keys.size < 2 or np.all(keys[1:] >= keys[:-1]):
            order = None  # already sorted: identity order
            sorted_keys = keys
        else:
            order = np.argsort(keys, kind="stable")
            sorted_keys = keys[order]
        pids = self.locate(sorted_keys)

        # ``pids`` is non-decreasing apart from -1 markers (keys are
        # sorted and partitions are disjoint ascending ranges), so equal
        # pids form contiguous runs — iterate runs instead of scanning a
        # ``pids == pid`` mask per partition.
        boundaries = np.flatnonzero(pids[1:] != pids[:-1]) + 1
        starts = np.concatenate([[0], boundaries])
        stops = np.concatenate([boundaries, [pids.size]])
        for start, stop in zip(starts, stops):
            pid = int(pids[start])
            if pid < 0:
                continue
            block = self.load_partition(pid)
            part_keys = block["keys"]
            run = sorted_keys[start:stop]
            with self.stats.timing("search"):
                pos = np.searchsorted(part_keys, run)
                pos = np.minimum(pos, part_keys.size - 1)
                hit = part_keys[pos] == run
            if order is None:
                rows = np.flatnonzero(hit) + start
            else:
                rows = order[start:stop][hit]
            found[rows] = True
            for name in self._columns:
                values[name][rows] = block[name][pos[hit]]
        return found, values

    def scan(self) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
        """Materialize every row (used by compaction and tests)."""
        if not self._metas:
            return np.empty(0, dtype=np.int64), {
                name: self._empty_column(name, 0) for name in self._columns
            }
        keys_parts = []
        column_parts: Dict[str, list] = {name: [] for name in self._columns}
        for pid in range(len(self._metas)):
            block = self.load_partition(pid)
            keys_parts.append(block["keys"])
            for name in self._columns:
                column_parts[name].append(block[name])
        keys = np.concatenate(keys_parts)
        columns = {name: np.concatenate(parts) for name, parts in column_parts.items()}
        return keys, columns

    # ------------------------------------------------------------------
    def _empty_column(self, name: str, size: int) -> np.ndarray:
        dtype = self._dtypes.get(name, np.dtype(object))
        if dtype == object:
            return np.full(size, None, dtype=object)
        return np.zeros(size, dtype=dtype)

    def __repr__(self) -> str:
        return (
            f"SortedPartitionStore(rows={self._n_rows}, "
            f"partitions={len(self._metas)}, codec={self.codec.name}, "
            f"bytes={self.stored_bytes()})"
        )
