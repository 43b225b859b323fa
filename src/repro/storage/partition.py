"""Sorted, partitioned, compressed column storage.

Both the DeepMapping auxiliary table ``T_aux`` and the array-based baselines
(AB / ABC-*) store tuples the same way (paper Sec. IV-B1 and V-A3):

1. rows are sorted by key and split into partitions of a fixed resident
   size,
2. each partition is encoded by one codec, :func:`encode_partition` /
   :func:`decode_partition` — its keys as gaps from the partition's first
   key at their narrowest unsigned width, then its columns' raw bytes at
   the dtypes the store records (object columns and dictionary encoding,
   which only the baselines use, as one pickled column section instead) —
   and compressed with a byte codec,
3. each compressed partition lives in one read-only buffer the store
   holds — the codec's output for a partition built in this process, a
   slice of the saved store file for one opened from it
   (:meth:`SortedPartitionStore.export` / :meth:`~SortedPartitionStore.attach`:
   the compressed partitions *are* the persistent form, so an open
   neither re-sorts nor re-compresses nor copies them) — and is faulted
   into an LRU :class:`~repro.storage.buffer_pool.BufferPool` on access,
   under a pool key no other partition ever gets
   (:func:`~repro.storage.buffer_pool.new_pool_key`),
4. a lookup locates the partition by binary search over partition boundaries,
   decompresses and decodes it (at most once per query batch — queries are
   sorted; one ``cumsum`` restores the keys), and binary-searches the key
   inside.

:class:`SortedPartitionStore` implements that machinery once so the auxiliary
table and the baselines share identical I/O behaviour.
"""

from __future__ import annotations

import lzma
import pickle
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..resilience.errors import StoreCorruptedError
from .buffer_pool import BufferPool, new_pool_key
from .codecs import Codec, get_codec
from .serializer import (
    deserialize_block,
    dictionary_decode,
    dictionary_encode,
    minimal_int_dtype,
    serialize_block,
)
from .stats import StoreStats

__all__ = ["PartitionMeta", "SortedPartitionStore", "encode_partition",
           "decode_partition", "read_blob"]

#: Byte widths a partition's key gaps may be stored at.
GAP_WIDTHS = (1, 2, 4, 8)


@dataclass(frozen=True)
class PartitionMeta:
    """One stored partition: its fence (key range, row count, key-gap
    width), its compressed bytes and the pool key they cache under —
    fresh for every partition, so no two partitions ever share one."""

    first_key: int
    last_key: int
    n_rows: int
    gap_width: int
    blob: memoryview = field(repr=False, compare=False)
    pool_key: int = field(default_factory=new_pool_key, compare=False)

    @property
    def stored_bytes(self) -> int:
        """Compressed size of the partition."""
        return self.blob.nbytes


def read_blob(blob: memoryview, stats: StoreStats) -> memoryview:
    """Hand out a held partition blob, charged as one read: the ``io``
    timer, ``blobs_read`` and ``bytes_read``."""
    with stats.timing("io"):
        payload = blob
    stats.bump("blobs_read")
    stats.bump("bytes_read", payload.nbytes)
    return payload


def _pickles_columns(dtypes, dict_encode: bool) -> bool:
    """Whether a partition's column section is one pickle rather than
    raw fixed-width bytes."""
    return dict_encode or any(np.dtype(dtype).hasobject for dtype in dtypes)


def encode_partition(keys: np.ndarray, columns: Dict[str, np.ndarray],
                     dict_encode: bool = False) -> Tuple[bytes, int]:
    """One partition's bytes before compression, and its key-gap width.

    ``keys`` are int64, sorted and unique; the first one is not stored
    (the fence holds it).  The bytes are the ``n - 1`` gaps
    ``keys[i + 1] - keys[i] - 1`` as little-endian unsigned integers of
    the returned width (1, 2, 4 or 8 bytes: a partition may span the
    whole int64 range), then the columns in order — each one's raw bytes
    at its own dtype, or, when any column holds objects or
    ``dict_encode`` is set, one pickle of all of them.
    """
    unsigned = np.ascontiguousarray(keys, dtype=np.int64).view(np.uint64)
    gaps = np.diff(unsigned) - np.uint64(1)
    gap_dtype = minimal_int_dtype(int(gaps.max()) if gaps.size else 0)
    parts = [gaps.astype(gap_dtype.newbyteorder("<")).tobytes()]
    if _pickles_columns((col.dtype for col in columns.values()), dict_encode):
        section = dict(columns)
        parts.append(serialize_block(
            dictionary_encode(section) if dict_encode else section))
    else:
        parts += [np.ascontiguousarray(col).tobytes()
                  for col in columns.values()]
    return b"".join(parts), gap_dtype.itemsize


def decode_partition(raw, meta: PartitionMeta, dtypes: Dict[str, np.dtype],
                     dict_encode: bool = False) -> Dict[str, np.ndarray]:
    """Inverse of :func:`encode_partition`: ``{"keys": int64, <columns>}``.

    ``meta`` supplies the fence (first and last key, row count, gap
    width) and ``dtypes`` the column names and dtypes the store records.
    Bytes that disagree with them — a length other than the fence
    implies, a last key other than the fence's — raise ``ValueError``
    before anything is read out of them.
    """
    n_rows, width = meta.n_rows, meta.gap_width
    if n_rows < 1 or width not in GAP_WIDTHS:
        raise ValueError(f"fence claims {n_rows} row(s) with {width}-byte "
                         f"key gaps")
    raw = raw if isinstance(raw, bytes) else bytes(raw)
    key_bytes = (n_rows - 1) * width
    pickled = _pickles_columns(dtypes.values(), dict_encode)
    expected = key_bytes + (0 if pickled else n_rows * sum(
        dtype.itemsize for dtype in dtypes.values()))
    if len(raw) < expected or (not pickled and len(raw) != expected):
        raise ValueError(f"partition holds {len(raw)} bytes, expected "
                         f"{expected} for {n_rows} row(s)")
    keys = np.empty(n_rows, dtype=np.int64)
    keys[0] = meta.first_key
    steps = keys.view(np.uint64)
    steps[1:] = np.frombuffer(raw, dtype=f"<u{width}", count=n_rows - 1)
    steps[1:] += np.uint64(1)
    np.cumsum(steps, out=steps)  # wraps modulo 2**64, as the gaps did
    if keys[-1] != meta.last_key:
        raise ValueError(f"keys decode to end at {int(keys[-1])}, the "
                         f"fence says {meta.last_key}")
    if pickled:
        columns = deserialize_block(memoryview(raw)[key_bytes:])
        if dict_encode:
            columns = dictionary_decode(columns)
        if (list(columns) != list(dtypes)
                or any(len(col) != n_rows for col in columns.values())):
            raise ValueError("pickled column section does not match the "
                             "fence")
        return {"keys": keys, **columns}
    resident = {"keys": keys}
    offset = key_bytes
    for name, dtype in dtypes.items():
        resident[name] = np.frombuffer(raw, dtype=dtype, count=n_rows,
                                       offset=offset)
        offset += n_rows * dtype.itemsize
    return resident


class SortedPartitionStore:
    """Key-sorted columnar rows in compressed partitions.

    Parameters
    ----------
    codec:
        Byte codec (name or instance) applied to each encoded partition.
    target_partition_bytes:
        Desired *resident* (decoded) size per partition — what the buffer
        pool charges for it; the paper tunes this per representation
        (Sec. V-A5).
    dict_encode:
        Dictionary-encode the columns, pickled (the paper's ABC-D).
    pool / stats:
        Substrate components; private ones are created when omitted.
        Stores may share one pool: their partitions' keys never collide.
    """

    def __init__(
        self,
        codec: "Codec | str" = "none",
        target_partition_bytes: int = 128 * 1024,
        dict_encode: bool = False,
        pool: Optional[BufferPool] = None,
        stats: Optional[StoreStats] = None,
    ):
        if target_partition_bytes <= 0:
            raise ValueError("target_partition_bytes must be positive")
        self.codec = get_codec(codec) if isinstance(codec, str) else codec
        self.target_partition_bytes = int(target_partition_bytes)
        self.dict_encode = bool(dict_encode)
        self.stats = stats if stats is not None else StoreStats()
        self.pool = pool if pool is not None else BufferPool(stats=self.stats)
        #: Set by :meth:`drop_storage`: faults are served uncached.
        self._retired = False
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
        keys, columns = self._sorted(keys, columns)

        # Only this store's own pool entries go; a whole-pool clear()
        # would also evict co-hosted stores (the sharded store shares one
        # pool across shards).
        self._purge_pool()
        self._metas = []
        self._columns = tuple(columns)
        self._dtypes = {name: np.asarray(col).dtype for name, col in columns.items()}
        self._n_rows = int(keys.size)

        if keys.size == 0:
            self._refresh_boundaries()
            return

        rows_per_partition = self._rows_per_partition()
        for start in range(0, keys.size, rows_per_partition):
            stop = min(start + rows_per_partition, keys.size)
            self._write_partition(keys[start:stop],
                                  {n: c[start:stop] for n, c in columns.items()})
        self._refresh_boundaries()

    def append(self, keys: np.ndarray, columns: Dict[str, np.ndarray]) -> None:
        """Add rows as one more partition; existing partitions are untouched.

        Every key must sort after the stored range, and each column must
        cast safely to the dtype the store records for it (a wider one
        needs :meth:`build`).  An empty store is simply built.
        """
        if not self._metas:
            self.build(keys, columns)
            return
        keys, columns = self._sorted(
            keys, {name: columns[name] for name in self._columns})
        if keys.size == 0:
            return
        if keys[0] <= self._metas[-1].last_key:
            raise ValueError("append requires keys beyond the range")
        for name, col in columns.items():
            if not np.can_cast(col.dtype, self._dtypes[name]):
                raise ValueError(f"column {name!r} is {col.dtype}, which "
                                 f"does not fit the stored "
                                 f"{self._dtypes[name]}")
        self._write_partition(keys, {
            name: col.astype(self._dtypes[name], copy=False)
            for name, col in columns.items()})
        self._n_rows += int(keys.size)
        self._refresh_boundaries()

    @staticmethod
    def _sorted(keys, columns: Dict[str, np.ndarray]):
        """Check parallel arrays (equal lengths, unique keys) and sort
        them by key."""
        keys = np.asarray(keys, dtype=np.int64)
        for name, col in columns.items():
            if len(col) != keys.size:
                raise ValueError(
                    f"column {name!r} has {len(col)} rows, expected {keys.size}"
                )
        if keys.size != np.unique(keys).size:
            raise ValueError("keys must be unique")
        order = np.argsort(keys, kind="stable")
        return keys[order], {name: np.asarray(col)[order]
                             for name, col in columns.items()}

    def _rows_per_partition(self) -> int:
        """Rows per partition: the target over the resident row width (an
        int64 key plus each column's itemsize) — what the pool charges for
        a faulted-in partition, not what it compresses to."""
        row_bytes = 8 + sum(dtype.itemsize for dtype in self._dtypes.values())
        return max(1, self.target_partition_bytes // row_bytes)

    def _write_partition(self, keys: np.ndarray,
                         columns: Dict[str, np.ndarray]) -> None:
        raw, gap_width = encode_partition(keys, columns, self.dict_encode)
        self._metas.append(PartitionMeta(
            first_key=int(keys[0]), last_key=int(keys[-1]),
            n_rows=int(keys.size), gap_width=gap_width,
            blob=memoryview(self.codec.compress(raw)).toreadonly()))

    def _refresh_boundaries(self) -> None:
        self._first_keys = np.array([m.first_key for m in self._metas], dtype=np.int64)
        self._last_keys = np.array([m.last_key for m in self._metas], dtype=np.int64)

    def _purge_pool(self) -> None:
        for meta in self._metas:
            self.pool.invalidate(meta.pool_key)

    def drop_storage(self) -> None:
        """Retire this store: purge its partitions from the pool.

        The fences and partition bytes stay, so a reader still holding
        the store (a topology snapshot taken before a split, say) gets
        the same answers as before; what it faults in from now on is
        served uncached, since nothing would evict it from an unbounded
        pool.  The bytes are freed with the store object.
        """
        self._purge_pool()
        self._retired = True

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def export(self) -> Dict[str, object]:
        """The persistent form: a fence index plus every partition's
        bytes exactly as stored.

        The fences are plain ints per partition — first key, last key,
        row count and key-gap width, everything :func:`decode_partition`
        needs beside the column dtypes.  Each partition is a
        :class:`pickle.PickleBuffer`, so
        :func:`repro.storage.zerocopy.pack` writes it as its own
        CRC-checked out-of-band segment while the fences (plain ints)
        stay in the container head.  Every held blob is read-only, so
        the pickle head does not depend on whether the bytes came from a
        build, a private copy or a mapping.
        """
        return {
            "columns": list(self._columns),
            "dtypes": [self._dtypes[name].str for name in self._columns],
            "first_keys": [meta.first_key for meta in self._metas],
            "last_keys": [meta.last_key for meta in self._metas],
            "n_rows": [meta.n_rows for meta in self._metas],
            "gap_widths": [meta.gap_width for meta in self._metas],
            # Each through an array view: a memoryview that a PickleBuffer
            # exports must never be in cyclic garbage with it (CPython
            # would clear the view first and crash releasing it), and
            # arrays, untracked by the collector, keep theirs reachable.
            "partitions": [pickle.PickleBuffer(np.frombuffer(meta.blob,
                                                             np.uint8))
                           for meta in self._metas],
        }

    def attach(self, state: Dict[str, object]) -> None:
        """Adopt partitions written by :meth:`export`, in place.

        No sort, no serialize, no compress, no copy: each blob (a slice
        of the opened payload, or of its private copy) is held as a
        read-only view and decompressed when a lookup first faults it
        in, under a fresh pool key, so stores sharing one pool stay
        apart.
        """
        blobs = state["partitions"]
        fences = [state[name] for name
                  in ("first_keys", "last_keys", "n_rows", "gap_widths")]
        if ({len(fence) for fence in fences} != {len(blobs)}
                or len(state["columns"]) != len(state["dtypes"])):
            raise StoreCorruptedError(
                f"partition index does not match its {len(blobs)} "
                f"partition blob(s)")
        self._purge_pool()
        self._columns = tuple(state["columns"])
        self._dtypes = {name: np.dtype(spec) for name, spec
                        in zip(self._columns, state["dtypes"])}
        self._metas = [
            PartitionMeta(first_key=int(first), last_key=int(last),
                          n_rows=int(n_rows), gap_width=int(gap_width),
                          blob=memoryview(blob).cast("B").toreadonly())
            for first, last, n_rows, gap_width, blob
            in zip(*fences, blobs)]
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
        if not self._metas:
            return np.full(keys.size, -1, dtype=np.int64)
        with self.stats.timing("locate"):
            idx = self._first_keys.searchsorted(keys, side="right") - 1
            # idx -1 reads the last fence; the idx < 0 term voids it.
            idx[(idx < 0) | (keys > self._last_keys[idx])] = -1
        return idx

    def load_partition(self, pid: int) -> Dict[str, np.ndarray]:
        """Fetch partition ``pid`` through the buffer pool, decompressing on miss.

        Partition bytes that do not decompress, or do not decode to what
        the fence says (:func:`decode_partition`), surface as a typed
        :class:`~repro.resilience.errors.StoreCorruptedError` naming the
        partition by ordinal and key range; the pool retries the load
        once (torn-read healing) before letting it propagate.
        """
        meta = self._metas[pid]

        def loader():
            payload = read_blob(meta.blob, self.stats)
            try:
                with self.stats.timing("decompress"):
                    raw = self.codec.decompress(payload)
                with self.stats.timing("deserialize"):
                    resident = decode_partition(raw, meta, self._dtypes,
                                                self.dict_encode)
            except StoreCorruptedError:
                raise
            except (zlib.error, lzma.LZMAError, pickle.UnpicklingError,
                    EOFError, ValueError, OSError) as exc:
                raise StoreCorruptedError(
                    f"partition {pid} (keys {meta.first_key}.."
                    f"{meta.last_key}) is corrupt "
                    f"({type(exc).__name__}: {exc})") from exc
            size = sum(np.asarray(v).nbytes for v in resident.values())
            return resident, size

        if self._retired:
            return loader()[0]
        return self.pool.get(meta.pool_key, loader)

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

        if keys.size < 2 or (keys[1:] >= keys[:-1]).all():
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
        edges = [0, *((pids[1:] != pids[:-1]).nonzero()[0] + 1).tolist(),
                 pids.size]
        for start, stop in zip(edges[:-1], edges[1:]):
            pid = int(pids[start])
            if pid < 0:
                continue
            block = self.load_partition(pid)
            part_keys = block["keys"]
            run = sorted_keys[start:stop]
            with self.stats.timing("search"):
                pos = part_keys.searchsorted(run)
                np.minimum(pos, part_keys.size - 1, out=pos)
                hit = part_keys[pos] == run
            if order is None:
                rows = hit.nonzero()[0] + start
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
