"""Hash-based baselines: HB and HBC-{Z,L} (paper Sec. V-A3).

Rows are hash-partitioned by key; each partition is a serialized Python
dict ``{key: (values...)}``.  Probes inside a loaded partition are O(1),
but the representation is larger than arrays and — the paper's repeated
finding — deserializing pickled dicts is far more expensive than loading
numpy arrays, which is why hash stores collapse when partitions do not fit
the memory pool (Table I, Fig. 7's purple bars).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..storage.buffer_pool import BufferPool, new_pool_key
from ..storage.codecs import get_codec
from ..storage.partition import read_blob
from ..storage.serializer import deserialize_block, serialize_block
from ..storage.stats import StoreStats
from .base import BaselineStore

__all__ = ["HashStore"]

_NAMES = {"none": "HB", "zstd": "HBC-Z", "lzma": "HBC-L", "gzip": "HBC-G"}


class HashStore(BaselineStore):
    """Hash-partitioned dict representation with optional compression.

    Parameters
    ----------
    codec:
        Byte codec per partition (``none`` = the paper's HB).
    target_partition_bytes:
        Desired serialized partition size; the paper finds small hash
        partitions (~128KB) deserialize fastest (Sec. V-A5).
    """

    def __init__(
        self,
        codec: str = "none",
        target_partition_bytes: int = 128 * 1024,
        pool: Optional[BufferPool] = None,
        stats: Optional[StoreStats] = None,
    ):
        super().__init__(pool=pool, stats=stats)
        if target_partition_bytes <= 0:
            raise ValueError("target_partition_bytes must be positive")
        self.name = _NAMES.get(codec, f"HBC-{codec}")
        self.codec = get_codec(codec)
        self.target_partition_bytes = target_partition_bytes
        self._n_partitions = 1
        #: pid -> (pool key, compressed dict), a fresh key per rewrite.
        self._partitions: Dict[int, Tuple[int, memoryview]] = {}

    # ------------------------------------------------------------------
    def _build_impl(self, flat_keys: np.ndarray,
                    values: Dict[str, np.ndarray]) -> None:
        n = flat_keys.size
        if n == 0:
            self._n_partitions = 1
            self._write_partition(0, {})
            return
        # Estimate bytes per entry from a sample to size partition count.
        probe = min(n, 1024)
        sample = self._rows_dict(flat_keys[:probe], values, np.arange(probe))
        per_entry = max(1.0, len(serialize_block(sample)) / probe)
        self._n_partitions = max(1, int(np.ceil(
            n * per_entry / self.target_partition_bytes)))
        pids = flat_keys % self._n_partitions
        for pid in range(self._n_partitions):
            idx = np.flatnonzero(pids == pid)
            self._write_partition(
                pid, self._rows_dict(flat_keys, values, idx))

    def _rows_dict(self, flat_keys, values, idx) -> Dict[int, tuple]:
        names = self._value_names
        return {
            int(flat_keys[i]): tuple(values[n][i] for n in names)
            for i in idx
        }

    def _write_partition(self, pid: int, table: Dict[int, tuple]) -> None:
        payload = self.codec.compress(serialize_block(table))
        retired = self._partitions.get(pid)
        if retired is not None:
            self.pool.invalidate(retired[0])
        self._partitions[pid] = (new_pool_key(),
                                 memoryview(payload).toreadonly())

    def _load_partition(self, pid: int) -> Dict[int, tuple]:
        key, blob = self._partitions[pid]

        def loader():
            payload = read_blob(blob, self.stats)
            with self.stats.timing("decompress"):
                raw = self.codec.decompress(payload)
            with self.stats.timing("deserialize"):
                table = deserialize_block(raw)
            # Python dicts cost far more resident memory than their pickle;
            # charge a conservative expansion factor to the pool.
            return table, max(len(raw) * 3, 64)

        return self.pool.get(key, loader)

    # ------------------------------------------------------------------
    def _lookup_impl(
        self, flat_keys: np.ndarray
    ) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
        names = self._value_names
        found = np.zeros(flat_keys.size, dtype=bool)
        out: Dict[str, list] = {n: [None] * flat_keys.size for n in names}
        with self.stats.timing("locate"):
            pids = flat_keys % self._n_partitions
        for pid in np.unique(pids):
            table = self._load_partition(int(pid))
            rows = np.flatnonzero(pids == pid)
            with self.stats.timing("search"):
                for i in rows.tolist():
                    entry = table.get(int(flat_keys[i]))
                    if entry is not None:
                        found[i] = True
                        for j, n in enumerate(names):
                            out[n][i] = entry[j]
        values = {n: np.array(col, dtype=object) for n, col in out.items()}
        return found, values

    # ------------------------------------------------------------------
    def insert(self, rows) -> None:
        """Insert rows: each touched partition is deserialized, mutated,
        re-serialized and rewritten (the paper's slow hash insertion)."""
        self._require_built()
        columns = self._rows_to_columns(rows)
        key_cols = {k: columns[k] for k in self._key_codec.key_names}
        if not self._key_codec.extend_domain(key_cols):
            raise ValueError("inserted keys cannot extend the key domain")
        flat = self._key_codec.flatten(key_cols)
        pids = flat % self._n_partitions
        for pid in np.unique(pids):
            table = dict(self._load_partition(int(pid)))
            for i in np.flatnonzero(pids == pid).tolist():
                table[int(flat[i])] = tuple(
                    columns[n][i] for n in self._value_names
                )
            self._write_partition(int(pid), table)
        self._n_rows += int(flat.size)

    def delete(self, keys) -> int:
        """Delete keys, rewriting each touched partition."""
        self._require_built()
        key_cols = self._normalize_keys(keys)
        flat, in_domain = self._key_codec.try_flatten(key_cols)
        flat = flat[in_domain]
        removed = 0
        pids = flat % self._n_partitions
        for pid in np.unique(pids):
            table = dict(self._load_partition(int(pid)))
            touched = False
            for i in np.flatnonzero(pids == pid).tolist():
                if table.pop(int(flat[i]), None) is not None:
                    removed += 1
                    touched = True
            if touched:
                self._write_partition(int(pid), table)
        self._n_rows -= removed
        return removed

    # ------------------------------------------------------------------
    def stored_bytes(self) -> int:
        """Compressed partition bytes (the offline footprint)."""
        return sum(blob.nbytes for _, blob in self._partitions.values())

    @property
    def partition_count(self) -> int:
        """Number of hash partitions."""
        return self._n_partitions

    @staticmethod
    def _rows_to_columns(rows) -> Dict[str, np.ndarray]:
        if hasattr(rows, "columns_dict"):
            return rows.columns_dict()
        return {n: np.asarray(v) for n, v in rows.items()}
