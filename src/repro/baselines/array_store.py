"""Array-based baselines: AB and ABC-{D,G,Z,L} (paper Sec. V-A3).

Rows are kept key-sorted in encoded partitions; lookups binary
search (the machinery shared with ``T_aux`` via
:class:`~repro.storage.partition.SortedPartitionStore`).  ``AB`` stores
partitions uncompressed; ``ABC-*`` applies dictionary encoding (D), Gzip
(G), the Z-Standard stand-in (Z), or LZMA (L).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..storage.buffer_pool import BufferPool
from ..storage.partition import SortedPartitionStore
from ..storage.stats import StoreStats
from .base import BaselineStore

__all__ = ["ArrayStore"]

_NAMES = {
    ("none", False): "AB",
    ("none", True): "ABC-D",
    ("gzip", False): "ABC-G",
    ("zstd", False): "ABC-Z",
    ("lzma", False): "ABC-L",
}


class ArrayStore(BaselineStore):
    """Sorted-array representation with optional compression.

    Parameters
    ----------
    codec:
        Partition byte codec (``none`` = the paper's AB).
    dict_encode:
        Apply dictionary encoding (the paper's ABC-D).
    target_partition_bytes:
        Partition size knob the paper grid-searches (Sec. V-A5).
    """

    def __init__(
        self,
        codec: str = "none",
        dict_encode: bool = False,
        target_partition_bytes: int = 128 * 1024,
        pool: Optional[BufferPool] = None,
        stats: Optional[StoreStats] = None,
    ):
        super().__init__(pool=pool, stats=stats)
        self.name = _NAMES.get((codec, dict_encode), f"ABC-{codec}")
        self._store = SortedPartitionStore(
            codec=codec,
            target_partition_bytes=target_partition_bytes,
            dict_encode=dict_encode,
            pool=self.pool,
            stats=self.stats,
        )

    # ------------------------------------------------------------------
    def _build_impl(self, flat_keys: np.ndarray,
                    values: Dict[str, np.ndarray]) -> None:
        self._store.build(flat_keys, values)

    def _lookup_impl(
        self, flat_keys: np.ndarray
    ) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
        return self._store.lookup_batch(flat_keys)

    def stored_bytes(self) -> int:
        """Compressed partition bytes (the offline footprint)."""
        return self._store.stored_bytes()

    @property
    def partition_count(self) -> int:
        """Number of partitions (diagnostics / tuning tests)."""
        return len(self._store.partitions)

    # ------------------------------------------------------------------
    def insert(self, rows) -> None:
        """Append rows whose keys extend past the current range.

        An array layout absorbing inserts must re-sort and re-compress —
        here the new rows are merged and all partitions rebuilt, the
        recompression cost DeepMapping's overlay avoids (paper Fig. 8
        measures this gap).
        """
        self._require_built()
        columns = self._rows_to_columns(rows)
        key_cols = {k: columns[k] for k in self._key_codec.key_names}
        if not self._key_codec.extend_domain(key_cols):
            raise ValueError("inserted keys cannot extend the key domain")
        flat_new = self._key_codec.flatten(key_cols)

        old_keys, old_values = self._store.scan()
        all_keys = np.concatenate([old_keys, flat_new])
        all_values = {
            n: np.concatenate([old_values[n], np.asarray(columns[n])])
            for n in self._value_names
        }
        self._store.build(all_keys, all_values)
        self._n_rows = int(all_keys.size)

    def append_partition(self, rows) -> None:
        """Append new rows as one extra partition, old partitions untouched.

        The cheaper insert variant for monotone keys: still pays encode
        + compress + write for the new partition
        (:meth:`SortedPartitionStore.append`).  Requires every new key to
        sort after the existing range.
        """
        self._require_built()
        columns = self._rows_to_columns(rows)
        key_cols = {k: columns[k] for k in self._key_codec.key_names}
        if not self._key_codec.extend_domain(key_cols):
            raise ValueError("appended keys cannot extend the key domain")
        flat = self._key_codec.flatten(key_cols)
        self._store.append(flat, {n: columns[n] for n in self._value_names})
        self._n_rows += int(flat.size)

    def delete(self, keys) -> int:
        """Delete keys by rebuilding the surviving rows."""
        self._require_built()
        key_cols = self._normalize_keys(keys)
        flat, in_domain = self._key_codec.try_flatten(key_cols)
        victims = set(flat[in_domain].tolist())
        old_keys, old_values = self._store.scan()
        keep = np.array([int(k) not in victims for k in old_keys], dtype=bool)
        removed = int((~keep).sum())
        if removed:
            self._store.build(
                old_keys[keep],
                {n: v[keep] for n, v in old_values.items()},
            )
            self._n_rows -= removed
        return removed

    @staticmethod
    def _rows_to_columns(rows) -> Dict[str, np.ndarray]:
        if hasattr(rows, "columns_dict"):
            return rows.columns_dict()
        return {n: np.asarray(v) for n, v in rows.items()}
