"""Common interface for the paper's comparison baselines (Sec. V-A3).

Every baseline is a key→value store over a :class:`ColumnTable` with the
same query surface as DeepMapping: batch exact-match lookup returning a
found-mask plus value columns.  Composite keys are flattened with the same
:class:`~repro.data.encoding.CompositeKeyCodec`, so all stores compete on
identical key semantics.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..core.plan import LookupResult
from ..data.encoding import CompositeKeyCodec
from ..data.table import ColumnTable
from ..storage.buffer_pool import BufferPool
from ..storage.stats import StoreStats

__all__ = ["BaselineStore"]


class BaselineStore:
    """Abstract baseline key-value store."""

    #: Short display name in the paper's nomenclature (e.g. "ABC-Z").
    name: str = "abstract"

    def __init__(
        self,
        pool: Optional[BufferPool] = None,
        stats: Optional[StoreStats] = None,
    ):
        self.stats = stats if stats is not None else StoreStats()
        self.pool = pool if pool is not None else BufferPool(stats=self.stats)
        self._key_codec: Optional[CompositeKeyCodec] = None
        self._value_names: Tuple[str, ...] = ()
        self._n_rows = 0

    # ------------------------------------------------------------------
    def build(self, table: ColumnTable) -> "BaselineStore":
        """Load a table into the store; returns self for chaining."""
        self._key_codec = CompositeKeyCodec(table.key).fit(
            table.key_columns_dict()
        )
        self._value_names = table.value_columns
        self._n_rows = table.n_rows
        flat = self._key_codec.flatten(table.key_columns_dict())
        if np.unique(flat).size != flat.size:
            raise ValueError("the designated key does not uniquely identify rows")
        self._build_impl(flat, table.value_columns_dict())
        return self

    def _build_impl(self, flat_keys: np.ndarray,
                    values: Dict[str, np.ndarray]) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    def lookup(self, keys) -> LookupResult:
        """Batch exact-match lookup with DeepMapping-compatible results."""
        self._require_built()
        key_cols = self._normalize_keys(keys)
        flat, in_domain = self._key_codec.try_flatten(key_cols)
        found, values = self._lookup_impl(flat)
        found &= in_domain
        return LookupResult(found=found, values=values)

    def _lookup_impl(
        self, flat_keys: np.ndarray
    ) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
        raise NotImplementedError

    # ------------------------------------------------------------------
    def insert(self, rows) -> None:
        """Append new rows (used by the modification experiments)."""
        raise NotImplementedError(f"{self.name} does not support insert")

    def delete(self, keys) -> int:
        """Delete keys; returns the number removed."""
        raise NotImplementedError(f"{self.name} does not support delete")

    # ------------------------------------------------------------------
    def stored_bytes(self) -> int:
        """Offline storage footprint."""
        raise NotImplementedError

    def __len__(self) -> int:
        return self._n_rows

    @property
    def value_names(self) -> Tuple[str, ...]:
        """Value column names served by this store."""
        return self._value_names

    # ------------------------------------------------------------------
    def _normalize_keys(self, keys) -> Dict[str, np.ndarray]:
        names = self._key_codec.key_names
        if isinstance(keys, ColumnTable):
            return {k: keys.column(k) for k in names}
        if isinstance(keys, dict):
            missing = [k for k in names if k not in keys]
            if missing:
                raise KeyError(f"missing key columns: {missing}")
            return {k: np.asarray(keys[k]) for k in names}
        arr = np.asarray(keys)
        if len(names) == 1:
            return {names[0]: arr.reshape(-1)}
        if arr.ndim == 2 and arr.shape[1] == len(names):
            return {k: arr[:, i] for i, k in enumerate(names)}
        raise ValueError(f"cannot interpret keys for composite key {names}")

    def _require_built(self) -> None:
        if self._key_codec is None:
            raise RuntimeError(f"{self.name} store has not been built")

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r}, rows={self._n_rows})"
