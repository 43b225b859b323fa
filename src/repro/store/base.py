"""What both store kinds implement alike behind the ``DataStore`` surface.

:class:`StoreBase`, the shared half of ``DeepMapping`` and
``ShardedDeepMapping``: the executor strategy ``lookup_async`` (and a
sharded store's fan-out) runs on and who closes it, the single-key
lookup, the footprint, and the one retrain rule over the owner's counts.
A subclass supplies ``key_names``, ``lookup``, ``size_report``,
``__len__``, ``tracker`` and ``_aux_rows``.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..core.modify import retrain_due
from .executors import ExecutorStrategy, SerialStrategy, make_executor

__all__ = ["StoreBase"]


class StoreBase:
    """The shared half of both store kinds.

    A strategy built here from a name (or ``None``, the default) is
    owned by the store and shut by :meth:`close`; a strategy instance
    handed in — possibly shared between stores — stays caller-owned and
    is never closed here.  The store stays usable after ``close``: an
    owned strategy rebuilds its pools lazily on next use.
    """

    _executor: Optional[ExecutorStrategy] = None
    _owns_executor = True

    def _executor_workers(self) -> Optional[int]:
        """Width of a pool built here (``None``: the pool's default)."""
        return None

    @property
    def executor(self) -> ExecutorStrategy:
        """The installed strategy (serial until one is installed)."""
        if self._executor is None:
            self._executor = SerialStrategy()
        return self._executor

    def set_executor(self, executor) -> None:
        """Install a strategy: a name from :data:`EXECUTOR_NAMES`, an
        instance, or ``None`` for the default (:func:`make_executor`).
        The outgoing one is closed only if this store owned it."""
        new = make_executor(executor, self._executor_workers())
        if (self._executor is not None and self._owns_executor
                and new is not self._executor):
            self._executor.close()
        self._executor = new
        self._owns_executor = new is not executor

    def close(self) -> None:
        """Shut an owned strategy's workers (idempotent); data stays."""
        if self._executor is not None and self._owns_executor:
            self._executor.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def lookup_one(self, **key_parts) -> Optional[Dict[str, object]]:
        """Convenience single-key lookup; returns a row dict or None."""
        key_cols = {name: np.array([value])
                    for name, value in key_parts.items()}
        if set(key_cols) != set(self.key_names):
            raise KeyError(f"expected key columns {self.key_names}")
        return next(self.lookup(key_cols).rows())

    def storage_bytes(self) -> int:
        """Total offline footprint (Eq. 1's numerator)."""
        return self.size_report().total_bytes

    def aux_ratio(self) -> float:
        """Fraction of live rows served from ``T_aux`` (empty: 0.0)."""
        n_rows = len(self)
        return self._aux_rows() / n_rows if n_rows else 0.0

    def retrain_due(self, threshold_bytes: Optional[int],
                    aux_ratio: Optional[float]) -> bool:
        """The one retrain rule (:func:`repro.core.modify.retrain_due`)
        over this store's tracker, live rows and ``T_aux`` rows."""
        return retrain_due(self.tracker, len(self), self._aux_rows,
                           threshold_bytes, aux_ratio)
