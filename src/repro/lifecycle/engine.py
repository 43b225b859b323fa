"""The maintenance engine: one owner for the store's write-side
lifecycle.

:class:`MaintenanceEngine` runs after every mutation batch:

- **splits** — a shard whose row count exceeds ``split_balance`` times
  the mean splits its key range at a median cut chosen from its live
  keys; its ``T_aux`` rows move into the two halves (nothing trains or
  runs the kernel) and the router/shard-list swap is atomic (see
  :mod:`repro.shard.topology`);
- **merges** — an adjacent pair whose combined rows fall under
  ``merge_balance`` times the mean merges back into one shard, its rows
  moved the same way (hysteresis between the two bounds prevents
  split/merge oscillation);
- **retrain** — after rebalancing, the engine asks the store
  :meth:`~repro.shard.store.DeepMapping.retrain_due` over its
  totals with the bounds the policy name maps to
  (:meth:`~repro.lifecycle.policy.LifecycleConfig.retrain_bounds`) — the
  same rule an unmanaged store runs inline, so the engine asks and
  never judges.  A due store retrains once: one warm-started refit of
  its model, every shard re-materialized under it.

The engine holds a plain reference to its store and calls its surface
(``shards``, ``router``, ``split_shard``, ``merge_shards``,
``retrain_due``, ``rebuild``); the store imports this module, not the
other way around, so the layering stays acyclic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from .policy import LifecycleConfig

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..shard.store import DeepMapping

__all__ = ["LifecycleEvent", "MaintenanceEngine"]


@dataclass
class LifecycleEvent:
    """One maintenance action, in execution order."""

    kind: str  # "rebuild" | "split" | "merge"
    #: The shard split, or the left shard of a merged pair; None for a
    #: rebuild, which retrains the whole store.
    ordinal: Optional[int]
    #: Live rows involved (the store for a rebuild, the shard for a
    #: split, the pair for a merge).
    n_rows: int
    #: Split: the chosen cut.  Merge: the removed boundary.  Rebuild: None.
    cut: Optional[int] = None


class MaintenanceEngine:
    """Retrain/split/merge maintenance for a sharded store."""

    def __init__(self, store: "DeepMapping", config: LifecycleConfig):
        self.store = store
        self.config = config
        self.events: List[LifecycleEvent] = []
        self.n_rebuilds = 0
        self.n_splits = 0
        self.n_merges = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, object]:
        """Manifest-ready counters (see ``ShardManifest.lifecycle``)."""
        return {
            "policy": self.config.policy,
            "rebalance": self.config.rebalance,
            "rebuilds": self.n_rebuilds,
            "splits": self.n_splits,
            "merges": self.n_merges,
        }

    def restore_counters(self, state: Dict[str, object]) -> None:
        """Adopt lifetime counters from a saved manifest."""
        self.n_rebuilds = int(state.get("rebuilds", 0))
        self.n_splits = int(state.get("splits", 0))
        self.n_merges = int(state.get("merges", 0))

    # ------------------------------------------------------------------
    # The maintenance run
    # ------------------------------------------------------------------
    def run_pending(self) -> List[LifecycleEvent]:
        """One maintenance pass; called after every mutation batch.

        Runs under the store's single-writer contract (the mutating thread
        calls it), so shard structures may be swapped freely.  Returns the
        events performed this pass (also appended to :attr:`events`).
        """
        performed: List[LifecycleEvent] = []
        # Rebalance first: a split or merge only repartitions, so a
        # retrain after it re-materializes the final shards once.
        if self.config.rebalance:
            performed.extend(self._run_rebalance())
        bounds = self.config.retrain_bounds(
            self.store.config.retrain_threshold_bytes)
        if self.store.retrain_due(*bounds):
            performed.append(LifecycleEvent("rebuild", None, len(self.store)))
            self.store.rebuild()
            self.n_rebuilds += 1
        self.events.extend(performed)
        return performed

    # -- rebalancing ----------------------------------------------------
    def _run_rebalance(self) -> List[LifecycleEvent]:
        events: List[LifecycleEvent] = []
        for _ in range(self.config.max_actions_per_run):
            event = self._one_rebalance_action()
            if event is None:
                break
            events.append(event)
        return events

    def _one_rebalance_action(self) -> Optional[LifecycleEvent]:
        counts = np.asarray(self.store.shard_row_counts(), dtype=np.int64)
        if counts.size == 0 or counts.sum() == 0:
            return None
        # Balance bounds are relative to the mean over *live* shards:
        # empty shards (e.g. after a drain) would otherwise drag the mean
        # down until every surviving shard looks overfull, starving the
        # merge branch that would clean those empties up.
        mean = counts.sum() / max(int((counts > 0).sum()), 1)

        split = self._pick_split(counts, mean)
        if split is not None:
            ordinal = split
            n_rows = int(counts[ordinal])
            cut = self.store.split_shard(ordinal)
            self.n_splits += 1
            return LifecycleEvent("split", ordinal, n_rows, cut=cut)

        merge = self._pick_merge(counts, mean)
        if merge is not None:
            ordinal = merge
            n_rows = int(counts[ordinal] + counts[ordinal + 1])
            boundary = int(self.store.router.cuts[ordinal])
            self.store.merge_shards(ordinal)
            self.n_merges += 1
            return LifecycleEvent("merge", ordinal, n_rows, cut=boundary)
        return None

    def _pick_split(self, counts: np.ndarray, mean: float) -> Optional[int]:
        """Largest shard past the split bound that can actually split."""
        if counts.size >= self.config.max_shards:
            return None
        bound = max(self.config.split_balance * mean,
                    2 * self.config.split_min_rows)
        for ordinal in np.argsort(counts)[::-1]:
            if counts[ordinal] < bound:
                return None
            if self.store.can_split(int(ordinal)):
                return int(ordinal)
        return None

    def _pick_merge(self, counts: np.ndarray, mean: float) -> Optional[int]:
        """Adjacent pair with the smallest combined rows under the bound."""
        if counts.size <= max(self.config.min_shards, 1):
            return None
        combined = counts[:-1] + counts[1:]
        ordinal = int(np.argmin(combined))
        if combined[ordinal] >= self.config.merge_balance * mean:
            return None
        return ordinal

    def __repr__(self) -> str:
        return (f"MaintenanceEngine(policy={self.config.policy!r}, "
                f"rebalance={self.config.rebalance}, "
                f"rebuilds={self.n_rebuilds}, splits={self.n_splits}, "
                f"merges={self.n_merges})")
