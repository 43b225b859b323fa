"""The maintenance engine: one owner for the sharded store's write-side
lifecycle.

:class:`MaintenanceEngine` absorbs what used to be scattered across the
mutation path — per-shard :class:`~repro.core.modify.ModificationTracker`
accounting, the inline retrain trigger, and (new here) **range shard
rebalancing**:

- **splits** — a shard whose row count exceeds ``split_balance`` times
  the mean splits its key range at a median cut chosen from its live
  keys; the two halves rebuild and the router/shard-list swap is atomic
  (see :mod:`repro.shard.topology`);
- **merges** — an adjacent pair whose combined rows fall under
  ``merge_balance`` times the mean merges back into one shard
  (hysteresis between the two bounds prevents split/merge oscillation);
- **retrains** — after rebalancing (split/merge products are freshly
  built, so they never double-build here), the engine asks each live
  shard :meth:`~repro.core.deep_mapping.DeepMapping.retrain_due` with
  the bounds its policy name maps to
  (:meth:`~repro.lifecycle.policy.LifecycleConfig.retrain_bounds`) — the
  same rule a monolithic structure runs inline, so the engine asks and
  never judges.  Due shards rebuild *through the store's thread pool*
  (NumPy training kernels release the GIL, so several shards retrain
  concurrently) instead of inline in the mutating thread.

Which config a lifecycle build uses is the store's answer, not the
engine's: :func:`repro.shard.topology.build_config` sizes every build
through per-shard MHAS (:mod:`repro.lifecycle.sizing`) when
``lifecycle.per_shard_mhas`` is on, and otherwise keeps a retrained
shard's own config.

The engine holds a plain reference to its store and calls its surface
(``shards``, ``router``, ``split_shard``, ``merge_shards``,
``executor``) and :func:`~repro.shard.topology.build_config`; the store
imports this module, not the other way around, so the layering stays
acyclic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from .policy import LifecycleConfig

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..core.deep_mapping import DeepMapping
    from ..shard.store import ShardedDeepMapping

__all__ = ["LifecycleEvent", "MaintenanceEngine"]


@dataclass
class LifecycleEvent:
    """One maintenance action, in execution order."""

    kind: str  # "rebuild" | "split" | "merge"
    ordinal: int
    #: Live rows involved (the shard for rebuild/split, the pair for merge).
    n_rows: int
    #: Split: the chosen cut.  Merge: the removed boundary.  Rebuild: None.
    cut: Optional[int] = None

    def to_json(self) -> Dict[str, object]:
        return {"kind": self.kind, "ordinal": self.ordinal,
                "n_rows": self.n_rows, "cut": self.cut}


class MaintenanceEngine:
    """Retrain/split/merge maintenance for a sharded store."""

    def __init__(self, store: "ShardedDeepMapping", config: LifecycleConfig):
        self.store = store
        self.config = config
        self.events: List[LifecycleEvent] = []
        self.n_rebuilds = 0
        self.n_splits = 0
        self.n_merges = 0
        self.adopt_all()

    # ------------------------------------------------------------------
    # Shard adoption: the engine owns when a retrain runs
    # ------------------------------------------------------------------
    def adopt(self, shard: Optional["DeepMapping"]) -> None:
        """Disable a shard's inline retrain; the engine asks instead.

        The shard keeps *recording* into its tracker — that is exactly the
        per-shard accounting its retrain rule reads.
        """
        if shard is not None:
            shard.auto_rebuild = False

    def adopt_all(self) -> None:
        for shard in self.store.shards:
            self.adopt(shard)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, object]:
        """Manifest-ready counters (see ``ShardManifest.lifecycle``)."""
        return {
            "policy": self.config.policy,
            "rebalance": self.config.rebalance,
            "per_shard_mhas": self.config.per_shard_mhas,
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
        # Rebalance first: splits and merges rebuild their shards anyway
        # (with zeroed trackers), so a shard that is both retrain-due and
        # overfull gets one build, not a retrain whose model is thrown
        # away by the split that follows.
        if self.config.rebalance and self.store.router.kind == "range":
            performed.extend(self._run_rebalance())
        performed.extend(self._run_retrains())
        self.events.extend(performed)
        return performed

    # -- retrains -------------------------------------------------------
    def _run_retrains(self) -> List[LifecycleEvent]:
        bounds = self.config.retrain_bounds(
            self.store.config.retrain_threshold_bytes)
        due = [ordinal for ordinal, shard in enumerate(self.store.shards)
               if shard is not None and shard.retrain_due(*bounds)]
        if not due:
            return []

        from ..shard.topology import build_config  # the store imports us

        def rebuild_one(ordinal: int) -> LifecycleEvent:
            shard = self.store.shards[ordinal]
            n_rows = len(shard)
            shard.rebuild(config=build_config(self.store.config, self.config,
                                              n_rows, shard.config))
            return LifecycleEvent("rebuild", ordinal, n_rows)

        # Through the store's fan-out pool: one job per due shard, the
        # mutating thread blocks on the batch instead of training inline
        # one shard at a time.
        events = self.store.executor.map(rebuild_one, due)
        self.n_rebuilds += len(events)
        return events

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
