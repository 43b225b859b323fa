"""Adaptive shard lifecycle: retrain bounds and rebalancing.

This package owns the *write-side* lifecycle of a DeepMapping store,
complementing the read path of :mod:`repro.shard`:

- :mod:`repro.lifecycle.policy` — :class:`LifecycleConfig`, the knob
  bundle persisted in the store manifest; its policy name (the paper's
  DM-Z1 bytes threshold, an aux-ratio bound, or never) picks the bounds
  the store's one retrain rule,
  :meth:`~repro.shard.store.DeepMapping.retrain_due`, is asked
  with;
- :mod:`repro.lifecycle.engine` — :class:`MaintenanceEngine`, which runs
  after every mutation batch: overfull range shards split at a median
  key and underfull adjacent shards merge (both only repartition, under
  the store's one model), then a store whose rule is due retrains once.

See ``docs/lifecycle.md`` for the retrain bounds and the split/merge
invariants.
"""

from .engine import LifecycleEvent, MaintenanceEngine
from .policy import LifecycleConfig, POLICY_NAMES

__all__ = [
    "LifecycleConfig",
    "LifecycleEvent",
    "MaintenanceEngine",
    "POLICY_NAMES",
]
