"""Adaptive shard lifecycle: retrain bounds, rebalancing, model sizing.

This package owns the *write-side* lifecycle of a sharded DeepMapping
store, complementing the read-side fan-out of :mod:`repro.shard`:

- :mod:`repro.lifecycle.policy` — :class:`LifecycleConfig`, the knob
  bundle persisted in the store manifest; its policy name (the paper's
  DM-Z1 bytes threshold, an aux-ratio bound, or never) picks the bounds
  every shard's one retrain rule,
  :meth:`~repro.core.deep_mapping.DeepMapping.retrain_due`, is asked
  with;
- :mod:`repro.lifecycle.sizing` — per-shard MHAS: derive each lifecycle
  (re)build's architecture from the shard's row count (closed-form small
  specs for small shards, budget-scaled search for large ones);
- :mod:`repro.lifecycle.engine` — :class:`MaintenanceEngine`, which runs
  after every mutation batch: shards whose rule is due retrain on the
  store's thread pool, overfull range shards split at a median key, underfull adjacent
  shards merge, and every rebuild is right-sized.

See ``docs/lifecycle.md`` for the retrain bounds and the split/merge
invariants.
"""

from .engine import LifecycleEvent, MaintenanceEngine
from .policy import LifecycleConfig, POLICY_NAMES
from .sizing import closed_form_sizes, derive_build_config

__all__ = [
    "LifecycleConfig",
    "LifecycleEvent",
    "MaintenanceEngine",
    "POLICY_NAMES",
    "closed_form_sizes",
    "derive_build_config",
]
