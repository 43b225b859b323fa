"""Sharded DeepMapping: partition the key domain across independent models.

A single :class:`~repro.core.deep_mapping.DeepMapping` couples one neural
model with one existence vector over the *whole* flattened key domain, which
caps both the dataset size (the bit vector, the model's one-hot input width)
and lookup throughput (one model evaluates every query key).  This package
scales the structure out horizontally:

- :mod:`repro.shard.router` — vectorized key→shard routing policies
  (:class:`RangeShardRouter` over the leading key column,
  :class:`HashShardRouter` over all key columns);
- :mod:`repro.shard.store` — :class:`ShardedDeepMapping`, the N-shard store
  that fans batched lookups out to the owning shards (optionally on a
  thread pool) and merges the results back into input order;
- :mod:`repro.shard.manifest` — the on-disk manifest describing a saved
  sharded store (router state, per-shard files, schema, lifecycle
  metadata);
- :mod:`repro.shard.persistence` — the saved store's directory layout:
  what ``save`` writes and the writable / shared / hydrating opens.

The write-side lifecycle — retrain policies, range split/merge
rebalancing, per-shard model sizing — lives in :mod:`repro.lifecycle`;
a store opts in by passing ``ShardingConfig(lifecycle=...)``.

Range sharding additionally *shrinks* each shard's key domain, so per-shard
key encodings need fewer one-hot digits and the per-key inference cost drops
— a measurable win even on a single core (see ``benchmarks/bench_sharding``
and ``docs/sharding.md``).
"""

from .manifest import (MANIFEST_NAME, ShardEntry, ShardManifest,
                       is_sharded_backend, is_sharded_store)
from .router import (HashShardRouter, RangeShardRouter, ShardRouter,
                     make_router, router_from_state)
from .store import ShardedDeepMapping, ShardingConfig
# After .store (which it imports): loaded with the package, so the first
# save / open does not pay for the import.
from . import persistence  # noqa: E402,F401

__all__ = [
    "ShardedDeepMapping",
    "ShardingConfig",
    "ShardRouter",
    "RangeShardRouter",
    "HashShardRouter",
    "make_router",
    "router_from_state",
    "ShardManifest",
    "ShardEntry",
    "MANIFEST_NAME",
    "is_sharded_store",
    "is_sharded_backend",
]
