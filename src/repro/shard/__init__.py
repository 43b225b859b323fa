"""Sharded DeepMapping: one model per table, its rows partitioned by key.

A sharded store fits one model over the whole table, as the paper does,
keeps one ``V_exist`` over its key domain, and splits ``T_aux`` into
key windows (shards) that fan batched lookups out and rebalance
independently:

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

The write-side lifecycle — the store-level retrain policy and range
split/merge rebalancing — lives in :mod:`repro.lifecycle`; a store opts
in by passing ``ShardingConfig(lifecycle=...)``.
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
