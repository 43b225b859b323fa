"""The DeepMapping store: one model per table, its rows partitioned by key.

A store fits one model over the whole table, as the paper does, keeps
one ``V_exist`` over its key domain, and splits ``T_aux`` into key
windows (shards, one by default) that fan batched lookups out and
rebalance independently:

- :mod:`repro.shard.router` — :class:`RangeShardRouter`, vectorized
  key→shard routing by contiguous ranges of the leading key column (the
  only placement: a shard's keys are one run of the flat codes);
- :mod:`repro.shard.store` — :class:`DeepMapping`, the store that fans
  batched lookups out to the owning shards (optionally on a thread
  pool) and merges the results back into input order;
- :mod:`repro.shard.manifest` — the on-disk manifest describing a saved
  store (router state, per-shard files, schema, lifecycle metadata);
- :mod:`repro.shard.persistence` — the saved store's directory layout:
  what ``save`` writes and the writable / shared / hydrating opens.

The write-side lifecycle — the store-level retrain policy and range
split/merge rebalancing — lives in :mod:`repro.lifecycle`; a store opts
in by passing ``ShardingConfig(lifecycle=...)``.
"""

from .manifest import MANIFEST_NAME, ShardEntry, ShardManifest
from .router import RangeShardRouter
from .store import DeepMapping, ShardingConfig
# After .store (which it imports): loaded with the package, so the first
# save / open does not pay for the import.
from . import persistence  # noqa: E402,F401

__all__ = [
    "DeepMapping",
    "ShardingConfig",
    "RangeShardRouter",
    "ShardManifest",
    "ShardEntry",
    "MANIFEST_NAME",
]
