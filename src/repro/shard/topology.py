"""The sharded store's topology: the one module that changes it.

The store's ``(router, shards)`` pair is swapped atomically
(:func:`swap`), so a reader holding the old pair keeps its answers;
:func:`split_shard` / :func:`merge_shards` build new range shards and
swap them in.  :func:`build_config` is the one answer to which config
builds a shard of ``n`` rows, for every build the store runs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

import numpy as np

from ..core.config import DeepMappingConfig
from ..core.deep_mapping import DeepMapping
from ..lifecycle import LifecycleConfig, derive_build_config
from .router import RangeShardRouter, ShardRouter

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from .store import ShardedDeepMapping

__all__ = ["build_config", "build_shard", "swap", "can_split",
           "split_shard", "merge_shards"]


def build_config(config: DeepMappingConfig,
                 lifecycle: Optional[LifecycleConfig], n_rows: int,
                 own: Optional[DeepMappingConfig] = None,
                 ) -> DeepMappingConfig:
    """The config that builds a shard of ``n_rows`` rows.

    With per-shard MHAS sizing on, it is derived from the row count
    (:func:`~repro.lifecycle.derive_build_config`).  Otherwise a retrain
    keeps the shard's ``own`` config and a new shard takes the store's
    ``config``.
    """
    if lifecycle is not None and lifecycle.per_shard_mhas:
        return derive_build_config(config, n_rows, lifecycle)
    return own if own is not None else config


def swap(store: "ShardedDeepMapping", router: ShardRouter,
         shards: List[Optional[DeepMapping]]) -> None:
    """Install a new (router, shards) pair atomically."""
    if len(shards) != router.n_shards:
        raise ValueError(
            f"router expects {router.n_shards} shards, got {len(shards)}"
        )
    store._topology = (router, list(shards))
    # Keep the recorded knob in step so save/load round-trips the
    # post-rebalance shard count.
    store.sharding.n_shards = router.n_shards


def _require_range_router(store: "ShardedDeepMapping") -> RangeShardRouter:
    router = store.router
    if not isinstance(router, RangeShardRouter):
        raise TypeError(
            "shard split/merge requires a range router; this store "
            f"routes by {router.kind!r}"
        )
    return router


def can_split(store: "ShardedDeepMapping", ordinal: int) -> bool:
    """True when shard ``ordinal`` has at least two distinct leading
    keys (the minimum to place a cut with both sides non-empty)."""
    shard = store.shards[ordinal]
    if shard is None or not isinstance(store.router, RangeShardRouter):
        return False
    key_cols = shard.key_codec.unflatten(shard.exist.existing_keys())
    leading = np.asarray(key_cols[store.key_names[0]], dtype=np.int64)
    return np.unique(leading).size >= 2


def build_shard(store: "ShardedDeepMapping", table) -> DeepMapping:
    """A new shard over ``table`` with the :func:`build_config` of its
    row count, handed to the engine (if any)."""
    config = build_config(store.config, store.sharding.lifecycle,
                          table.n_rows)
    shard = DeepMapping.fit(table, config, pool=store.pool,
                            stats=store.stats)
    if store.engine is not None:
        store.engine.adopt(shard)
    return shard


def split_shard(store: "ShardedDeepMapping", ordinal: int,
                cut: Optional[int] = None) -> int:
    """Split range shard ``ordinal`` into ``[lower, cut)`` / ``[cut,
    upper)`` halves, rebuilding each as its own DeepMapping.

    ``cut`` defaults to the shard's median live leading key; an
    explicit cut must leave both halves non-empty.  Each half builds
    with the :func:`build_config` of its own row count.  The halves
    build concurrently on the fan-out pool, then the router (with the
    new cut) and the shard list swap in atomically; the retired shard's
    aux partitions are purged from the pool (a reader still holding it
    keeps its answers).  Runs under the store's single-writer mutation
    contract.  Returns the cut used.
    """
    store._require_writable()
    router = _require_range_router(store)
    shard = store.shards[ordinal]
    if shard is None:
        raise ValueError(f"shard {ordinal} is empty; nothing to split")
    table = shard.to_table()
    leading = np.asarray(table.column(store.key_names[0]), dtype=np.int64)
    uniq = np.unique(leading)
    if uniq.size < 2:
        raise ValueError(
            f"shard {ordinal} holds {uniq.size} distinct leading "
            "key(s); a split needs at least two"
        )
    if cut is None:
        cut = int(np.sort(leading)[leading.size // 2])
        if cut <= int(uniq[0]):
            cut = int(uniq[1])  # left half (keys < cut) must be non-empty
    else:
        cut = int(cut)
        if not int(uniq[0]) < cut <= int(uniq[-1]):
            raise ValueError(
                f"cut {cut} leaves an empty half: live leading keys "
                f"span [{int(uniq[0])}, {int(uniq[-1])}]"
            )

    halves = [table.take(np.flatnonzero(leading < cut)),
              table.take(np.flatnonzero(leading >= cut))]
    left, right = store.executor.map(
        lambda half: build_shard(store, half), halves)

    new_shards = (store.shards[:ordinal] + [left, right]
                  + store.shards[ordinal + 1:])
    swap(store, router.split_at(ordinal, cut), new_shards)
    shard.aux.drop_storage()
    return cut


def merge_shards(store: "ShardedDeepMapping", ordinal: int) -> None:
    """Merge range shards ``ordinal`` and ``ordinal + 1`` into one.

    The pair's live rows rebuild as a single DeepMapping with the
    :func:`build_config` of their row count; merging two empty shards
    just removes the boundary.  The router (minus the boundary cut) and
    the shard list swap in atomically; both retired shards' aux
    partitions are purged from the pool.  Runs under the store's
    single-writer mutation contract.
    """
    store._require_writable()
    router = _require_range_router(store)
    if not 0 <= ordinal < router.n_shards - 1:
        raise ValueError(
            f"cannot merge shard {ordinal} with its right neighbour "
            f"in a {router.n_shards}-shard store"
        )
    first = store.shards[ordinal]
    second = store.shards[ordinal + 1]
    tables = [s.to_table() for s in (first, second)
              if s is not None and len(s)]
    merged: Optional[DeepMapping] = None
    if tables:
        merged = build_shard(store, tables[0] if len(tables) == 1
                             else tables[0].concat(tables[1]))

    new_shards = (store.shards[:ordinal] + [merged]
                  + store.shards[ordinal + 2:])
    swap(store, router.merge_at(ordinal), new_shards)
    for retired in (first, second):
        if retired is not None:
            retired.aux.drop_storage()
