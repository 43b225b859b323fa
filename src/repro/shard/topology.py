"""The sharded store's topology: the one module that changes it.

The store's ``(router, model, shards)`` triple is swapped atomically
(:func:`swap`), so a reader holding the old triple keeps its answers —
the model it started with included.  A shard is ``T_aux`` and
``V_exist`` of one key window (:func:`window`) materialized under the
store's one model (:func:`materialize`, from rows already encoded
under it, or :func:`build_shard`, from a table); nothing here trains.
:func:`split_shard` / :func:`merge_shards` repartition range shards and
swap them in; :func:`retrain` is the store-level retrain — one
warm-started refit, then every shard re-materialized under it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from ..core.config import DeepMappingConfig
from ..core.deep_mapping import DeepMapping
from ..core.model import Fit, Model
from ..data.table import ColumnTable
from .router import RangeShardRouter, ShardRouter

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from .store import ShardedDeepMapping

__all__ = ["window", "rows", "materialize", "build_shard", "swap",
           "install", "retrain", "can_split", "split_shard", "merge_shards"]


def window(router: ShardRouter, model: Model,
           ordinal: int) -> Tuple[int, int]:
    """``(base, size)``, the flat keys shard ``ordinal``'s ``V_exist``
    covers: a range shard's leading keys ``[cuts[i-1], cuts[i])`` are
    one run of flat codes under the lexicographic codec (the last run
    ends at the domain's end); a hash bucket covers the whole domain."""
    codec = model.key_codec
    lo, hi = 0, codec.domain_size
    if isinstance(router, RangeShardRouter):
        if ordinal > 0:
            lo = codec.leading_start(router.cuts[ordinal - 1])
        if ordinal < router.n_shards - 1:
            hi = codec.leading_start(router.cuts[ordinal])
    return lo, max(hi - lo, 1)


def rows(idx: np.ndarray, flat: np.ndarray, labels: Dict[str, np.ndarray],
         lost: np.ndarray):
    """Rows ``idx`` of a batch encoded under a model, ``(flat, labels,
    lost)`` as :meth:`Model.encode <repro.core.model.Model.encode>` gives
    them: one shard's slice."""
    return flat[idx], {t: codes[idx] for t, codes in labels.items()}, \
        lost[idx]


def materialize(store: "ShardedDeepMapping", model: Model,
                router: ShardRouter, ordinal: int, flat, labels,
                lost) -> DeepMapping:
    """Shard ``ordinal`` of ``router`` over rows encoded under ``model``
    (see :func:`rows`); no training."""
    return DeepMapping.materialize(model, flat, labels, lost,
                                   window=window(router, model, ordinal),
                                   pool=store.pool, stats=store.stats)


def build_shard(store: "ShardedDeepMapping", ordinal: int,
                table: ColumnTable,
                router: Optional[ShardRouter] = None) -> DeepMapping:
    """Shard ``ordinal`` of ``router`` (default: the store's) over
    ``table``, materialized under the store's model — no training."""
    model = store.model
    return materialize(store, model, router or store.router, ordinal,
                       *model.encode(table.columns_dict()))


def swap(store: "ShardedDeepMapping", router: ShardRouter, model: Model,
         shards: List[Optional[DeepMapping]]) -> None:
    """Install a new (router, model, shards) triple atomically."""
    if len(shards) != router.n_shards:
        raise ValueError(
            f"router expects {router.n_shards} shards, got {len(shards)}"
        )
    store._topology = (router, model, list(shards))
    # Keep the recorded knob in step so save/load round-trips the
    # post-rebalance shard count.
    store.sharding.n_shards = router.n_shards


def install(store: "ShardedDeepMapping", table: ColumnTable,
            fit: Fit) -> None:
    """Materialize every shard of ``table`` under ``fit`` (just fit over
    it) and swap the triple in; retired shards' partitions leave the
    pool, a reader still holding them keeps its answers."""
    router = store.router
    with store.stats.timing("route"):
        shard_ids = router.route(table.key_columns_dict())
    shards: List[Optional[DeepMapping]] = []
    for ordinal in range(router.n_shards):
        idx = np.flatnonzero(shard_ids == ordinal)
        shards.append(None if idx.size == 0 else materialize(
            store, fit.model, router, ordinal,
            *rows(idx, fit.flat, fit.labels, fit.lost)))
    retired = store.shards
    swap(store, router, fit.model, shards)
    for shard in retired:
        if shard is not None:
            shard.aux.drop_storage()


def retrain(store: "ShardedDeepMapping", table: ColumnTable,
            config: Optional[DeepMappingConfig] = None) -> None:
    """The store-level retrain: refit the one model over ``table`` (the
    content, plus rows the domain could not take), warm-started unless
    ``config`` says otherwise, :func:`install` it, restart the tracker
    and rebuild the store filter (dropping deletes' false positives)."""
    config = config if config is not None else store.config
    warm = (store.model.session.state_arrays()
            if config.warm_start_rebuild and not config.use_search else None)
    install(store, table, Model.fit(table, config, warm_start=warm))
    store.tracker.mark_rebuilt()
    store.refresh_store_filter()


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


def split_shard(store: "ShardedDeepMapping", ordinal: int,
                cut: Optional[int] = None) -> int:
    """Split range shard ``ordinal`` into ``[lower, cut)`` / ``[cut,
    upper)`` halves, each materialized under the store's model (nothing
    trains), and swap them in atomically; the retired shard's partitions
    leave the pool (a reader still holding it keeps its answers).

    ``cut`` defaults to the shard's median live leading key; an
    explicit cut must leave both halves non-empty.  Single-writer.
    Returns the cut used.
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

    split = router.split_at(ordinal, cut)
    halves = [build_shard(store, ordinal + side,
                          table.take(np.flatnonzero(mask)), split)
              for side, mask in enumerate((leading < cut, leading >= cut))]
    new_shards = store.shards[:ordinal] + halves + store.shards[ordinal + 1:]
    swap(store, split, store.model, new_shards)
    shard.aux.drop_storage()
    return cut


def merge_shards(store: "ShardedDeepMapping", ordinal: int) -> None:
    """Merge range shards ``ordinal`` and ``ordinal + 1``: the pair's
    rows are materialized as one shard under the store's model (nothing
    trains; two empty shards just lose their boundary) and swapped in
    atomically, the retired shards' partitions purged.  Single-writer.
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
    merged_router = router.merge_at(ordinal)
    merged: Optional[DeepMapping] = None
    if tables:
        merged = build_shard(store, ordinal, tables[0] if len(tables) == 1
                             else tables[0].concat(tables[1]), merged_router)

    new_shards = (store.shards[:ordinal] + [merged]
                  + store.shards[ordinal + 2:])
    swap(store, merged_router, store.model, new_shards)
    for retired in (first, second):
        if retired is not None:
            retired.aux.drop_storage()
