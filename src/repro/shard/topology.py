"""The store's topology: the one module that changes it.

The store's ``(router, model, shards, exist, cut_codes)`` tuple
(:func:`snapshot`) is swapped atomically (:func:`swap`), so a reader
holding the old tuple keeps its answers — the model it started with and
that model's existence index included.  ``exist`` is the store's one
``V_exist`` over the model's whole key domain, built by :func:`install`;
every shard reads it, and a shard holds only the ``T_aux`` rows of its
keys, materialized under the store's one model (:func:`materialize`,
from rows already encoded under it, or :func:`build_shard`, from a
table); nothing here trains.
:func:`split_shard` / :func:`merge_shards` repartition shards (taking
their keys from ``exist``, which they keep) and swap them in;
:func:`retrain` is the store-level retrain — one warm-started refit,
then a new index and every shard re-materialized under it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from ..core.config import DeepMappingConfig
from ..core.deep_mapping import Shard
from ..core.exist_index import make_existence_index
from ..core.model import Fit, Model
from ..data.table import ColumnTable
from .router import RangeShardRouter

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from .store import DeepMapping

__all__ = ["rows", "materialize", "build_shard", "snapshot", "swap",
           "install",
           "retrain", "can_split", "split_shard", "merge_shards"]


def rows(idx: np.ndarray, flat: np.ndarray, labels: Dict[str, np.ndarray],
         lost: np.ndarray):
    """Rows ``idx`` of a batch encoded under a model, ``(flat, labels,
    lost)`` as :meth:`Model.encode <repro.core.model.Model.encode>` gives
    them: one shard's slice."""
    return flat[idx], {t: codes[idx] for t, codes in labels.items()}, \
        lost[idx]


def materialize(store: "DeepMapping", model: Model, exist, flat,
                labels, lost) -> Shard:
    """A shard over rows encoded under ``model`` (see :func:`rows`),
    reading ``exist``, the index that holds (or is about to hold) their
    keys; no training."""
    return Shard.materialize(model, flat, labels, lost, exist,
                             pool=store.pool, stats=store.stats)


def build_shard(store: "DeepMapping",
                table: ColumnTable) -> Shard:
    """A shard over ``table``, whose keys the store's index holds,
    materialized under the store's model — no training."""
    model = store.model
    return materialize(store, model, store.exist,
                       *model.encode(table.columns_dict()))


def snapshot(router: RangeShardRouter, model: Model,
             shards: List[Optional[Shard]], exist) -> Tuple:
    """The store's topology tuple: ``(router, model, shards, exist)``
    and the router's cuts as flat codes under the model's key codec
    (what a read cuts its sorted run at), computed once here — only a
    new router or model moves them."""
    if len(shards) != router.n_shards:
        raise ValueError(
            f"router expects {router.n_shards} shards, got {len(shards)}"
        )
    return (router, model, list(shards), exist,
            model.key_codec.leading_bounds(router.cuts))


def swap(store: "DeepMapping", router: RangeShardRouter, model: Model,
         shards: List[Optional[Shard]], exist) -> None:
    """Install a new topology tuple (:func:`snapshot`) atomically."""
    store._topology = snapshot(router, model, shards, exist)
    # Keep the recorded knob in step so save/load round-trips the
    # post-rebalance shard count.
    store.sharding.n_shards = router.n_shards


def install(store: "DeepMapping", table: ColumnTable,
            fit: Fit) -> None:
    """Build the one index of ``table``'s keys under ``fit`` (just fit
    over it), materialize every shard under it and swap the tuple in;
    retired shards' partitions leave the pool, a reader still holding
    them keeps its answers."""
    router = store.router
    exist = make_existence_index(fit.model.key_codec.domain_size,
                                 fit.flat.size)
    exist.set_batch(fit.flat)
    with store.stats.timing("route"):
        shard_ids = router.route(table.key_columns_dict())
    shards: List[Optional[Shard]] = []
    for ordinal in range(router.n_shards):
        idx = np.flatnonzero(shard_ids == ordinal)
        shards.append(None if idx.size == 0 else materialize(
            store, fit.model, exist,
            *rows(idx, fit.flat, fit.labels, fit.lost)))
    retired = store.shards
    swap(store, router, fit.model, shards, exist)
    for shard in retired:
        if shard is not None:
            shard.aux.drop_storage()


def retrain(store: "DeepMapping", table: ColumnTable,
            config: Optional[DeepMappingConfig] = None) -> None:
    """The store-level retrain: refit the one model over ``table`` (the
    content, plus rows the domain could not take), warm-started unless
    ``config`` says otherwise, :func:`install` it and restart the
    tracker."""
    config = config if config is not None else store.config
    warm = (store.model.session.state_arrays()
            if config.warm_start_rebuild and not config.use_search else None)
    install(store, table, Model.fit(table, config, warm_start=warm))
    store.tracker.mark_rebuilt()


def _live_keys(store: "DeepMapping", first: int, last: int) -> Dict[
        str, np.ndarray]:
    """Key columns of the live keys that shards ``first..last`` own,
    ascending: one contiguous slice of the store's index, because the
    lexicographic flat codes ascend with the leading key the cuts
    split."""
    codec = store.model.key_codec
    flat = store.exist.existing_keys()
    lower, _ = store.router.bounds_of(first)
    _, upper = store.router.bounds_of(last)
    start, stop = np.searchsorted(flat, codec.leading_bounds(
        [-2**63 if lower is None else lower,
         2**63 - 1 if upper is None else upper]))
    return codec.unflatten(flat[start:stop])


def _shard_table(store: "DeepMapping", *ordinals: int) -> ColumnTable:
    """The rows shards ``ordinals`` (neighbours, ascending) hold, as the
    store reads them."""
    key_cols = _live_keys(store, ordinals[0], ordinals[-1])
    columns: Dict[str, np.ndarray] = dict(key_cols)
    columns.update(store.lookup(key_cols).values)
    return ColumnTable(columns, key=store.key_names, name="deepmapping")


def can_split(store: "DeepMapping", ordinal: int) -> bool:
    """True when shard ``ordinal`` has at least two distinct leading
    keys (the minimum to place a cut with both sides non-empty)."""
    if store.shards[ordinal] is None:
        return False
    leading = _live_keys(store, ordinal, ordinal)[store.key_names[0]]
    return np.unique(leading).size >= 2


def split_shard(store: "DeepMapping", ordinal: int,
                cut: Optional[int] = None) -> int:
    """Split shard ``ordinal`` into ``[lower, cut)`` / ``[cut,
    upper)`` halves, each materialized under the store's model (nothing
    trains), and swap them in atomically; the retired shard's partitions
    leave the pool (a reader still holding it keeps its answers).

    ``cut`` defaults to the shard's median live leading key; an
    explicit cut must leave both halves non-empty.  Single-writer.
    Returns the cut used.
    """
    store._require_writable()
    router = store.router
    shard = store.shards[ordinal]
    if shard is None:
        raise ValueError(f"shard {ordinal} is empty; nothing to split")
    table = _shard_table(store, ordinal)
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
    halves = [build_shard(store, table.take(np.flatnonzero(mask)))
              for mask in (leading < cut, leading >= cut)]
    new_shards = store.shards[:ordinal] + halves + store.shards[ordinal + 1:]
    swap(store, split, store.model, new_shards, store.exist)
    shard.aux.drop_storage()
    return cut


def merge_shards(store: "DeepMapping", ordinal: int) -> None:
    """Merge shards ``ordinal`` and ``ordinal + 1``: the pair's
    rows are materialized as one shard under the store's model (nothing
    trains; two empty shards just lose their boundary) and swapped in
    atomically, the retired shards' partitions purged.  Single-writer.
    """
    store._require_writable()
    router = store.router
    if not 0 <= ordinal < router.n_shards - 1:
        raise ValueError(
            f"cannot merge shard {ordinal} with its right neighbour "
            f"in a {router.n_shards}-shard store"
        )
    first = store.shards[ordinal]
    second = store.shards[ordinal + 1]
    table = _shard_table(store, ordinal, ordinal + 1)
    merged = build_shard(store, table) if table.n_rows else None
    new_shards = (store.shards[:ordinal] + [merged]
                  + store.shards[ordinal + 2:])
    swap(store, router.merge_at(ordinal), store.model, new_shards,
         store.exist)
    for retired in (first, second):
        if retired is not None:
            retired.aux.drop_storage()
