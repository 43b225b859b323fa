"""The store's topology: the one module that changes it.

The store's ``(router, model, shards, exist, cut_codes)`` tuple
(:func:`snapshot`) is swapped atomically (:func:`swap`), so a reader
holding the old tuple keeps its answers — the model it started with and
that model's existence index included.  ``exist`` is the store's one
``V_exist`` over the model's whole key domain, built by :func:`install`;
every shard reads it and holds only the ``T_aux`` rows of its keys.

One cut rule places rows everywhere: a row belongs to the shard whose
window of ``cut_codes`` holds its flat code — for a read, a write,
:func:`install` and :func:`split_shard` / :func:`merge_shards`.  A write
never changes the model (paper Sec. IV-D), so a shard's ``T_aux`` is
exactly the live rows of its window the model loses, and rebalancing
moves those rows: nothing trains, looks up or runs the kernel.
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

__all__ = ["snapshot", "swap", "install", "retrain", "can_split",
           "split_shard", "merge_shards"]


def snapshot(router: RangeShardRouter, model: Model,
             shards: List[Optional[Shard]], exist) -> Tuple:
    """The store's topology tuple: ``(router, model, shards, exist)``
    and the router's cuts as flat codes under the model's key codec
    (what every row is cut at), computed once here — only a new router
    or model moves them."""
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


def _edges(flat: np.ndarray, cut_codes: np.ndarray) -> np.ndarray:
    """The cut rule over ascending flat codes: shard ``i`` owns
    ``flat[edges[i]:edges[i + 1]]``."""
    return np.concatenate([[0], np.searchsorted(flat, cut_codes),
                           [flat.size]])


def install(store: "DeepMapping", fit: Fit) -> None:
    """Build the one index of the fit's keys, cut its sorted codes at
    the new model's cut codes into one shard each and swap the tuple in;
    retired shards' partitions leave the pool, a reader still holding
    them keeps its answers."""
    router, model = store.router, fit.model
    exist = make_existence_index(model.key_codec.domain_size, fit.flat.size)
    exist.set_batch(fit.flat)
    with store.stats.timing("route"):
        order = np.argsort(fit.flat)
        edges = _edges(fit.flat[order],
                       model.key_codec.leading_bounds(router.cuts))
    shards: List[Optional[Shard]] = []
    for ordinal in range(router.n_shards):
        rows = order[edges[ordinal]:edges[ordinal + 1]]
        held = rows[fit.lost[rows]]
        shards.append(None if rows.size == 0 else Shard.materialize(
            model, exist, fit.flat[held],
            {t: codes[held] for t, codes in fit.labels.items()}, rows.size,
            pool=store.pool, stats=store.stats))
    retired = store.shards
    swap(store, router, model, shards, exist)
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
    install(store, Model.fit(table, config, warm_start=warm))
    store.tracker.mark_rebuilt()


def _live(store: "DeepMapping", first: int, last: int) -> np.ndarray:
    """The live flat codes shards ``first..last`` own, ascending: the
    slice of the store's index between their cut codes."""
    flat = store.exist.existing_keys()
    edges = _edges(flat, store._topology[4])
    return flat[edges[first]:edges[last + 1]]


def _held(store: "DeepMapping", *shards: Optional[Shard]
          ) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
    """The ``T_aux`` rows of ``shards`` (neighbours, ascending) whose
    keys the store's index holds, ascending: what a shard over their
    windows holds under the same model."""
    scans = [shard.aux.scan() for shard in shards if shard is not None]
    keys = np.concatenate([scan[0] for scan in scans])
    live = store.exist.test_batch(keys)
    return keys[live], {t: np.concatenate([scan[1][t] for scan in scans])[live]
                        for t in scans[0][1]}


def _leading(store: "DeepMapping", flat: np.ndarray) -> np.ndarray:
    return store.model.key_codec.unflatten(flat)[store.key_names[0]]


def can_split(store: "DeepMapping", ordinal: int) -> bool:
    """True when shard ``ordinal`` has at least two distinct leading
    keys (the minimum to place a cut with both sides non-empty)."""
    if store.shards[ordinal] is None:
        return False
    return np.unique(_leading(store, _live(store, ordinal, ordinal))).size >= 2


def split_shard(store: "DeepMapping", ordinal: int,
                cut: Optional[int] = None) -> int:
    """Split shard ``ordinal`` into ``[lower, cut)`` / ``[cut,
    upper)`` halves, its ``T_aux`` rows cut at the cut's flat code
    (nothing trains, nothing is looked up), and swap them in atomically;
    the retired shard's partitions leave the pool (a reader still
    holding it keeps its answers).

    ``cut`` defaults to the shard's median live leading key; an
    explicit cut must leave both halves non-empty.  Single-writer.
    Returns the cut used.
    """
    store._require_writable()
    router = store.router
    shard = store.shards[ordinal]
    if shard is None:
        raise ValueError(f"shard {ordinal} is empty; nothing to split")
    live = _live(store, ordinal, ordinal)
    leading = _leading(store, live)  # ascends with the flat codes
    uniq = np.unique(leading)
    if uniq.size < 2:
        raise ValueError(
            f"shard {ordinal} holds {uniq.size} distinct leading "
            "key(s); a split needs at least two"
        )
    if cut is None:
        cut = int(leading[leading.size // 2])
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
    at = int(store.model.key_codec.leading_bounds([cut])[0])
    keys, codes = _held(store, shard)
    side, n_left = np.searchsorted(keys, at), np.searchsorted(live, at)
    halves = [Shard.materialize(store.model, store.exist, keys[part],
                                {t: col[part] for t, col in codes.items()},
                                n_rows, pool=store.pool, stats=store.stats)
              for part, n_rows in ((slice(None, side), n_left),
                                   (slice(side, None), live.size - n_left))]
    new_shards = store.shards[:ordinal] + halves + store.shards[ordinal + 1:]
    swap(store, split, store.model, new_shards, store.exist)
    shard.aux.drop_storage()
    return cut


def merge_shards(store: "DeepMapping", ordinal: int) -> None:
    """Merge shards ``ordinal`` and ``ordinal + 1``: the pair's
    ``T_aux`` rows join in one shard (nothing trains, nothing is looked
    up; a pair with no live rows just loses its boundary) swapped in
    atomically, the retired shards' partitions purged.  Single-writer.
    """
    store._require_writable()
    router = store.router
    if not 0 <= ordinal < router.n_shards - 1:
        raise ValueError(
            f"cannot merge shard {ordinal} with its right neighbour "
            f"in a {router.n_shards}-shard store"
        )
    pair = store.shards[ordinal:ordinal + 2]
    n_rows = _live(store, ordinal, ordinal + 1).size
    merged = Shard.materialize(
        store.model, store.exist, *_held(store, *pair), n_rows,
        pool=store.pool, stats=store.stats) if n_rows else None
    new_shards = (store.shards[:ordinal] + [merged]
                  + store.shards[ordinal + 2:])
    swap(store, router.merge_at(ordinal), store.model, new_shards,
         store.exist)
    for retired in pair:
        if retired is not None:
            retired.aux.drop_storage()
