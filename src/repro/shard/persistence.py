"""The sharded store's on-disk layout: the one module that knows it.

A saved store is a container — any
:class:`~repro.storage.backends.StorageBackend`, selected by URL scheme
— holding ``manifest.json`` (:mod:`repro.shard.manifest` draws the
tree), the store's one model blob ``model.rzc``, its one existence
index ``exist.rzc`` and one ``shard-NNNN.dm`` payload (``T_aux``) per
non-empty shard; the index and every shard blob name the CRC of the
model blob they were saved under, and the manifest names the CRCs of
the model and the index.  :func:`save` writes it and sweeps payload
blobs a previous save left behind; :func:`load` reads it back three
ways — writable, shared read-only, or hydrating over a remote backend.
:meth:`ShardedDeepMapping.save` / :meth:`ShardedDeepMapping.load` are
the public entry points; they hand straight to this module.
"""

from __future__ import annotations

import functools
from contextlib import nullcontext
from typing import Dict, List, Optional, Union

import numpy as np

from ..core.deep_mapping import DeepMapping
from ..core.persistence import (blob_crc, exist_payload, model_payload,
                                open_exist, open_model, open_payload,
                                shard_payload)
from ..lifecycle import LifecycleConfig
from ..storage.backends import StorageBackend, backend_for_url
from ..storage.blob_cache import payload_cache
from ..storage.buffer_pool import BufferPool
from ..storage.hydration import LazyShard
from ..storage.stats import StoreStats
from ..store.executors import ExecutorStrategy
from .manifest import EXIST_NAME, MODEL_NAME, ShardEntry, ShardManifest
from .router import router_from_state
from .store import ShardedDeepMapping, ShardingConfig

__all__ = ["save", "load", "shard_blob_name", "is_shard_blob"]


def shard_blob_name(ordinal: int) -> str:
    """Blob name of shard ``ordinal``'s payload."""
    return f"shard-{ordinal:04d}.dm"


def is_shard_blob(name: str) -> bool:
    """True for names :func:`shard_blob_name` produces."""
    return name.startswith("shard-") and name.endswith(".dm")


# ----------------------------------------------------------------------
# Save
# ----------------------------------------------------------------------
def save(store: ShardedDeepMapping,
         target: Union[str, StorageBackend]) -> int:
    """Write ``store`` into ``target``; returns total bytes written.

    Empty shards are recorded in the manifest with no payload blob;
    payload blobs from a previous save that this store no longer
    references are deleted, so a re-save in place cannot leave stale
    shards behind.
    """
    backend = (backend_for_url(target) if isinstance(target, str)
               else target)
    # Backends that buffer whole-container rewrites (zip) batch the
    # save into one atomic replace instead of one rewrite per blob.
    batch = getattr(backend, "batch", None)
    with (batch() if batch is not None else nullcontext()):
        return _save_into(store, backend)


def _save_into(store: ShardedDeepMapping, backend: StorageBackend) -> int:
    total = 0
    entries: List[ShardEntry] = []
    sharding = store.sharding
    model_blob = model_payload(store.model)
    model_crc = blob_crc(model_blob)
    exist_blob = exist_payload(store.exist, model_crc)
    with store.stats.timing("io"):
        total += backend.write_bytes(MODEL_NAME, model_blob)
        total += backend.write_bytes(EXIST_NAME, exist_blob)
        for ordinal, shard in enumerate(store.shards):
            if shard is None:
                entries.append(ShardEntry(file=None))
                continue
            fname = shard_blob_name(ordinal)
            nbytes = backend.write_bytes(fname,
                                         shard_payload(shard, model_crc))
            entries.append(ShardEntry(file=fname, n_rows=len(shard),
                                      n_bytes=nbytes))
            total += nbytes

    lifecycle: Dict[str, object] = {}
    if sharding.lifecycle is not None:
        lifecycle["config"] = sharding.lifecycle.to_state()
    if store.engine is not None:
        lifecycle["counters"] = store.engine.summary()

    manifest = ShardManifest(
        router=store.router.to_state(),
        key_names=list(store.key_names),
        value_names=list(store.value_names),
        value_dtypes={name: store.value_dtype(name).str
                      for name in store.value_names},
        shards=entries,
        model_crc=model_crc,
        exist_crc=blob_crc(exist_blob),
        sharding={
            "strategy": sharding.strategy,
            "n_shards": sharding.n_shards,
            "max_workers": sharding.max_workers,
            "pool_budget_bytes": sharding.pool_budget_bytes,
            "executor": getattr(sharding.executor, "name",
                                sharding.executor),
            "on_shard_error": sharding.on_shard_error,
            "hedged_reads": sharding.hedged_reads,
        },
        lifecycle=lifecycle,
        tracker=store.tracker.to_state(),
    )
    total += manifest.save_to(backend)

    # A shrunk store (merges, fewer shards) must not leave orphaned
    # payload blobs for a later loader to trip over.
    referenced = {entry.file for entry in entries if entry.file}
    for name in backend.list():
        if is_shard_blob(name) and name not in referenced:
            backend.delete(name)
    # Every blob under this container may have changed (including
    # deletions after a lifecycle split/merge); retire all cached
    # read-only bundles for it at once.
    payload_cache().invalidate_backend(backend)
    return total


# ----------------------------------------------------------------------
# Load
# ----------------------------------------------------------------------
def load(cls, target: Union[str, StorageBackend],
         stats: Optional[StoreStats], max_workers: Optional[int],
         pool_budget_bytes: Optional[int],
         executor: Union[str, ExecutorStrategy, None],
         writable: bool) -> ShardedDeepMapping:
    """Open the store saved in ``target`` as a ``cls``
    (:meth:`ShardedDeepMapping.load` documents the overrides).

    The store's one model opens first
    (:func:`repro.core.persistence.open_model`), then its one existence
    index (:func:`repro.core.persistence.open_exist`), by the same rule;
    every shard then opens under both through
    :func:`repro.core.persistence.open_payload`, the one open rule, and
    takes its live count from the manifest.  All shards' auxiliary
    partitions share one :class:`~repro.storage.buffer_pool.BufferPool`,
    so a single byte budget caps resident partitions across the store.
    **Writable** (the default) reads every payload whole into private,
    mutable copies; **shared** (``writable=False``) opens the model, the
    index and every shard through the process-wide payload cache —
    zero-copy views (mmap-backed on local directories), one deserialized
    bundle per unchanged blob (the model's compiled kernel and the
    shards' attached partitions included); cached shards keep the pool
    of their *first* (cold) open, so ``pool_budget_bytes`` only applies
    to shards loaded cold.  **Hydrating** (backends flagging ``remote =
    True``; forces ``writable=False``) fetches only the manifest, the
    model blob and the existence blob — so a batch of misses downloads
    nothing more — and stands a
    :class:`~repro.storage.hydration.LazyShard` in for every shard, which
    runs the same open on first routed touch (``docs/remote.md``).
    """
    backend = (backend_for_url(target, create=False)
               if isinstance(target, str) else target)
    hydrating = bool(getattr(backend, "remote", False))
    if hydrating:
        writable = False
    manifest = ShardManifest.load_from(backend)
    router = router_from_state(manifest.router)
    model = open_model(backend, MODEL_NAME, writable=writable,
                       crc=manifest.model_crc)
    exist = open_exist(backend, EXIST_NAME, writable=writable,
                       crc=manifest.exist_crc, model_crc=manifest.model_crc)

    saved = manifest.sharding
    lifecycle_state = manifest.lifecycle.get("config")
    sharding = ShardingConfig(
        n_shards=manifest.n_shards,
        strategy=saved.get("strategy", router.kind),
        max_workers=(max_workers if max_workers is not None
                     else saved.get("max_workers")),
        pool_budget_bytes=(pool_budget_bytes if pool_budget_bytes is not None
                           else saved.get("pool_budget_bytes")),
        executor=(executor if executor is not None
                  else saved.get("executor")),
        lifecycle=(LifecycleConfig.from_state(lifecycle_state)
                   if lifecycle_state else None),
        on_shard_error=saved.get("on_shard_error", "raise"),
        hedged_reads=saved.get("hedged_reads", False),
    )
    stats = stats if stats is not None else StoreStats()
    # Remote transports accumulate range/hydration counters; point
    # them at this store's sink so `store.stats` (and the serving
    # tier's snapshot bracket) sees them.
    bind_stats = getattr(backend, "bind_stats", None)
    if bind_stats is not None:
        bind_stats(stats)
    pool = BufferPool(budget_bytes=sharding.pool_budget_bytes,
                      stats=stats)
    shards: List[Optional[DeepMapping]] = []
    for entry in manifest.shards:
        if entry.file is None:
            shards.append(None)
            continue
        opener = functools.partial(open_payload, backend, entry.file,
                                   writable=writable, pool=pool, stats=stats,
                                   model=model,
                                   model_crc=manifest.model_crc,
                                   exist=exist, n_rows=entry.n_rows)
        if hydrating:
            # Nothing is fetched here: the proxy defers the shared
            # open (a ranged container fetch through the payload
            # cache, which also dedupes concurrent hydrations of
            # the same blob) until a batch actually routes into
            # this shard.
            shards.append(LazyShard(opener, n_rows=entry.n_rows,
                                    stats=stats, label=entry.file))
        else:
            shards.append(opener())
    value_dtypes = {name: np.dtype(spec)
                    for name, spec in manifest.value_dtypes.items()}
    store = cls(router, model, shards, exist, sharding,
                value_names=tuple(manifest.value_names),
                value_dtypes=value_dtypes, stats=stats, pool=pool)
    store.writable = writable
    store.tracker.restore_counters(manifest.tracker)
    if store.engine is not None and "counters" in manifest.lifecycle:
        store.engine.restore_counters(manifest.lifecycle["counters"])
    return store
