"""The sharded DeepMapping store.

:class:`ShardedDeepMapping` partitions a table's key domain across N
independent :class:`~repro.core.deep_mapping.DeepMapping` shards and gives
them one facade with the same surface (``lookup`` / ``lookup_one`` /
``insert`` / ``delete`` / ``update`` / ``save`` / ``load`` /
``size_report``), so existing layers — :func:`repro.core.query.select`,
the CLI, the bench harness — work over it transparently.

This module owns the store's build, its **mutation** path and the
store filter; its other methods hand straight to the module that owns
the decision: the **topology** (the atomically swapped ``(router,
shards)`` pair, split/merge, and which config builds a shard) to
:mod:`repro.shard.topology`, the **read path** (prune → route →
allocate → dispatch → result) to :mod:`repro.shard.read_path`, and the
on-disk layout to :mod:`repro.shard.persistence`.

Modifications route the same way: each row is applied to the owning
shard's auxiliary table, and an insert that targets an empty shard
materializes a fresh shard over those rows.  When the sharding config
carries a :class:`~repro.lifecycle.LifecycleConfig`, every mutation batch
ends with a :class:`~repro.lifecycle.MaintenanceEngine` pass — policy-
driven retrains on the fan-out pool, plus range shard split/merge
rebalancing with per-shard MHAS sizing (:mod:`repro.shard.topology`
holds the mechanics; the engine holds the policy).
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..core.config import DeepMappingConfig
from ..core.deep_mapping import (DeepMapping, KeysLike, RowsLike,
                                 SizeReport, normalize_keys, normalize_rows)
from ..core.negative_filter import build_store_filter, hash_key_columns
from ..core.plan import LookupResult, blank
from ..data.table import ColumnTable
from ..lifecycle import LifecycleConfig, MaintenanceEngine
from ..resilience.deadline import Deadline
from ..resilience.hedging import HedgeController
from ..storage.backends import StorageBackend
from ..storage.buffer_pool import BufferPool
from ..storage.stats import StoreStats
from ..store.executors import ExecutorStrategy, make_executor
from . import read_path, topology
from .router import ShardRouter, make_router

__all__ = ["ShardedDeepMapping", "ShardingConfig"]

#: Store-filter sizing when it is a Bloom filter, in bits per inserted
#: key (~3 % of misses pass and are rejected by the owning shard's
#: ``V_exist``).  The manifest growth must stay under 2 bytes/key after
#: the base64 framing (see docs/sharding.md).
_STORE_FILTER_BITS = 8


@dataclass
class ShardingConfig:
    """Knobs of the sharded store (orthogonal to the per-shard build)."""

    #: Number of shards the key domain is split into.
    n_shards: int = 4
    #: ``"range"`` (contiguous leading-key ranges, shrinks per-shard
    #: domains) or ``"hash"`` (uniform placement over all key columns).
    strategy: str = "range"
    #: Thread-pool width for fan-out; ``None`` means
    #: ``min(n_shards, cpu_count)``.  Effective width 1 runs inline.
    max_workers: Optional[int] = None
    #: Executor strategy behind the fan-out and ``lookup_async`` — a name
    #: from :data:`repro.store.EXECUTOR_NAMES` (``"serial"`` /
    #: ``"threads"``) or an
    #: :class:`~repro.store.executors.ExecutorStrategy` instance.
    #: ``None`` means a thread pool of :meth:`effective_workers` width —
    #: exactly the pre-strategy behavior.
    executor: Union[str, ExecutorStrategy, None] = None
    #: Shared buffer-pool budget for all shards' aux partitions
    #: (``None`` = unbounded).
    pool_budget_bytes: Optional[int] = None
    #: Write-side maintenance: retrain policy, split/merge rebalancing,
    #: per-shard MHAS sizing (see :mod:`repro.lifecycle`).  ``None`` keeps
    #: the store unmanaged — shards retrain inline on their own
    #: thresholds, exactly the pre-lifecycle behavior.
    lifecycle: Optional[LifecycleConfig] = None
    #: Fault-isolation mode of the lookup fan-out.  ``"raise"`` (the
    #: default, the historical behavior): any shard failure fails the
    #: whole batch.  ``"partial"``: a failing or timed-out shard does not
    #: poison the batch — its keys come back marked in a
    #: :class:`~repro.resilience.partial.PartialResult` while healthy
    #: shards' results stay bit-identical.  The one place the mode is
    #: set.
    on_shard_error: str = "raise"
    #: Hedged shard reads: when a routed shard's plan-job runs well past
    #: an adaptive multiple of what its batch peers needed (see
    #: :class:`~repro.resilience.hedging.HedgeController`), launch ONE
    #: backup attempt on the fan-out lane and take whichever finishes
    #: first.  Safe because shard lookups are pure reads of an
    #: atomically-snapshotted topology and both attempts scatter
    #: bit-identical bytes into disjoint output rows; bounded by a
    #: per-batch hedge budget.  The only switch the fan-out wait
    #: reads; off by default.
    hedged_reads: bool = False

    def __post_init__(self):
        if self.n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if self.strategy not in ("range", "hash"):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.on_shard_error not in ("raise", "partial"):
            raise ValueError(
                f"on_shard_error must be 'raise' or 'partial', "
                f"got {self.on_shard_error!r}")
        if (self.lifecycle is not None and self.lifecycle.rebalance
                and self.strategy != "range"):
            raise ValueError(
                "split/merge rebalancing requires the 'range' strategy "
                "(hash placement has no contiguous ranges to cut)"
            )

    def effective_workers(self) -> int:
        """Resolved thread-pool width."""
        if self.max_workers is not None:
            return max(1, int(self.max_workers))
        return max(1, min(self.n_shards, os.cpu_count() or 1))


class ShardedDeepMapping:
    """N independent DeepMapping shards behind one mapping facade.

    Build with :meth:`fit`; the facade mirrors
    :class:`~repro.core.deep_mapping.DeepMapping` closely enough that
    query layers accept either.

    Each value column comes back in one dtype, :meth:`value_dtype`,
    whichever shards a batch touches, and a miss reads that dtype's
    :func:`~repro.core.plan.blank`.

    Concurrency contract: :meth:`lookup` is safe to call from many
    threads at once (that is the point of the fan-out).  Mutations
    (:meth:`insert` / :meth:`delete` / :meth:`update`) are
    single-writer and must not run concurrently with lookups — a
    mutation can trigger a shard rebuild that swaps structures
    non-atomically, exactly like the monolithic ``rebuild()``, and a
    reader racing it is promised nothing.  A split or merge swaps the
    topology atomically: a reader still holding the old pair keeps its
    retired shards' answers.
    """

    def __init__(
        self,
        router: ShardRouter,
        shards: List[Optional[DeepMapping]],
        config: DeepMappingConfig,
        sharding: ShardingConfig,
        value_names: Tuple[str, ...],
        value_dtypes: Dict[str, np.dtype],
        stats: Optional[StoreStats] = None,
        pool: Optional[BufferPool] = None,
        executor: Optional[ExecutorStrategy] = None,
        store_filter=None,
    ):
        if len(shards) != router.n_shards:
            raise ValueError(
                f"router expects {router.n_shards} shards, got {len(shards)}"
            )
        #: Router and shard list live in ONE tuple so lifecycle actions
        #: (split/merge) can swap both with a single atomic attribute
        #: store; readers snapshot the pair once per operation.
        self._topology: Tuple[ShardRouter, List[Optional[DeepMapping]]] = (
            router, list(shards))
        #: The pruning filter over the union of every shard's keys (a
        #: ``NegativeFilter`` / ``DenseNegativeFilter``; ``None``: never
        #: prune).  Since key->shard placement is a pure function of the
        #: key, "in no shard" and "not in the owning shard" are the same
        #: predicate — so this filter prunes without routing anything.
        #: Kept outside the topology pair: splits/merges/retrains
        #: preserve the key union, so it survives them unchanged, and
        #: deletes only ever leave it a stale superset (never a false
        #: negative) until :meth:`refresh_store_filter`.
        self._store_filter = store_filter
        self.config = config
        self.sharding = sharding
        self.stats = stats if stats is not None else StoreStats()
        self.pool = pool
        self._value_names = tuple(value_names)
        self._value_dtypes = dict(value_dtypes)
        #: Executor strategy: shard fan-out goes through ``executor.map``,
        #: ``lookup_async`` through ``executor.submit``.  A strategy the
        #: store built itself (config named it, or None) is store-owned;
        #: an instance supplied via ``ShardingConfig.executor`` stays
        #: caller-owned and is never closed by :meth:`close`.
        self.executor: ExecutorStrategy = (
            executor if executor is not None
            else make_executor(sharding.executor,
                               sharding.effective_workers()))
        self._owns_executor = self.executor is not sharding.executor
        #: Adaptive hedge-delay controller (None when hedging is off);
        #: shared across batches so the duration EWMA spans traffic.
        self.hedger: Optional[HedgeController] = (
            HedgeController() if sharding.hedged_reads else None)
        #: False for stores opened via ``repro.open(..., writable=False)``:
        #: shard components may be shared with other opens of the same
        #: blobs, so every mutating entry point refuses.
        self.writable = True
        #: Maintenance engine (None = unmanaged store).
        self.engine: Optional[MaintenanceEngine] = None
        if sharding.lifecycle is not None:
            self.engine = MaintenanceEngine(self, sharding.lifecycle)

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------
    @classmethod
    def fit(
        cls,
        table: ColumnTable,
        config: Optional[DeepMappingConfig] = None,
        sharding: Optional[ShardingConfig] = None,
        stats: Optional[StoreStats] = None,
    ) -> "ShardedDeepMapping":
        """Partition ``table`` and train one DeepMapping per shard.

        Shards build concurrently on the fan-out thread pool when the
        effective worker count exceeds one; each shard trains over only
        its own rows (and, under range sharding, over a proportionally
        smaller key domain).
        """
        config = config if config is not None else DeepMappingConfig()
        sharding = sharding if sharding is not None else ShardingConfig()
        stats = stats if stats is not None else StoreStats()

        key_cols = table.key_columns_dict()
        router = make_router(sharding.strategy, key_cols, table.key,
                             sharding.n_shards)
        with stats.timing("route"):
            shard_ids = router.route(key_cols)

        pool = BufferPool(budget_bytes=sharding.pool_budget_bytes,
                          stats=stats)
        value_names = tuple(sorted(table.value_columns))
        value_dtypes = {name: table.column(name).dtype
                        for name in value_names}

        def build_one(ordinal: int) -> Optional[DeepMapping]:
            rows = np.flatnonzero(shard_ids == ordinal)
            if rows.size == 0:
                return None
            shard_config = topology.build_config(config, sharding.lifecycle,
                                                 int(rows.size))
            # Shards share the store's stats sink so pool/io/inference
            # buckets aggregate; increments race benignly under threads.
            return DeepMapping.fit(table.take(rows), shard_config,
                                   pool=pool, stats=stats)

        # The same strategy that will fan lookups out also fans the
        # per-shard builds out (NumPy training kernels release the GIL).
        executor = make_executor(sharding.executor,
                                 sharding.effective_workers())
        shards = executor.map(build_one, range(sharding.n_shards))

        with stats.timing("filter_build"):
            store_filter = build_store_filter(
                hash_key_columns(key_cols, router.key_names),
                bits_per_key=_STORE_FILTER_BITS)

        return cls(router, shards, config, sharding,
                   value_names=value_names, value_dtypes=value_dtypes,
                   stats=stats, pool=pool, executor=executor,
                   store_filter=store_filter)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def router(self) -> ShardRouter:
        """The live key→shard router (swapped atomically with the shards)."""
        return self._topology[0]

    @property
    def shards(self) -> List[Optional[DeepMapping]]:
        """The live shard list (swapped atomically with the router)."""
        return self._topology[1]

    def _swap_topology(self, router: ShardRouter,
                       shards: List[Optional[DeepMapping]]) -> None:
        """Install a new (router, shards) pair atomically."""
        topology.swap(self, router, shards)

    @property
    def n_shards(self) -> int:
        """Number of shards (including empty ones)."""
        return self.router.n_shards

    @property
    def key_names(self) -> Tuple[str, ...]:
        """Key column names."""
        return self.router.key_names

    @property
    def value_names(self) -> Tuple[str, ...]:
        """Value column (task) names."""
        return self._value_names

    def value_dtype(self, column: str) -> np.dtype:
        """The one dtype column ``column`` comes back in, from every
        lookup path: the build dtype, widened by :meth:`insert` and
        :meth:`update` with ``np.result_type`` — the rule a shard's
        vocabulary widens by, so it covers every shard's."""
        return self._value_dtypes[column]

    def _widen_dtypes(self, columns: Dict[str, np.ndarray]) -> None:
        for name in self.value_names:
            self._value_dtypes[name] = np.result_type(
                self._value_dtypes[name], columns[name].dtype)

    def __len__(self) -> int:
        """Live keys across all shards."""
        return sum(len(shard) for shard in self.shards if shard is not None)

    def shard_row_counts(self) -> List[int]:
        """Live keys per shard, in shard order."""
        return [0 if shard is None else len(shard) for shard in self.shards]

    def compile_engines(self) -> int:
        """Eagerly build every live shard's fused lookup kernel (a load
        does, so first-query latency stays flat and the fan-out hits a
        ready :class:`~repro.nn.compiled.CompiledSession` per shard;
        fit-time shards already carry the engine their build produced).
        Returns the number of engines ready."""
        count = 0
        for shard in self.shards:
            if shard is not None:
                shard.compiled_session()
                count += 1
        return count

    def storage_bytes(self) -> int:
        """Total offline footprint across shards."""
        return self.size_report().total_bytes

    def size_report(self) -> SizeReport:
        """Aggregated per-component storage breakdown (Eq. 1 summed)."""
        reports = [shard.size_report() for shard in self.shards
                   if shard is not None]
        return SizeReport(
            model_bytes=sum(r.model_bytes for r in reports),
            aux_bytes=sum(r.aux_bytes for r in reports),
            exist_bytes=sum(r.exist_bytes for r in reports),
            decode_bytes=sum(r.decode_bytes for r in reports),
            dataset_bytes=sum(r.dataset_bytes for r in reports),
            n_rows=len(self),
            n_in_aux=sum(r.n_in_aux for r in reports),
        )

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def lookup(self, keys: KeysLike, *,
               deadline: Optional[Deadline] = None) -> LookupResult:
        """Batched exact-match lookup across shards, input order preserved.

        One read path (:mod:`repro.shard.read_path`): the batch is
        pruned by the store filter and sorted once **by key within
        shard groups** (no later stage ever sorts again); each owning
        shard runs a staged :class:`~repro.core.plan.LookupPlan`
        — existence gate, ``T_aux`` probe, aux-gated fused inference,
        decode — and streams its finished segment straight into the
        preallocated output arrays (no serial merge behind a barrier).
        Results are bit-identical to the barrier and reference-engine
        oracles in :mod:`repro.testing.oracles`; every column is in its
        :meth:`value_dtype` and a miss reads that dtype's blank.

        Resilience (see ``docs/resilience.md``):

        ``deadline``
            A :class:`~repro.resilience.Deadline` bounding the whole
            call.  Deadline-armed shard jobs always run on the executor
            lane, so even a single wedged shard is timed out rather
            than waited on; queued jobs past the deadline never start,
            and the wait stops once the budget is gone.  What happens
            to the unanswered keys depends on the error mode.
        ``ShardingConfig.on_shard_error``
            ``"raise"`` (default) fails the whole batch with the lowest
            failing shard's error.  ``"partial"`` isolates the fault:
            healthy shards' results come back bit-identical in a
            :class:`~repro.resilience.PartialResult` whose
            ``failed_mask`` marks the keys of failing or timed-out
            shards (forced to misses); a fully healthy batch returns a
            plain :class:`LookupResult`.
        """
        return read_path.lookup(self, keys, deadline=deadline)

    def lookup_one(self, **key_parts) -> Optional[Dict[str, object]]:
        """Convenience single-key lookup; returns a row dict or None."""
        key_cols = {name: np.array([value]) for name, value in key_parts.items()}
        if set(key_cols) != set(self.key_names):
            raise KeyError(f"expected key columns {self.key_names}")
        return next(self.lookup(key_cols).rows())

    def contains_batch(self, keys: KeysLike) -> np.ndarray:
        """Liveness test per key — routed to each owning shard's
        existence vector, no value inference.  Keys owned by an empty
        shard are absent by definition."""
        return read_path.contains_batch(self, keys)

    def aux_ratio(self) -> float:
        """Fraction of live rows currently served from auxiliary tables,
        aggregated across shards (empty store: 0.0)."""
        n_rows = len(self)
        if n_rows == 0:
            return 0.0
        in_aux = sum(len(shard.aux) for shard in self.shards
                     if shard is not None)
        return in_aux / n_rows

    def rebuild(self, config: Optional[DeepMappingConfig] = None) -> None:
        """Retrain every live shard from its current logical content.

        ``config`` optionally replaces each shard's build configuration;
        when omitted, each shard rebuilds with the config
        :func:`repro.shard.topology.build_config` gives its row count and
        its own config.
        Shards rebuild concurrently on the executor strategy.  Runs under
        the store's single-writer mutation contract (a rebuild swaps
        shard internals non-atomically).
        """
        self._require_writable()
        lifecycle = self.sharding.lifecycle

        def rebuild_one(shard: DeepMapping) -> None:
            shard.rebuild(config if config is not None else
                          topology.build_config(self.config, lifecycle,
                                                len(shard), shard.config))

        live = [shard for shard in self.shards if shard is not None]
        self.executor.map(rebuild_one, live)
        # A retrain preserves the keyset, so the store filter was still a
        # correct superset — but rebuilding it here drops the false
        # positives accumulated by deletes since the last build.
        self.refresh_store_filter()

    def lookup_async(self, keys: KeysLike, *,
                     deadline: Optional[Deadline] = None) -> Future:
        """Schedule :meth:`lookup` on the executor strategy.

        Returns a future resolving to the same :class:`LookupResult` the
        synchronous call would produce; the coordinating job runs off the
        fan-out workers, so awaiting it never deadlocks the shard pool.
        Under the serial strategy the work happens inline and the future
        comes back already resolved.

        ``deadline`` bounds the lookup *and* gates the coordinating job
        itself: if the budget is gone before a coordinator lane frees
        up, the future fails with ``DeadlineExceeded`` without touching
        a shard.
        """
        fn = functools.partial(self.lookup, keys, deadline=deadline)
        return self.executor.submit(fn, deadline=deadline)

    def set_executor(self, executor) -> None:
        """Swap the executor strategy (a name from
        :data:`repro.store.EXECUTOR_NAMES` or a strategy instance).

        The outgoing strategy is closed only if this store owned it; a
        passed-in instance stays caller-owned and is never closed here
        or by :meth:`close`.
        """
        new = make_executor(executor, self.sharding.effective_workers())
        if new is not self.executor and self._owns_executor:
            self.executor.close()
        self.executor = new
        self._owns_executor = new is not executor

    def close(self) -> None:
        """Shut down the executor strategy's workers (idempotent).

        The store stays usable — an owned strategy rebuilds its pools
        lazily on next use; a caller-owned strategy is left untouched.
        """
        if self._owns_executor:
            self.executor.close()

    def __enter__(self) -> "ShardedDeepMapping":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Modifications
    # ------------------------------------------------------------------
    def insert(self, rows: RowsLike) -> int:
        """Route new rows to their owning shards (Algorithm 3 per shard).

        An insert into an empty shard trains a fresh DeepMapping over just
        those rows.  Returns the number of rows materialized in auxiliary
        tables (fresh shards count their own aux rows).

        The batch is validated against existing keys and intra-batch
        duplicates before any shard is mutated: either problem raises
        ``ValueError`` and no shard changes.
        """
        self._require_writable()
        columns = normalize_rows(rows, self.key_names, self.value_names)
        self._require_unique_batch_keys(columns)
        groups = list(self._group_rows(columns))
        already = 0
        for ordinal, rows_idx in groups:
            shard = self.shards[ordinal]
            if shard is not None:
                subset = {name: columns[name][rows_idx]
                          for name in self.key_names}
                already += int(shard.contains_batch(subset).sum())
        if already:
            raise ValueError(f"{already} key(s) already exist; use update()")

        self._widen_dtypes(columns)
        landed = 0
        stale = False  # the dense store filter declined rows: rebuild it
        try:
            for ordinal, rows_idx in groups:
                subset = {name: arr[rows_idx]
                          for name, arr in columns.items()}
                shard = self.shards[ordinal]
                if shard is None:
                    fresh = topology.build_shard(self, ColumnTable(
                        subset, key=self.key_names, name="shard"))
                    self.shards[ordinal] = fresh
                    landed += len(fresh.aux)
                else:
                    landed += shard.insert(subset)
                # Grow the store filter once the shard has accepted the
                # rows — not before (an insert that raises must not
                # leave phantom positives) and not after the loop (if a
                # later shard raises, the rows that landed here must
                # already be visible to lookups).  A dense filter can
                # decline keys outside its built domain; a rebuild from
                # shard content then re-covers them (widening the domain
                # or falling back to Bloom as build_store_filter sees
                # fit).
                if self._store_filter is not None and not stale:
                    stale = not self._store_filter.try_add(
                        hash_key_columns(subset, self.key_names))
        finally:
            if stale:
                self.refresh_store_filter()
        self._maintain()
        return landed

    def delete(self, keys: KeysLike) -> int:
        """Delete keys from their owning shards; absent keys are ignored.

        The store filter is deliberately left untouched: a Bloom filter
        cannot clear bits, so a deleted key survives as a false positive
        (one wasted dispatch the shard's existence tier rejects) until
        the next filter rebuild — the superset invariant, never a false
        negative.
        """
        self._require_writable()
        key_cols = normalize_keys(keys, self.key_names)
        deleted = 0
        for ordinal, rows_idx in self._group_rows(key_cols):
            shard = self.shards[ordinal]
            if shard is None:
                continue
            deleted += shard.delete({name: arr[rows_idx]
                                     for name, arr in key_cols.items()})
        self._maintain()
        return deleted

    def update(self, rows: RowsLike) -> int:
        """Replace values of existing keys in their owning shards.

        The whole batch is validated first: if any key does not exist,
        ``KeyError`` is raised and no shard is mutated (matching the
        monolithic all-or-nothing contract).
        """
        self._require_writable()
        columns = normalize_rows(rows, self.key_names, self.value_names)
        groups = list(self._group_rows(columns))
        missing = 0
        for ordinal, rows_idx in groups:
            shard = self.shards[ordinal]
            if shard is None:
                missing += int(rows_idx.size)
                continue
            subset = {name: columns[name][rows_idx] for name in self.key_names}
            missing += int((~shard.contains_batch(subset)).sum())
        if missing:
            raise KeyError(f"{missing} key(s) do not exist; use insert()")

        self._widen_dtypes(columns)
        landed = 0
        for ordinal, rows_idx in groups:
            landed += self.shards[ordinal].update(
                {name: arr[rows_idx] for name, arr in columns.items()})
        self._maintain()
        return landed

    def _require_writable(self) -> None:
        if not self.writable:
            raise PermissionError(
                "this store was opened writable=False (shared, read-only "
                "shard components); reopen with repro.open(url) to mutate it")

    def _require_unique_batch_keys(self, columns: Dict[str, np.ndarray]) -> None:
        """Reject mutation batches that repeat a key.

        A duplicate would fail *inside* one shard (a fresh fit or domain
        rebuild requires unique keys) after other shards were already
        mutated — so it is rejected up front to keep insert all-or-nothing.
        """
        stacked = np.stack([np.asarray(columns[name], dtype=np.int64)
                            for name in self.key_names], axis=1)
        n_unique = np.unique(stacked, axis=0).shape[0]
        if n_unique != stacked.shape[0]:
            raise ValueError(
                f"{stacked.shape[0] - n_unique} duplicate key(s) in batch"
            )

    def _group_rows(self, columns: Dict[str, np.ndarray]):
        """Yield ``(shard_ordinal, row_indices)`` for routed input rows."""
        key_cols = {name: columns[name] for name in self.key_names}
        with self.stats.timing("route"):
            shard_ids = self.router.route(key_cols)
        for ordinal in np.unique(shard_ids):
            yield int(ordinal), np.flatnonzero(shard_ids == ordinal)

    # ------------------------------------------------------------------
    # Lifecycle: maintenance plumbing and split/merge mechanics
    # ------------------------------------------------------------------
    def _maintain(self) -> None:
        """One engine pass after a mutation batch (no-op when unmanaged)."""
        if self.engine is not None:
            self.engine.run_pending()

    def refresh_store_filter(self) -> None:
        """Rebuild the store filter from all live keys.

        Splits, merges, and retrains preserve the key *union*, so the
        store filter survives topology changes untouched; it only
        accumulates false positives through deletes.  :meth:`rebuild`
        calls this to reset its FPR, :meth:`insert` when a dense filter
        declined rows.  No-op when the store never had a filter (a
        manifest saved without one never prunes).
        """
        if self._store_filter is None:
            return
        parts = []
        for shard in self.shards:
            if shard is None or not len(shard):
                continue
            key_cols = shard.key_codec.unflatten(shard.exist.existing_keys())
            parts.append(hash_key_columns(key_cols, self.key_names))
        hashes = (np.concatenate(parts) if parts
                  else np.empty(0, dtype=np.uint64))
        self._store_filter = build_store_filter(
            hashes, bits_per_key=_STORE_FILTER_BITS)

    def can_split(self, ordinal: int) -> bool:
        """True when shard ``ordinal`` can split
        (:func:`repro.shard.topology.can_split`)."""
        return topology.can_split(self, ordinal)

    def split_shard(self, ordinal: int, cut: Optional[int] = None) -> int:
        """Split range shard ``ordinal`` at ``cut``; returns the cut used
        (:func:`repro.shard.topology.split_shard`)."""
        return topology.split_shard(self, ordinal, cut)

    def merge_shards(self, ordinal: int) -> None:
        """Merge range shards ``ordinal`` and ``ordinal + 1``
        (:func:`repro.shard.topology.merge_shards`)."""
        topology.merge_shards(self, ordinal)

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------
    def to_table(self) -> ColumnTable:
        """Logical content as one ColumnTable (shard order)."""
        tables = [shard.to_table() for shard in self.shards
                  if shard is not None and len(shard)]
        if not tables:
            columns: Dict[str, np.ndarray] = {
                name: np.empty(0, dtype=np.int64) for name in self.key_names
            }
            for name in self.value_names:
                columns[name] = blank(0, self.value_dtype(name))
            return ColumnTable(columns, key=self.key_names, name="sharded")
        merged = tables[0]
        for part in tables[1:]:
            merged = merged.concat(part)
        merged.name = "sharded"
        return merged

    # ------------------------------------------------------------------
    # Persistence (the directory layout lives in repro.shard.persistence)
    # ------------------------------------------------------------------
    def save(self, target: Union[str, StorageBackend]) -> int:
        """Write manifest + per-shard payloads into a store container.

        ``target`` is a directory path, a ``file:// / mem:// / zip://``
        URL, or a :class:`~repro.storage.backends.StorageBackend`
        instance — payload location is fully decoupled from routing.
        Returns total bytes written.
        """
        from . import persistence
        return persistence.save(self, target)

    @classmethod
    def load(
        cls,
        target: Union[str, StorageBackend],
        stats: Optional[StoreStats] = None,
        max_workers: Optional[int] = None,
        pool_budget_bytes: Optional[int] = None,
        executor: Union[str, ExecutorStrategy, None] = None,
        writable: bool = True,
    ) -> "ShardedDeepMapping":
        """Inverse of :meth:`save`; ``target`` as there.

        ``max_workers`` / ``pool_budget_bytes`` / ``executor`` override
        the saved knobs (e.g. load a store built on a big box onto a
        small one, or force serial fan-out).  ``writable=False`` opens
        every shard read-only through the process-wide payload cache
        (zero-copy views, shared bundles, mutations raise
        ``PermissionError``); remote backends always open read-only and
        **hydrating** — shards download on first routed touch.  The
        three opens are described in
        :func:`repro.shard.persistence.load`.
        """
        from . import persistence
        return persistence.load(cls, target, stats, max_workers,
                                pool_budget_bytes, executor, writable)

    def __repr__(self) -> str:
        live = sum(1 for shard in self.shards if shard is not None)
        return (
            f"ShardedDeepMapping(key={self.key_names}, "
            f"values={list(self.value_names)}, shards={self.n_shards} "
            f"({live} live), strategy={self.sharding.strategy!r}, "
            f"rows={len(self)})"
        )
