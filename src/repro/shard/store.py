"""The sharded DeepMapping store.

:class:`ShardedDeepMapping` fits **one** model over a table (paper Sec.
IV), keeps **one** existence index ``V_exist`` over that model's whole
key domain, and partitions the keys across N shards, each a
:class:`~repro.core.deep_mapping.DeepMapping` holding only the
``T_aux`` rows and overlay of its keys under that model and reading the
store's index, behind the monolithic structure's surface — so
:func:`repro.core.query.select`, the CLI and the bench harness work over
either.

This module owns the store's build, its **mutation** path and the
retrain rule over store totals; its other methods hand straight to the
module that owns the decision: the **topology** (the atomically swapped
``(router, model, shards, exist)`` tuple, split/merge and the
store-level retrain) to :mod:`repro.shard.topology`, the **read path**
(existence → route → allocate → dispatch → result) to
:mod:`repro.shard.read_path`, and the on-disk layout to
:mod:`repro.shard.persistence`.

Each modified row flips its bit in the store's index and goes to its
owning shard's auxiliary table; an insert into an empty shard
materializes one under the model, keys past the leading key's max grow
the domain in place, and any other widening retrains the store.  Every
mutation batch ends with the retrain rule — a
:class:`~repro.lifecycle.MaintenanceEngine` pass when the sharding
config carries a :class:`~repro.lifecycle.LifecycleConfig`, the build
config's bounds otherwise.  Only a retrain trains.
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
                                 SizeReport, encode_insert, encode_update,
                                 normalize_keys, normalize_rows, with_rows)
from ..core.exist_index import cover
from ..core.model import Model
from ..core.modify import ModificationTracker, settle
from ..core.plan import LookupResult
from ..data.table import ColumnTable
from ..lifecycle import LifecycleConfig, MaintenanceEngine
from ..resilience.deadline import Deadline
from ..resilience.hedging import HedgeController
from ..storage.backends import StorageBackend
from ..storage.buffer_pool import BufferPool
from ..storage.stats import StoreStats
from ..store.base import StoreBase
from ..store.executors import ExecutorStrategy
from . import read_path, topology
from .router import ShardRouter, make_router

__all__ = ["ShardedDeepMapping", "ShardingConfig"]


@dataclass
class ShardingConfig:
    """Knobs of the sharded store (orthogonal to the model's build)."""

    #: Number of shards the key domain is split into.
    n_shards: int = 4
    #: ``"range"`` (contiguous leading-key ranges; the only strategy
    #: that can split and merge) or ``"hash"`` (uniform placement over
    #: all key columns).
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
    #: Write-side maintenance: retrain policy and split/merge
    #: rebalancing (see :mod:`repro.lifecycle`).  ``None`` keeps the
    #: store unmanaged — it retrains on its build config's bounds.
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


class ShardedDeepMapping(StoreBase):
    """N shards under one model behind one mapping facade.

    Build with :meth:`fit`; the facade mirrors
    :class:`~repro.core.deep_mapping.DeepMapping` closely enough that
    query layers accept either.

    Each value column comes back in one dtype, :meth:`value_dtype`,
    whichever shards a batch touches, and a miss reads that dtype's
    :func:`~repro.core.plan.blank`.

    Concurrency contract: :meth:`lookup` is safe to call from many
    threads at once (that is the point of the fan-out).  Mutations
    (:meth:`insert` / :meth:`delete` / :meth:`update`) are
    single-writer and must not run concurrently with lookups, and a
    reader racing one is promised nothing.  A split, merge or retrain
    swaps the topology atomically: a reader still holding the old tuple
    keeps its retired shards' (and model's and index's) answers.
    """

    def __init__(
        self,
        router: ShardRouter,
        model: Model,
        shards: List[Optional[DeepMapping]],
        exist,
        sharding: ShardingConfig,
        value_names: Tuple[str, ...],
        value_dtypes: Dict[str, np.dtype],
        stats: Optional[StoreStats] = None,
        pool: Optional[BufferPool] = None,
    ):
        if len(shards) != router.n_shards:
            raise ValueError(
                f"router expects {router.n_shards} shards, got {len(shards)}"
            )
        #: Router, model, shard list and the one existence index live in
        #: ONE tuple so lifecycle actions (split/merge/retrain) swap them
        #: with a single atomic attribute store; readers snapshot the
        #: tuple once per operation.  Every shard is materialized under
        #: the model and reads the index (the same object).
        self._topology: Tuple[ShardRouter, Model,
                              List[Optional[DeepMapping]], object] = (
            router, model, list(shards), exist)
        self.sharding = sharding
        #: Modified bytes since the last retrain, over the whole store:
        #: the bytes bound of :meth:`retrain_due`.
        self.tracker = ModificationTracker()
        self.stats = stats if stats is not None else StoreStats()
        self.pool = pool
        self._value_names = tuple(value_names)
        self._value_dtypes = dict(value_dtypes)
        #: Executor strategy (:class:`~repro.store.base.StoreBase`):
        #: shard fan-out goes through ``submit_job``, ``lookup_async``
        #: through ``executor.submit``.
        self.set_executor(sharding.executor)
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
        """Fit one model over ``table``, then build the store's index and
        materialize each shard's ``T_aux`` under it
        (:func:`topology.install <repro.shard.topology.install>`)."""
        config = config if config is not None else DeepMappingConfig()
        sharding = sharding if sharding is not None else ShardingConfig()
        stats = stats if stats is not None else StoreStats()

        key_cols = table.key_columns_dict()
        router = make_router(sharding.strategy, key_cols, table.key,
                             sharding.n_shards)
        pool = BufferPool(budget_bytes=sharding.pool_budget_bytes,
                          stats=stats)
        value_names = tuple(sorted(table.value_columns))
        value_dtypes = {name: table.column(name).dtype
                        for name in value_names}
        fit = Model.fit(table, config)
        store = cls(router, fit.model, [None] * router.n_shards, None,
                    sharding, value_names=value_names,
                    value_dtypes=value_dtypes, stats=stats, pool=pool)
        topology.install(store, table, fit)
        return store

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def router(self) -> ShardRouter:
        """The live key→shard router (swapped atomically with the shards)."""
        return self._topology[0]

    @property
    def model(self) -> Model:
        """The store's one model (swapped atomically by a retrain)."""
        return self._topology[1]

    @property
    def shards(self) -> List[Optional[DeepMapping]]:
        """The live shard list (swapped atomically with the router)."""
        return self._topology[2]

    @property
    def exist(self):
        """The store's one ``V_exist`` over the model's key domain: the
        existence stage of every read and write, read by every shard
        (swapped atomically with the model)."""
        return self._topology[3]

    @property
    def config(self) -> DeepMappingConfig:
        """The build config (the model's)."""
        return self.model.config

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
        return self.exist.count()

    def shard_row_counts(self) -> List[int]:
        """Live keys per shard, in shard order (counted from the bits each
        shard's rows flip)."""
        return [0 if shard is None else len(shard) for shard in self.shards]

    def compile_engines(self) -> int:
        """Eagerly build the model's fused lookup kernel (a load does, so
        first-query latency stays flat; a fit already carries the kernel
        its freeze priced).  Returns the number of live shards it
        serves."""
        self.model.compiled_session()
        return sum(1 for shard in self.shards if shard is not None)

    def size_report(self) -> SizeReport:
        """Per-component storage breakdown (Eq. 1): the one model, decode
        map and ``V_exist`` once, ``T_aux`` summed over shards."""
        model = self.model
        live = [shard for shard in self.shards if shard is not None]
        return SizeReport(
            model_bytes=model.session.nbytes,
            aux_bytes=sum(shard.aux.stored_bytes() for shard in live),
            exist_bytes=self.exist.stored_bytes(),
            decode_bytes=model.fdecode.nbytes,
            dataset_bytes=model.dataset_bytes,
            n_rows=len(self),
            n_in_aux=sum(len(shard.aux) for shard in live),
        )

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def lookup(self, keys: KeysLike, *,
               deadline: Optional[Deadline] = None) -> LookupResult:
        """Batched exact-match lookup across shards, input order preserved.

        One read path (:mod:`repro.shard.read_path`): the batch is
        tested once against the store's ``V_exist`` (only live keys are
        routed) and sorted once **by key within shard groups** (no later
        stage ever sorts again); each owning
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

    def contains_batch(self, keys: KeysLike) -> np.ndarray:
        """Liveness test per key against the store's ``V_exist`` — the
        read path's existence stage; no routing, no inference."""
        return read_path.contains_batch(self, keys)

    def _aux_rows(self) -> int:
        return sum(len(shard.aux) for shard in self.shards
                   if shard is not None)

    def rebuild(self, config: Optional[DeepMappingConfig] = None) -> None:
        """Retrain the store from its current logical content: one
        warm-started refit of the model, then every shard re-materialized
        under it (:func:`repro.shard.topology.retrain`).

        ``config`` optionally replaces the build configuration for this
        and future retrains.  Runs under the store's single-writer
        mutation contract.
        """
        self._require_writable()
        topology.retrain(self, self.to_table(), config)

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

    def _executor_workers(self) -> int:
        return self.sharding.effective_workers()

    # ------------------------------------------------------------------
    # Modifications
    # ------------------------------------------------------------------
    def insert(self, rows: RowsLike) -> int:
        """Route new rows to their owning shards (Algorithm 3 per shard).

        An insert into an empty shard materializes one under the store's
        model.  Keys past the leading key's max grow the domain and the
        index in place; any other key outside the domain retrains the
        store over its content and the batch.  Returns the rows
        materialized in auxiliary tables (0 after a retrain).

        The batch is flattened and run through the model once
        (:func:`~repro.core.deep_mapping.encode_insert`), and validated
        against existing keys and intra-batch duplicates before any shard
        is mutated: either problem raises ``ValueError`` and no shard
        changes.  Each shard then holds the rows of its slice, and the
        slice's bits are set in the store's index.
        """
        self._require_writable()
        columns = normalize_rows(rows, self.key_names, self.value_names)
        model = self.model
        if not model.admits(columns):
            topology.retrain(self, with_rows(self.to_table(), columns,
                                             self.key_names))
            self._widen_dtypes(columns)
            return 0
        flat, labels, lost = encode_insert(model, columns,
                                           self.exist.test_batch)
        self._widen_dtypes(columns)
        exist = self._cover(flat)
        landed = 0
        for ordinal, rows_idx in self._group_rows(columns):
            part = topology.rows(rows_idx, flat, labels, lost)
            shard = self.shards[ordinal]
            if shard is None:
                self.shards[ordinal] = topology.materialize(
                    self, model, exist, *part)
                landed += int(part[2].sum())
            else:
                landed += shard.hold(*part)
                shard.n_rows += part[0].size
            # Bits go up per shard once its rows have landed: if a later
            # shard raises, the rows already held here are found.
            exist.set_batch(part[0])
        settle(self, columns, self.engine)
        return landed

    def _cover(self, flat: np.ndarray):
        """The store's index, grown to cover the new flat keys ``flat``
        (:func:`~repro.core.exist_index.cover`); when growing gives a new
        object it replaces the old one in the topology and in every
        shard."""
        exist = self.exist
        if not flat.size:
            return exist
        grown = cover(exist, int(flat.max()) + 1, len(self) + flat.size)
        if grown is not exist:
            router, model, shards, _ = self._topology
            for shard in shards:
                if shard is not None:
                    shard.exist = grown
            topology.swap(self, router, model, shards, grown)
        return grown

    def delete(self, keys: KeysLike) -> int:
        """Delete keys: clear their bits in the store's index and drop
        their rows from their owning shards' ``T_aux``; absent keys are
        ignored (only live keys are routed).  Returns how many were
        live."""
        self._require_writable()
        key_cols = normalize_keys(keys, self.key_names)
        flat, in_domain = self.model.key_codec.try_flatten(key_cols)
        exist = self.exist
        live = np.flatnonzero(exist.test_batch(flat) & in_domain)
        deleted = 0
        if live.size:
            for ordinal, rows_idx in self._group_rows(
                    {name: col[live] for name, col in key_cols.items()}):
                targets = flat[live[rows_idx]]
                shard = self.shards[ordinal]
                shard.aux.remove_batch(targets)
                cleared = exist.clear_batch(targets)
                shard.n_rows -= cleared
                deleted += cleared
        settle(self, key_cols, self.engine)
        return deleted

    def update(self, rows: RowsLike) -> int:
        """Replace values of existing keys in their owning shards.

        The batch is flattened and run through the model once
        (:func:`~repro.core.deep_mapping.encode_update`) and validated
        first: if any key does not exist, ``KeyError`` is raised and no
        shard is mutated (matching the monolithic all-or-nothing
        contract).
        """
        self._require_writable()
        columns = normalize_rows(rows, self.key_names, self.value_names)
        flat, labels, lost = encode_update(self.model, columns,
                                           self.exist.test_batch)
        self._widen_dtypes(columns)
        landed = 0
        for ordinal, rows_idx in self._group_rows(columns):
            landed += self.shards[ordinal].apply_update(
                *topology.rows(rows_idx, flat, labels, lost))
        settle(self, columns, self.engine)
        return landed

    def _require_writable(self) -> None:
        if not self.writable:
            raise PermissionError(
                "this store was opened writable=False (shared, read-only "
                "shard components); reopen with repro.open(url) to mutate it")

    def _group_rows(self, columns: Dict[str, np.ndarray]
                    ) -> List[Tuple[int, np.ndarray]]:
        """``(shard_ordinal, row_indices)`` for routed input rows."""
        key_cols = {name: columns[name] for name in self.key_names}
        with self.stats.timing("route"):
            shard_ids = self.router.route(key_cols)
        return [(int(ordinal), np.flatnonzero(shard_ids == ordinal))
                for ordinal in np.unique(shard_ids)]

    # ------------------------------------------------------------------
    # Lifecycle: split/merge mechanics
    # ------------------------------------------------------------------
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
        """Logical content as one ColumnTable: the keys of the store's
        index, ascending, and their values as :meth:`lookup` reads
        them."""
        _, model, _, exist = self._topology
        key_cols = model.key_codec.unflatten(exist.existing_keys())
        columns: Dict[str, np.ndarray] = dict(key_cols)
        columns.update(self.lookup(key_cols).values)
        return ColumnTable(columns, key=self.key_names, name="sharded")

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
