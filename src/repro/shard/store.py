"""The DeepMapping store: one model, one ``V_exist``, ``T_aux`` in shards.

:class:`DeepMapping` fits **one** model over a table (paper Sec. IV),
keeps **one** existence index ``V_exist`` over that model's whole key
domain, and partitions the keys across N shards (one by default), each a
:class:`~repro.core.deep_mapping.Shard` holding only the ``T_aux`` rows
of its keys under that model and reading the store's index.

This module owns the store's build, its **mutation** path, the retrain
rule over store totals and the executor its reads run on; its other
methods hand straight to the module that owns the decision: the
**topology** (the atomically swapped ``(router, model, shards, exist)``
tuple, split/merge, whose ``T_aux`` rows move, and the store-level
retrain) to :mod:`repro.shard.topology`, the **read path** (one plan per
request: existence → route → aux → inference → decode) to
:mod:`repro.shard.read_path`, and the on-disk layout to
:mod:`repro.shard.persistence`.

Each modified row flips its bit in the store's index and goes to the
shard whose window of the topology's cut codes holds its flat code (the
one cut rule), into its auxiliary table; an insert into an empty shard
materializes one under the model, keys past the leading key's max grow
the domain in place, and any other widening retrains the store.  Every
mutation batch ends with the retrain rule — a
:class:`~repro.lifecycle.MaintenanceEngine` pass when the sharding
config carries a :class:`~repro.lifecycle.LifecycleConfig`, the build
config's bounds otherwise.  Only a retrain trains.
"""

from __future__ import annotations

from concurrent.futures import Future
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..core.config import DeepMappingConfig
from ..core.deep_mapping import (KeysLike, RowsLike, Shard, SizeReport,
                                 encode_insert, encode_update,
                                 normalize_keys, normalize_rows, with_rows)
from ..core.exist_index import cover
from ..core.model import Model
from ..core.modify import ModificationTracker, retrain_due, settle
from ..core.plan import LookupResult
from ..data.table import ColumnTable
from ..lifecycle import LifecycleConfig, MaintenanceEngine
from ..resilience.deadline import Deadline
from ..resilience.hedging import HedgeController
from ..storage.backends import StorageBackend
from ..storage.buffer_pool import BufferPool
from ..storage.stats import StoreStats
from ..store.executors import ExecutorStrategy, make_executor
from . import read_path, topology
from .router import RangeShardRouter

__all__ = ["DeepMapping", "ShardingConfig"]


@dataclass
class ShardingConfig:
    """Knobs of the store's shards, executor and lifecycle (orthogonal
    to the model's build)."""

    #: Number of shards the key domain is split into.
    n_shards: int = 1
    #: Placement: ``"range"`` (contiguous leading-key ranges), the only
    #: value.  Kept only because ``bench/spec.py`` still passes
    #: ``strategy="range"``; a later benchmark-only change drops that
    #: argument and then this field.
    strategy: str = "range"
    #: Executor strategy behind ``lookup_async`` — a name from
    #: :data:`repro.store.EXECUTOR_NAMES` (``"serial"`` / ``"threads"``)
    #: or an :class:`~repro.store.executors.ExecutorStrategy` instance.
    #: ``None`` means a two-worker thread pool.  A read's plan runs on
    #: its calling thread whatever this says.
    executor: Union[str, ExecutorStrategy, None] = None
    #: Shared buffer-pool budget for all shards' aux partitions
    #: (``None`` = unbounded).
    pool_budget_bytes: Optional[int] = None
    #: Write-side maintenance: retrain policy and split/merge
    #: rebalancing (see :mod:`repro.lifecycle`).  ``None`` keeps the
    #: store unmanaged — it retrains on its build config's bounds.
    lifecycle: Optional[LifecycleConfig] = None
    #: Fault-isolation mode of a lookup's shard probes.  ``"raise"`` (the
    #: default, the historical behavior): any shard failure fails the
    #: whole batch.  ``"partial"``: a failing or timed-out shard does not
    #: poison the batch — its keys come back marked in a
    #: :class:`~repro.resilience.partial.PartialResult` while healthy
    #: shards' results stay bit-identical.  The one place the mode is
    #: set.
    on_shard_error: str = "raise"
    #: Hedged range GETs: a remote (``http://``) store's GET still
    #: unanswered at an adaptive multiple of what GETs usually need
    #: (see :class:`~repro.resilience.hedging.HedgeController`) is
    #: abandoned and issued once more, within a per-read hedge budget.
    #: Safe because a GET is a pure read of a pinned blob version.  A
    #: local store has nothing to hedge: its probes run in memory.  The
    #: one switch; off by default.
    hedged_reads: bool = False

    def __post_init__(self):
        if self.n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if self.strategy != "range":
            raise ValueError(f"unknown strategy {self.strategy!r}; "
                             "range placement is the only one")
        if self.on_shard_error not in ("raise", "partial"):
            raise ValueError(
                f"on_shard_error must be 'raise' or 'partial', "
                f"got {self.on_shard_error!r}")


class DeepMapping:
    """Learned, lossless, updateable key→value mapping: one model and
    one ``V_exist`` over the table, its ``T_aux`` rows in N shards.

    Build with :meth:`fit` (or :func:`repro.build`); query with
    :meth:`lookup`; mutate with :meth:`insert` / :meth:`delete` /
    :meth:`update`; persist with :meth:`save` and reopen with
    :func:`repro.open`.

    Each value column comes back in one dtype, :meth:`value_dtype`,
    whichever shards a batch touches, and a miss reads that dtype's
    :func:`~repro.core.plan.blank`.

    Concurrency contract: :meth:`lookup` is safe to call from many
    threads at once; each runs its plan on its own thread.  Mutations
    (:meth:`insert` / :meth:`delete` / :meth:`update`) are
    single-writer and must not run concurrently with lookups, and a
    reader racing one is promised nothing.  A split, merge or retrain
    swaps the topology atomically: a reader still holding the old tuple
    keeps its retired shards' (and model's and index's) answers.
    """

    def __init__(
        self,
        router: RangeShardRouter,
        model: Model,
        shards: List[Optional[Shard]],
        exist,
        sharding: ShardingConfig,
        value_names: Tuple[str, ...],
        value_dtypes: Dict[str, np.dtype],
        stats: Optional[StoreStats] = None,
        pool: Optional[BufferPool] = None,
    ):
        #: Router, model, shard list, the one existence index and the
        #: cuts' flat codes live in ONE tuple (:func:`topology.snapshot
        #: <repro.shard.topology.snapshot>`) so lifecycle actions
        #: (split/merge/retrain) swap them with a single atomic
        #: attribute store; readers snapshot the tuple once per
        #: operation.  Every shard is materialized under the model and
        #: reads the index (the same object).
        self._topology = topology.snapshot(router, model, shards, exist)
        self.sharding = sharding
        #: Modified bytes since the last retrain, over the whole store:
        #: the bytes bound of :meth:`retrain_due`.
        self.tracker = ModificationTracker()
        self.stats = stats if stats is not None else StoreStats()
        self.pool = pool
        self._value_names = tuple(value_names)
        self._value_dtypes = dict(value_dtypes)
        #: Executor strategy: ``lookup_async`` goes through
        #: ``executor.submit``.  One
        #: built here from a name (or ``None``) is owned by the
        #: store and shut by :meth:`close`; an instance handed in —
        #: possibly shared between stores — stays caller-owned.
        self.executor: Optional[ExecutorStrategy] = None
        self._owns_executor = False
        self.set_executor(sharding.executor)
        #: Adaptive hedge-delay controller (None when hedging is off);
        #: a remote backend hedges its range GETs under it (an open
        #: binds it before its own GETs), and the read path charges
        #: each read's hedges.
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
    ) -> "DeepMapping":
        """Fit one model over ``table``, then build the store's index and
        materialize each shard's ``T_aux`` under it
        (:func:`topology.install <repro.shard.topology.install>`)."""
        config = config if config is not None else DeepMappingConfig()
        sharding = sharding if sharding is not None else ShardingConfig()
        stats = stats if stats is not None else StoreStats()

        key_cols = table.key_columns_dict()
        router = RangeShardRouter.from_keys(key_cols, table.key,
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
        topology.install(store, fit)
        return store

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def router(self) -> RangeShardRouter:
        """The live key→shard router (swapped atomically with the shards)."""
        return self._topology[0]

    @property
    def model(self) -> Model:
        """The store's one model (swapped atomically by a retrain)."""
        return self._topology[1]

    @property
    def shards(self) -> List[Optional[Shard]]:
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

    def storage_bytes(self) -> int:
        """Total offline footprint (Eq. 1's numerator)."""
        return self.size_report().total_bytes

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

        One read path (:mod:`repro.shard.read_path`), one
        :class:`~repro.core.plan.LookupPlan` per request: the batch is
        tested once against the store's ``V_exist``, its live keys are
        sorted once **by flat code**, which cuts them into one window
        per shard, each owning shard probes its ``T_aux`` once, and the
        fused kernel and the decode run once, on the keys no ``T_aux``
        row overrides.
        Results are bit-identical to the barrier and reference-engine
        oracles in :mod:`repro.testing.oracles`; every column is in its
        :meth:`value_dtype` and a miss reads that dtype's blank.

        Resilience (see ``docs/resilience.md``):

        ``deadline``
            A :class:`~repro.resilience.Deadline` bounding the call.
            The plan runs on this thread; the deadline is checked
            before existence, before each shard probe and (in
            ``"raise"`` mode) before the kernel, and a remote store's
            range GETs use what is left of it as their socket timeout.
            A probe already running is not abandoned: a wedged *local*
            probe holds the call (the serving tier still answers its
            client by the deadline).  Once the budget is gone, every
            shard not yet probed fails with ``DeadlineExceeded``; what
            happens to those keys depends on the error mode.
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

    def aux_ratio(self) -> float:
        """Fraction of live rows served from ``T_aux`` (empty: 0.0)."""
        n_rows = len(self)
        return self._aux_rows() / n_rows if n_rows else 0.0

    def retrain_due(self, threshold_bytes: Optional[int],
                    aux_ratio: Optional[float]) -> bool:
        """The one retrain rule (:func:`repro.core.modify.retrain_due`)
        over this store's tracker, live rows and ``T_aux`` rows."""
        return retrain_due(self.tracker, len(self), self._aux_rows,
                           threshold_bytes, aux_ratio)

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
        synchronous call would produce; the whole read runs on one
        executor worker.  Under the serial strategy the work happens
        inline and the future comes back already resolved.  A
        ``deadline`` already spent when the worker starts fails the
        future with ``DeadlineExceeded`` before any shard is touched
        (:meth:`lookup` checks it first).
        """
        return self.executor.submit(self.lookup, keys, deadline=deadline)

    def set_executor(self, executor) -> None:
        """Install a strategy: a name from :data:`EXECUTOR_NAMES
        <repro.store.EXECUTOR_NAMES>`, an instance, or ``None`` for the
        default (:func:`~repro.store.executors.make_executor`).  The
        outgoing one is closed only if this store owned it."""
        new = make_executor(executor)
        if self._owns_executor and new is not self.executor:
            self.executor.close()
        self.executor = new
        self._owns_executor = new is not executor

    def close(self) -> None:
        """Shut an owned strategy's workers (idempotent); data stays, and
        an owned strategy rebuilds its pools lazily on next use."""
        if self._owns_executor:
            self.executor.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def lookup_one(self, **key_parts) -> Optional[Dict[str, object]]:
        """Convenience single-key lookup; returns a row dict or None."""
        key_cols = {name: np.array([value])
                    for name, value in key_parts.items()}
        if set(key_cols) != set(self.key_names):
            raise KeyError(f"expected key columns {self.key_names}")
        return next(self.lookup(key_cols).rows())

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
        # Route only now: admitting the keys may have grown the domain,
        # which moves the cut codes, and _cover snapshots them again.
        exist = self._cover(flat)
        landed = 0
        for ordinal, idx in self._group_rows(flat):
            shard = self.shards[ordinal]
            if shard is None:
                held = idx[lost[idx]]
                self.shards[ordinal] = Shard.materialize(
                    model, exist, flat[held],
                    {t: codes[held] for t, codes in labels.items()},
                    idx.size, pool=self.pool, stats=self.stats)
                landed += held.size
            else:
                landed += shard.hold(
                    flat[idx], {t: codes[idx] for t, codes in labels.items()},
                    lost[idx])
                shard.n_rows += idx.size
            # Bits go up per shard once its rows have landed: if a later
            # shard raises, the rows already held here are found.
            exist.set_batch(flat[idx])
        settle(self, columns, self.engine)
        return landed

    def _cover(self, flat: np.ndarray):
        """The store's index, grown to cover the new flat keys ``flat``
        (:func:`~repro.core.exist_index.cover`); when growing gives a new
        object it replaces the old one in every shard.  The topology is
        snapshotted again either way: admitting ``flat`` may have grown
        the key codec's domain, which moves the cuts' flat codes."""
        router, model, shards, exist, _ = self._topology
        if not flat.size:
            return exist
        grown = cover(exist, int(flat.max()) + 1, len(self) + flat.size)
        if grown is not exist:
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
            for ordinal, idx in self._group_rows(flat[live]):
                targets = flat[live[idx]]
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
        shard is mutated (all or nothing).
        """
        self._require_writable()
        columns = normalize_rows(rows, self.key_names, self.value_names)
        flat, labels, lost = encode_update(self.model, columns,
                                           self.exist.test_batch)
        self._widen_dtypes(columns)
        landed = 0
        for ordinal, idx in self._group_rows(flat):
            landed += self.shards[ordinal].apply_update(
                flat[idx], {t: codes[idx] for t, codes in labels.items()},
                lost[idx])
        settle(self, columns, self.engine)
        return landed

    def _require_writable(self) -> None:
        if not self.writable:
            raise PermissionError(
                "this store was opened writable=False (shared, read-only "
                "shard components); reopen with repro.open(url) to mutate it")

    def _group_rows(self, flat: np.ndarray) -> List[Tuple[int, np.ndarray]]:
        """``(shard_ordinal, row_indices)`` for rows of in-domain flat
        codes ``flat``: the shard whose window of the topology's cut
        codes holds each code (the one cut rule)."""
        with self.stats.timing("route"):
            shard_ids = np.searchsorted(self._topology[4], flat,
                                        side="right")
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
        _, model, _, exist, _ = self._topology
        key_cols = model.key_codec.unflatten(exist.existing_keys())
        columns: Dict[str, np.ndarray] = dict(key_cols)
        columns.update(self.lookup(key_cols).values)
        return ColumnTable(columns, key=self.key_names, name="deepmapping")

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
        pool_budget_bytes: Optional[int] = None,
        executor: Union[str, ExecutorStrategy, None] = None,
        writable: bool = True,
    ) -> "DeepMapping":
        """Inverse of :meth:`save`; ``target`` as there
        (:func:`repro.open` opens through here).

        ``pool_budget_bytes`` / ``executor`` override the saved knobs
        (e.g. load a store built on a big box onto a small one).
        ``writable=False`` opens every shard read-only through the
        process-wide payload cache (zero-copy views, shared bundles,
        mutations raise ``PermissionError``); remote backends always
        open read-only and **hydrating** — shards download on first
        routed touch.  The three opens are described in
        :func:`repro.shard.persistence.load`.
        """
        from . import persistence
        return persistence.load(cls, target, stats, pool_budget_bytes,
                                executor, writable)

    def __repr__(self) -> str:
        live = sum(1 for shard in self.shards if shard is not None)
        return (
            f"DeepMapping(key={self.key_names}, "
            f"values={list(self.value_names)}, shards={self.n_shards} "
            f"({live} live), rows={len(self)})"
        )
