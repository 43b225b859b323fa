"""The DeepMapping hybrid structure (paper Sec. IV).

A :class:`DeepMapping` couples four artifacts:

1. ``M`` — a frozen multi-task neural network memorizing most of the
   key→value mapping (:class:`~repro.nn.inference.InferenceSession`,
   its weights stored at the bit width Eq. 1 picks at freeze time,
   served through its :class:`~repro.nn.compiled.CompiledSession`);
2. ``T_aux`` — a compressed auxiliary table holding the rows ``M`` gets
   wrong (:class:`~repro.core.aux_table.AuxiliaryTable`);
3. ``V_exist`` — an existence bit vector over the flattened key domain
   (:class:`~repro.core.exist_index.ExistenceIndex`);
4. ``f_decode`` — the label-code→value decode map
   (:class:`~repro.data.encoding.DecodeMap`).

Together they answer exact-match lookups losslessly (Algorithm 1), support
insert/delete/update without retraining (Algorithms 3–5), and occupy a
fraction of the raw data's footprint when key-value structure exists.

This module owns key/row normalisation, the build (``fit``), the
mutations and the retrain rule.  One batched lookup lives in
:mod:`repro.core.plan`; the payload and its opens live in
:mod:`repro.core.persistence`.

There is one predictor, the compiled kernel: it serves every lookup
(:class:`~repro.core.plan.LookupPlan`), and its ``lost_rows`` alone
decides what ``T_aux`` holds — in ``fit``'s Eq. 1 pricing and build, on
every insert and update, and in MHAS.  The paper-literal Algorithm 1
survives only as the bit-exact parity oracle
:func:`repro.testing.oracles.reference_lookup`.
"""

from __future__ import annotations

from concurrent.futures import Future
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

import numpy as np

from ..data.encoding import CompositeKeyCodec, DecodeMap, KeyEncoder
from ..data.table import ColumnTable
from ..nn.compiled import CompiledSession
from ..nn.inference import InferenceSession, choose_width
from ..nn.multitask import ArchitectureSpec, MultiTaskMLP
from ..nn.optimizers import Adam, ExponentialDecay
from ..nn.training import Trainer
from ..resilience.deadline import Deadline
from ..storage.buffer_pool import BufferPool
from ..storage.stats import StoreStats
from ..store.executors import (ExecutorStrategy, SerialStrategy,
                               make_executor)
from .aux_table import AuxiliaryTable
from .config import DeepMappingConfig
from .exist_index import ExistenceIndex, make_existence_index
from .mhas.reward import measure_aux_bytes_per_row
from .modify import (MIN_ROWS_FOR_RATIO_RETRAIN, ModificationTracker,
                     estimate_batch_bytes)
from .plan import LookupPlan, LookupResult

__all__ = ["DeepMapping", "SizeReport", "normalize_keys", "normalize_rows"]

KeysLike = Union[Dict[str, np.ndarray], ColumnTable, np.ndarray, list]
RowsLike = Union[Dict[str, np.ndarray], ColumnTable]


def normalize_keys(keys: KeysLike, key_names: Tuple[str, ...]) -> Dict[str, np.ndarray]:
    """Coerce any accepted key shape to a name->array dict.

    Shared by every mapping facade (monolithic and sharded) so they accept
    identical inputs: a ColumnTable, a dict of columns, a flat array for a
    single-column key, or an (n, k) array for a composite key.
    """
    if isinstance(keys, ColumnTable):
        return {k: keys.column(k) for k in key_names}
    if isinstance(keys, dict):
        missing = [k for k in key_names if k not in keys]
        if missing:
            raise KeyError(f"missing key columns: {missing}")
        return {k: np.asarray(keys[k]) for k in key_names}
    arr = np.asarray(keys)
    if len(key_names) == 1:
        return {key_names[0]: arr.reshape(-1)}
    if arr.ndim == 2 and arr.shape[1] == len(key_names):
        return {k: arr[:, i] for i, k in enumerate(key_names)}
    raise ValueError(
        f"cannot interpret keys of shape {arr.shape} for "
        f"composite key {key_names}"
    )


def normalize_rows(
    rows: RowsLike,
    key_names: Tuple[str, ...],
    value_names: Tuple[str, ...],
) -> Dict[str, np.ndarray]:
    """Coerce full rows (keys + values) to a name->array dict, validating
    that exactly the expected columns are supplied."""
    if isinstance(rows, ColumnTable):
        columns = rows.columns_dict()
    else:
        columns = {n: np.asarray(v) for n, v in rows.items()}
    expected = set(key_names) | set(value_names)
    if set(columns) != expected:
        raise ValueError(
            f"rows must supply exactly the columns {sorted(expected)}; "
            f"got {sorted(columns)}"
        )
    return columns


@dataclass
class SizeReport:
    """Storage breakdown of a hybrid structure (paper Fig. 6 / Eq. 1)."""

    model_bytes: int
    aux_bytes: int
    exist_bytes: int
    decode_bytes: int
    dataset_bytes: int
    n_rows: int
    n_in_aux: int

    @property
    def total_bytes(self) -> int:
        """size(M) + size(T_aux) + size(V_exist) + size(f_decode)."""
        return (self.model_bytes + self.aux_bytes + self.exist_bytes
                + self.decode_bytes)

    @property
    def compression_ratio(self) -> float:
        """Eq. 1: total hybrid size over raw dataset size (lower is better)."""
        if self.dataset_bytes == 0:
            return float("inf")
        return self.total_bytes / self.dataset_bytes

    @property
    def memorized_fraction(self) -> float:
        """Fraction of live tuples served by the model alone (Fig. 6)."""
        if self.n_rows == 0:
            return 1.0
        return 1.0 - self.n_in_aux / self.n_rows

    def breakdown(self) -> Dict[str, float]:
        """Percent of the hybrid size per component."""
        total = max(self.total_bytes, 1)
        return {
            "model": 100.0 * self.model_bytes / total,
            "aux_table": 100.0 * self.aux_bytes / total,
            "exist_vector": 100.0 * self.exist_bytes / total,
            "decode_map": 100.0 * self.decode_bytes / total,
        }


#: What a retrain takes over from the freshly fit structure (see
#: ``DeepMapping._adopt``); everything else belongs to the logical store.
_BUILD_FIELDS = ("config", "key_codec", "key_encoder", "session", "aux",
                 "exist", "fdecode", "_dataset_bytes", "last_training",
                 "search_history", "warm_started_tensors", "_compiled")

class DeepMapping:
    """Learned, lossless, updateable key→value mapping.

    Build with :meth:`fit`; query with :meth:`lookup`; mutate with
    :meth:`insert` / :meth:`delete` / :meth:`update`; persist with
    :meth:`save` / :meth:`open`.
    """

    def __init__(
        self,
        key_codec: CompositeKeyCodec,
        key_encoder: KeyEncoder,
        session: InferenceSession,
        aux: AuxiliaryTable,
        exist: ExistenceIndex,
        fdecode: DecodeMap,
        config: DeepMappingConfig,
        dataset_bytes: int,
        stats: Optional[StoreStats] = None,
    ):
        self.key_codec = key_codec
        self.key_encoder = key_encoder
        self.session = session
        self.aux = aux
        self.exist = exist
        self.fdecode = fdecode
        self.config = config
        self.stats = stats if stats is not None else StoreStats()
        self.tracker = ModificationTracker()
        #: When False, modifications only *record* into the tracker; the
        #: retrain decision is owned by an external maintenance engine
        #: (see :class:`repro.lifecycle.MaintenanceEngine`) instead of
        #: firing inline in the mutating call.
        self.auto_rebuild = True
        #: False for structures opened via ``repro.open(...,
        #: writable=False)``: components may be shared with other opens
        #: of the same payload (and backed by read-only mmap views), so
        #: every mutating entry point refuses with ``PermissionError``.
        self.writable = True
        self._dataset_bytes = int(dataset_bytes)
        #: Lazily compiled fused lookup kernel (see :meth:`compiled_session`).
        self._compiled: Optional[CompiledSession] = None
        #: Executor strategy behind :meth:`lookup_async` (serial unless
        #: :meth:`set_executor` installs another one).  ``close()`` only
        #: shuts strategies this structure created itself — an instance
        #: handed in by the caller (possibly shared between stores) stays
        #: caller-owned.
        self._executor: Optional[ExecutorStrategy] = None
        self._owns_executor = True
        #: :class:`~repro.core.mhas.SearchOutcome` when MHAS built this
        #: structure (None for fixed architectures).
        self.search_history = None
        #: :class:`~repro.nn.training.TrainingResult` of the build (None
        #: for loaded structures).
        self.last_training = None
        #: How many tensors a warm-started build transferred.
        self.warm_started_tensors = 0

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------
    @classmethod
    def fit(
        cls,
        table: ColumnTable,
        config: Optional[DeepMappingConfig] = None,
        pool: Optional[BufferPool] = None,
        stats: Optional[StoreStats] = None,
        warm_start: Optional[Dict[str, np.ndarray]] = None,
    ) -> "DeepMapping":
        """Train a hybrid structure that losslessly represents ``table``.

        The build follows the paper's initialization: encode keys/values,
        pick an architecture (fixed sizes or MHAS when
        ``config.use_search``), train to convergence, freeze the model at
        the storage width that minimises Eq. 1
        (:func:`~repro.nn.inference.choose_width`; ``config.weight_dtype``
        is the widest candidate), then materialize the auxiliary
        structures from the *frozen* model's residual errors — so
        whatever quantisation loses lands in ``T_aux``, never in an
        answer.

        ``warm_start`` optionally carries named weight arrays from a
        previous model (see :meth:`rebuild`): tensors whose shape still
        matches are copied before training, implementing the paper's
        model-reuse retraining (Sec. V-D future work).

        ``pool`` may be shared with other structures (the sharded store
        shares one across shards): every auxiliary partition caches under
        a pool key of its own.
        """
        config = config if config is not None else DeepMappingConfig()
        stats = stats if stats is not None else StoreStats()
        rng = np.random.default_rng(config.seed)

        key_cols = table.key_columns_dict()
        first_key = np.asarray(key_cols[table.key[0]], dtype=np.int64)
        extent = int(first_key.max() - first_key.min() + 1)
        headroom = int(extent * config.key_headroom_fraction)
        key_codec = CompositeKeyCodec(table.key).fit(key_cols, headroom=headroom)
        flat = key_codec.flatten(key_cols)
        if np.unique(flat).size != flat.size:
            raise ValueError("the designated key does not uniquely identify rows")

        value_cols = table.value_columns_dict()
        if not value_cols:
            raise ValueError("table has no value columns to learn")
        fdecode = DecodeMap.fit(value_cols)
        labels = fdecode.encode(value_cols)

        key_encoder = KeyEncoder(config.key_base).fit(key_codec.domain_size - 1)
        x = key_encoder.encode(flat)

        search_history = None
        if config.use_search:
            from .mhas import MHASConfig, search as mhas_search

            search_cfg = config.search if config.search is not None else MHASConfig()
            outcome = mhas_search(
                x,
                labels,
                output_dims=fdecode.cardinalities(),
                dataset_bytes=table.uncompressed_bytes(),
                overhead_bytes=fdecode.nbytes,
                flat_keys=flat,
                key_encoder=key_encoder,
                aux_bytes_per_row=measure_aux_bytes_per_row(
                    flat, labels, codec=config.aux_codec,
                    partition_bytes=config.aux_partition_bytes),
                config=search_cfg,
                rng=rng,
                weight_dtype=config.weight_dtype,
            )
            model = outcome.model
            search_history = outcome
        else:
            spec = ArchitectureSpec(
                input_dim=key_encoder.input_dim,
                shared_sizes=tuple(config.shared_sizes),
                private_sizes={t: tuple(config.private_sizes)
                               for t in fdecode.columns},
                output_dims=fdecode.cardinalities(),
            )
            model = MultiTaskMLP(spec, rng=rng)

        warm_tensors = 0
        if warm_start is not None:
            warm_tensors = model.load_state_arrays(warm_start)

        optimizer = Adam(ExponentialDecay(config.learning_rate, config.lr_decay))
        trainer = Trainer(model, optimizer, batch_size=config.batch_size,
                          tol=config.tol, rng=rng)
        training = trainer.fit(x, labels, epochs=config.epochs)

        # Freeze at the width Eq. 1 picks, each candidate priced by the
        # rows T_aux would hold under its own compiled kernel — the
        # winner's mask is then exactly the rows stored.  Only the masks
        # are kept: each engine's scratch is freed once it is priced.
        priced = []

        def aux_bytes(candidate: InferenceSession) -> float:
            mis = CompiledSession(candidate, key_encoder).lost_rows(
                flat, labels)
            priced.append((candidate, mis))
            return mis.sum() * measure_aux_bytes_per_row(
                flat[mis], {t: labels[t][mis] for t in fdecode.columns},
                codec=config.aux_codec,
                partition_bytes=config.aux_partition_bytes)

        session, _ = choose_width(model, config.weight_dtype, aux_bytes)
        mis = next(mask for candidate, mask in priced if candidate is session)
        aux = AuxiliaryTable(
            tasks=fdecode.columns,
            codec=config.aux_codec,
            target_partition_bytes=config.aux_partition_bytes,
            pool=pool,
            stats=stats,
            auto_compact_rows=config.aux_auto_compact_rows,
        )
        aux.build(flat[mis], {t: labels[t][mis] for t in fdecode.columns})

        exist = make_existence_index(key_codec.domain_size, flat.size)
        exist.set_batch(flat)

        mapping = cls(
            key_codec=key_codec,
            key_encoder=key_encoder,
            session=session,
            aux=aux,
            exist=exist,
            fdecode=fdecode,
            config=config,
            dataset_bytes=table.uncompressed_bytes(),
            stats=stats,
        )
        mapping.search_history = search_history
        mapping.last_training = training
        mapping.warm_started_tensors = warm_tensors
        mapping._compiled = CompiledSession(session, key_encoder)
        return mapping

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def key_names(self) -> Tuple[str, ...]:
        """Key column names."""
        return self.key_codec.key_names

    @property
    def value_names(self) -> Tuple[str, ...]:
        """Value column (task) names."""
        return self.fdecode.columns

    def __len__(self) -> int:
        """Number of live keys."""
        return self.exist.count()

    def storage_bytes(self) -> int:
        """Total offline footprint of the hybrid structure."""
        return self.size_report().total_bytes

    def size_report(self) -> SizeReport:
        """Per-component storage breakdown (Fig. 6 / Eq. 1)."""
        return SizeReport(
            model_bytes=self.session.nbytes,
            aux_bytes=self.aux.stored_bytes(),
            exist_bytes=self.exist.stored_bytes(),
            decode_bytes=self.fdecode.nbytes,
            dataset_bytes=self._dataset_bytes,
            n_rows=len(self),
            n_in_aux=len(self.aux),
        )

    # ------------------------------------------------------------------
    # Lookup (paper Algorithm 1)
    # ------------------------------------------------------------------
    def compiled_session(self) -> CompiledSession:
        """The fused lookup kernel for the current frozen model.

        Compiled lazily on first use and cached; the cache is keyed to the
        live ``session``/``key_encoder`` objects, so any path that swaps
        them (``rebuild``, domain-widening inserts) recompiles on the next
        call even without an explicit invalidation.  Concurrent readers
        may race to build the first engine — construction is cheap and
        idempotent, and the attribute swap is atomic.
        """
        engine = self._compiled
        if (engine is None or engine.session is not self.session
                or engine.key_encoder is not self.key_encoder):
            engine = CompiledSession(self.session, self.key_encoder)
            self._compiled = engine
        return engine

    def plan_lookup(self, keys: KeysLike,
                    presorted: bool = False) -> LookupPlan:
        """Stage a batched lookup without executing it.

        Returns a :class:`LookupPlan` whose stages (existence gate, aux
        probe, gated inference, decode/scatter) the caller drives —
        ``plan.execute()`` reproduces :meth:`lookup` exactly, while
        ``plan.execute_into`` streams the finished segment into shared
        output arrays (the sharded store's pipelined fan-out).  Pass
        ``presorted=True`` only when the keys arrive in ascending
        flattened order, equal keys adjacent (repeats are allowed): the
        aux stage then skips sorting entirely, and each run of equal
        keys is answered once.
        """
        return LookupPlan(self, normalize_keys(keys, self.key_names),
                          presorted=presorted)

    def lookup(self, keys: KeysLike) -> LookupResult:
        """Batch exact-match lookup.

        Masks non-existing keys through ``V_exist``, probes ``T_aux``,
        runs batch inference (through the compiled kernel, gated to keys
        that are live and not served from ``T_aux``), and decodes label
        codes to original values.  Implemented as the serial execution of a
        :class:`LookupPlan`; see :meth:`plan_lookup` for the staged
        form.
        """
        return self.plan_lookup(keys).execute()

    def lookup_one(self, **key_parts) -> Optional[Dict[str, object]]:
        """Convenience single-key lookup; returns a row dict or None."""
        key_cols = {name: np.array([value]) for name, value in key_parts.items()}
        if set(key_cols) != set(self.key_names):
            raise KeyError(f"expected key columns {self.key_names}")
        result = self.lookup(key_cols)
        return next(result.rows())

    def contains_batch(self, keys: KeysLike) -> np.ndarray:
        """Liveness test per key — no inference, just ``V_exist``.

        The cheap membership predicate behind lookup/delete/update; also
        used by the sharded facade to pre-validate mutation batches.
        """
        key_cols = normalize_keys(keys, self.key_names)
        flat, in_domain = self.key_codec.try_flatten(key_cols)
        return self.exist.test_batch(flat) & in_domain

    # ------------------------------------------------------------------
    # Async reads / executor strategy
    # ------------------------------------------------------------------
    @property
    def executor(self) -> ExecutorStrategy:
        """The strategy behind :meth:`lookup_async` (serial by default —
        a monolithic structure has no internal fan-out to overlap)."""
        if self._executor is None:
            self._executor = SerialStrategy()
        return self._executor

    def set_executor(self, executor) -> None:
        """Install an executor strategy (a name from
        :data:`repro.store.EXECUTOR_NAMES` or a strategy instance).

        A strategy built here from a name is owned (and closed) by this
        structure; a passed-in instance stays caller-owned and is never
        closed by :meth:`close`.
        """
        new = make_executor(executor)
        if (self._executor is not None and self._owns_executor
                and new is not self._executor):
            self._executor.close()
        self._executor = new
        self._owns_executor = new is not executor

    def lookup_async(self, keys: KeysLike, *,
                     deadline: Optional[Deadline] = None) -> Future:
        """Schedule :meth:`lookup` on the executor strategy.

        Returns a future resolving to the same :class:`LookupResult` the
        synchronous call would produce.  Under the serial strategy the
        work happens inline and the future comes back already resolved.
        ``deadline`` gates the job: if the budget is gone before it
        starts, the future fails with ``DeadlineExceeded`` and
        :meth:`lookup` never runs.
        """
        return self.executor.submit(self.lookup, keys, deadline=deadline)

    # ------------------------------------------------------------------
    # Modifications (paper Algorithms 3-5)
    # ------------------------------------------------------------------
    def insert(self, rows: RowsLike) -> int:
        """Insert new key→value rows (Algorithm 3).

        Existence bits are set, the model is evaluated on the new keys, and
        only rows the model mispredicts are materialized in ``T_aux``.
        Returns the number of rows landed in the auxiliary table.
        """
        self._require_writable()
        columns = normalize_rows(rows, self.key_names, self.value_names)
        flat = self._flatten_or_rebuild_domain(columns)
        if flat is None:
            # The structure was rebuilt over old + new rows; nothing lands
            # in the (fresh) auxiliary overlay for this call specifically.
            return 0
        existing = self.exist.test_batch(flat)
        if existing.any():
            raise ValueError(
                f"{int(existing.sum())} key(s) already exist; use update()"
            )

        value_cols = {t: np.asarray(columns[t]) for t in self.value_names}
        self.fdecode.extend(value_cols)
        labels = self.fdecode.encode(value_cols)

        self.exist.set_batch(flat)
        mis = self.compiled_session().lost_rows(flat, labels)
        if mis.any():
            self.aux.add_batch(flat[mis], {t: labels[t][mis]
                                           for t in self.value_names})

        self.tracker.record(estimate_batch_bytes(columns))
        self._maybe_retrain()
        return int(mis.sum())

    def delete(self, keys: KeysLike) -> int:
        """Delete keys (Algorithm 4): clear existence bits, drop aux rows.

        Returns the number of keys actually deleted (absent keys are
        ignored, matching the paper's idempotent bit-clear semantics).
        """
        self._require_writable()
        key_cols = normalize_keys(keys, self.key_names)
        flat, in_domain = self.key_codec.try_flatten(key_cols)
        live = self.exist.test_batch(flat) & in_domain
        targets = flat[live]
        self.exist.clear_batch(targets)
        self.aux.remove_batch(targets)
        self.tracker.record(estimate_batch_bytes(key_cols))
        self._maybe_retrain()
        return int(targets.size)

    def update(self, rows: RowsLike) -> int:
        """Replace values of existing keys (Algorithm 5).

        Rows the model now predicts correctly are dropped from ``T_aux``;
        the rest are inserted or updated in place there.  Returns the
        number of rows materialized in the auxiliary table.
        """
        self._require_writable()
        columns = normalize_rows(rows, self.key_names, self.value_names)
        flat, in_domain = self.key_codec.try_flatten(columns)
        live = self.exist.test_batch(flat) & in_domain
        if not live.all():
            raise KeyError(
                f"{int((~live).sum())} key(s) do not exist; use insert()"
            )

        value_cols = {t: np.asarray(columns[t]) for t in self.value_names}
        self.fdecode.extend(value_cols)
        labels = self.fdecode.encode(value_cols)

        mis = self.compiled_session().lost_rows(flat, labels)
        if (~mis).any():
            self.aux.remove_batch(flat[~mis])
        if mis.any():
            self.aux.add_batch(flat[mis], {t: labels[t][mis]
                                           for t in self.value_names})
        self.tracker.record(estimate_batch_bytes(columns))
        self._maybe_retrain()
        return int(mis.sum())

    # ------------------------------------------------------------------
    # Retraining (paper Sec. IV-D closing discussion)
    # ------------------------------------------------------------------
    def rebuild(self, config: Optional[DeepMappingConfig] = None) -> None:
        """Retrain the model and reconstruct the auxiliary structures from
        the current logical content (triggered lazily by
        :meth:`retrain_due`).

        When ``config.warm_start_rebuild`` is set (default), the retrain is
        initialized from the current model's weights — the paper's
        model-reuse optimization for its expensive retraining step.

        ``config`` optionally replaces the build configuration for this and
        future rebuilds — the hook behind per-shard MHAS sizing, where a
        lifecycle rebuild right-sizes the architecture to the rows the
        shard now holds (warm-start tensors transfer only where shapes
        still match).

        The rebuilt auxiliary table keeps this structure's buffer pool
        (co-hosted structures like the sharded store rely on it), and the
        retired table's cached partitions are purged from it.
        """
        self._require_writable()
        table = self.to_table()
        build_config = config if config is not None else self.config
        warm = (self.session.state_arrays()
                if build_config.warm_start_rebuild and not build_config.use_search
                else None)
        self._adopt(DeepMapping.fit(table, build_config, pool=self.aux.pool,
                                    stats=self.stats, warm_start=warm))

    def _adopt(self, fresh: "DeepMapping") -> None:
        """Replace this structure's build with ``fresh``, a structure just
        fit over its content — the one swap behind :meth:`rebuild` and
        domain-widening inserts.

        The retired ``T_aux`` is purged from the pool (a reader still
        holding it keeps its answers) and every build-owned
        field is taken over, the compiled kernel included (it is frozen
        over the retired session/encoder).  The tracker, executor, stats
        and flags belong to the logical store and stay.
        """
        self.aux.drop_storage()
        for name in _BUILD_FIELDS:
            setattr(self, name, getattr(fresh, name))
        self.tracker.mark_rebuilt()

    def aux_ratio(self) -> float:
        """Fraction of live rows currently served from ``T_aux``."""
        n_rows = len(self)
        if n_rows == 0:
            return 0.0
        return len(self.aux) / n_rows

    def retrain_due(self, threshold_bytes: Optional[int],
                    aux_ratio: Optional[float]) -> bool:
        """The one retrain rule (paper Sec. IV-D): True once either bound
        is met; ``None`` disables a bound.

        - bytes: ``threshold_bytes`` or more modified since the last
          build (DM-Z1);
        - ratio: at least ``MIN_ROWS_FOR_RATIO_RETRAIN`` live rows and an
          :meth:`aux_ratio` of at least ``aux_ratio`` (``T_aux`` is only
          counted when this bound is set).

        A monolithic structure asks it inline with its config's bounds; a
        managed sharded store's engine asks every shard with the bounds
        its lifecycle policy names.
        """
        if (threshold_bytes is not None
                and self.tracker.bytes_since_build >= threshold_bytes):
            return True
        if aux_ratio is None:
            return False
        n_rows = len(self)
        return (n_rows >= MIN_ROWS_FOR_RATIO_RETRAIN
                and len(self.aux) / n_rows >= aux_ratio)

    def _maybe_retrain(self) -> None:
        if self.auto_rebuild and self.retrain_due(
                self.config.retrain_threshold_bytes,
                self.config.retrain_aux_ratio):
            self.rebuild()

    def to_table(self) -> ColumnTable:
        """Materialize the current logical content as a ColumnTable."""
        flat = self.exist.existing_keys()
        key_cols = self.key_codec.unflatten(flat)
        columns: Dict[str, np.ndarray] = dict(key_cols)
        columns.update(self.lookup(key_cols).values)
        return ColumnTable(columns, key=self.key_names, name="deepmapping")

    # ------------------------------------------------------------------
    # Persistence (the payload and its opens live in repro.core.persistence)
    # ------------------------------------------------------------------
    def to_payload(self) -> bytearray:
        """This structure as one payload
        (:func:`repro.core.persistence.to_payload`)."""
        from . import persistence
        return persistence.to_payload(self)

    def save(self, target: str) -> int:
        """Persist to a path or URL; returns bytes written
        (:func:`repro.core.persistence.save`)."""
        from . import persistence
        return persistence.save(self, target)

    @classmethod
    def from_payload(cls, payload, pool: Optional[BufferPool] = None,
                     stats: Optional[StoreStats] = None) -> "DeepMapping":
        """Inverse of :meth:`to_payload`: private, writable copies."""
        from . import persistence
        return persistence.from_payload(payload, pool=pool, stats=stats)

    @classmethod
    def open(cls, target: str, pool: Optional[BufferPool] = None,
             stats: Optional[StoreStats] = None,
             writable: bool = True) -> "DeepMapping":
        """Inverse of :meth:`save` (:func:`repro.core.persistence.load`).
        Prefer :func:`repro.open`, which also auto-detects sharded
        stores; this is the monolithic-only loader beneath it."""
        from . import persistence
        return persistence.load(target, pool=pool, stats=stats,
                                writable=writable)

    # ------------------------------------------------------------------
    # Input normalization
    # ------------------------------------------------------------------
    def _require_writable(self) -> None:
        if not self.writable:
            raise PermissionError(
                "this store was opened writable=False (shared, read-only "
                "components); reopen with repro.open(url) to mutate it")

    def _flatten_or_rebuild_domain(
            self, columns: Dict[str, np.ndarray]) -> Optional[np.ndarray]:
        """Flatten new keys; or widen the key domain by a rebuild over
        old and new rows, and return None: nothing is left to insert."""
        flat, in_domain = self.key_codec.try_flatten(columns)
        if in_domain.all():
            return flat
        # Out-of-domain inserts: rebuild the codec (and everything keyed by
        # it) over current content plus the new rows' key range.  This is
        # the "retrain offline when the structure no longer fits" path.
        base = self.to_table()
        incoming = ColumnTable(columns, key=self.key_names)
        merged = base.concat(incoming) if base.n_rows else incoming
        self._adopt(DeepMapping.fit(merged, self.config, pool=self.aux.pool,
                                    stats=self.stats))
        return None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the async executor's worker threads (idempotent).

        The structure itself stays usable — ``close`` frees runtime
        resources, it does not drop data.  The installed strategy is
        kept (its pools rebuild lazily on next use); a caller-owned
        strategy instance is left untouched.
        """
        if self._executor is not None and self._owns_executor:
            self._executor.close()

    def __enter__(self) -> "DeepMapping":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"DeepMapping(key={self.key_names}, values={list(self.value_names)}, "
            f"rows={len(self)}, aux_rows={len(self.aux)}, "
            f"bytes={self.storage_bytes()})"
        )
