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

There is one predictor, the compiled kernel: it serves every lookup
(:class:`LookupPlan`), and its ``lost_rows`` alone decides what
``T_aux`` holds — in ``fit``'s Eq. 1 pricing and build, on every insert
and update, and in MHAS.  The paper-literal Algorithm 1 survives only as
the bit-exact parity oracle :func:`repro.testing.oracles.reference_lookup`.
"""

from __future__ import annotations

from concurrent.futures import Future
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple, Union

import numpy as np

from ..data.encoding import CompositeKeyCodec, DecodeMap, KeyEncoder
from ..data.table import ColumnTable
from ..nn.compiled import CompiledSession
from ..nn.inference import InferenceSession, choose_width
from ..nn.multitask import ArchitectureSpec, MultiTaskMLP
from ..nn.optimizers import Adam, ExponentialDecay
from ..nn.training import Trainer
from ..storage import zerocopy
from ..resilience.deadline import Deadline
from ..resilience.errors import StoreNotFoundError
from ..storage.backends import read_blob_view, resolve_blob_url
from ..storage.blob_cache import payload_cache
from ..storage.buffer_pool import BufferPool
from ..storage.stats import StoreStats
from ..store.executors import (ExecutorStrategy, SerialStrategy,
                               make_executor)
from .aux_table import AuxiliaryTable
from .config import DeepMappingConfig
from .exist_index import (ExistenceIndex, existence_from_state,
                          make_existence_index)
from .mhas.reward import measure_aux_bytes_per_row
from .modify import (MIN_ROWS_FOR_RATIO_RETRAIN, ModificationTracker,
                     estimate_batch_bytes)

__all__ = ["DeepMapping", "LookupPlan", "LookupResult", "SizeReport",
           "blank", "normalize_keys", "normalize_rows"]

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


def blank(size: int, dtype) -> np.ndarray:
    """What ``size`` misses read: the dtype's zero (``0``, ``''``,
    ``False``), or ``None`` for object columns."""
    if dtype == object:
        return np.full(size, None, dtype=object)
    return np.zeros(size, dtype=dtype)


@dataclass
class LookupResult:
    """Outcome of a batch lookup.

    ``found[i]`` is False for keys absent from the data (the paper's NULL);
    ``values[col][i]`` is then the column's :func:`blank`.
    """

    found: np.ndarray
    values: Dict[str, np.ndarray]

    def __len__(self) -> int:
        return int(self.found.size)

    def rows(self) -> Iterator[Optional[Dict[str, object]]]:
        """Iterate rows as dicts, yielding ``None`` for missing keys."""
        for i in range(self.found.size):
            if self.found[i]:
                yield {name: arr[i] for name, arr in self.values.items()}
            else:
                yield None


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


class LookupPlan:
    """One batched lookup (Algorithm 1), decomposed into explicit stages.

    The stages and their data dependencies::

        encode ──> existence ──> aux ──> inference ──> decode/scatter
        (ctor)      (V_exist)   (T_aux)  (compiled M)

    Splitting the lookup open buys three things the opaque call could
    not deliver:

    - **Shared sort order.** The auxiliary store wants sorted keys (one
      partition fault per batch).  A caller that already holds the keys
      sorted — the sharded route stage sorts *once* for every shard —
      passes ``presorted=True`` and no stage ever sorts again; otherwise
      the plan sorts the surviving keys once and both the aux probe and
      the scatter reuse that order.
    - **Aux-gated inference.** ``T_aux`` overrides the model wherever it
      has a row, so running the model there is pure waste.  The plan
      probes ``T_aux`` first and runs inference only on keys that are
      live *and* not served from the auxiliary table.
    - **Streaming scatter.** :meth:`execute_into` writes the finished
      segment straight into caller-owned output arrays, so a sharded
      fan-out assembles results as shards finish instead of
      concatenating and permuting a list of per-shard results behind a
      barrier.
    - **Each distinct key once.** In a presorted batch equal keys sit
      next to each other, so one adjacent-inequality pass over the raw
      key columns keeps the first key of every run, and every stage —
      flatten, existence, aux, inference, decode — runs on the distinct
      keys only; :meth:`finish` and :meth:`execute_into` expand each
      output column back through ``spread`` (one distinct position per
      input key).  Raw columns, not flat codes, are compared: every
      out-of-domain key flattens to 0, while equal raw keys always share
      one answer.

    Results are bit-identical to Algorithm 1 as written
    (:func:`repro.testing.oracles.reference_lookup`): gating only skips
    predictions that were about to be overwritten, misses read the same
    :func:`blank`, and stage order never changes any per-key
    answer.  Plans are single-use and not thread-safe; build one per
    batch via :meth:`DeepMapping.plan_lookup`.
    """

    __slots__ = ("mapping", "flat", "in_domain", "presorted", "spread",
                 "found", "_hits", "_aux_hit", "_aux_codes", "_model_codes")

    def __init__(self, mapping: "DeepMapping",
                 key_cols: Dict[str, np.ndarray],
                 presorted: bool = False):
        self.mapping = mapping
        #: Distinct position per input key, or None when every key is
        #: distinct (or the batch is unsorted, so runs are not adjacent).
        self.spread: Optional[np.ndarray] = None
        if presorted:
            key_cols, self.spread = _distinct_runs(key_cols)
        self.flat, self.in_domain = mapping.key_codec.try_flatten(key_cols)
        self.presorted = presorted
        self.found: Optional[np.ndarray] = None
        self._hits: Optional[np.ndarray] = None       # hit rows, key-sorted
        self._aux_hit: Optional[np.ndarray] = None    # bool per hit row
        self._aux_codes: Optional[Dict[str, np.ndarray]] = None
        self._model_codes: Optional[Dict[str, np.ndarray]] = None

    def __len__(self) -> int:
        """Keys given, repeats included."""
        return int(self.flat.size if self.spread is None
                   else self.spread.size)

    def _expand(self, column: np.ndarray) -> np.ndarray:
        """One distinct-key column back to one entry per input key."""
        return column if self.spread is None else column[self.spread]

    # -- stage 2: existence gate ---------------------------------------
    def run_existence(self) -> np.ndarray:
        """Mask the distinct keys through ``V_exist`` (and the key
        domain); ``found`` is indexed by distinct position."""
        m = self.mapping
        with m.stats.timing("existence"):
            self.found = m.exist.test_batch(self.flat) & self.in_domain
        return self.found

    # -- stage 3: auxiliary table --------------------------------------
    def run_aux(self) -> None:
        """Probe ``T_aux`` for every surviving key.

        Keys are probed in sorted order — reusing the caller's order
        when ``presorted``, sorting once here otherwise — so the
        partition store's monotonic fast path skips its own argsort and
        each partition is faulted at most once.
        """
        m = self.mapping
        hits = np.flatnonzero(self.found)
        if hits.size == 0:
            self._hits = hits
            self._aux_hit = np.zeros(0, dtype=bool)
            self._aux_codes = {t: np.zeros(0, dtype=np.int64)
                               for t in m.value_names}
            return
        sub = self.flat[hits]
        if not self.presorted and sub.size > 1 \
                and not np.all(sub[1:] >= sub[:-1]):
            order = np.argsort(sub, kind="stable")
            hits = hits[order]
            sub = sub[order]
        with m.stats.timing("aux"):
            aux_hit, aux_codes = m.aux.lookup_batch(sub)
        self._hits = hits
        self._aux_hit = aux_hit
        self._aux_codes = {t: aux_codes[t][aux_hit] for t in m.value_names}

    @property
    def aux_rows(self) -> np.ndarray:
        """Distinct-key positions served from ``T_aux``."""
        return self._hits[self._aux_hit]

    @property
    def model_rows(self) -> np.ndarray:
        """Distinct-key positions served by model inference alone."""
        return self._hits[~self._aux_hit]

    # -- stage 4: model inference --------------------------------------
    def run_inference(self) -> None:
        """Run the fused kernel on :attr:`model_rows` only — the live
        keys without an aux override."""
        m = self.mapping
        with m.stats.timing("inference"):
            rows = self.model_rows
            if rows.size:
                self._model_codes = m.compiled_session().run(self.flat[rows])
            else:
                self._model_codes = {t: np.zeros(0, dtype=np.int64)
                                     for t in m.value_names}

    # -- stage 5: decode + assembly ------------------------------------
    def _decoded_task(self, task: str) -> np.ndarray:
        """This batch's decoded values for one task, per distinct key.

        The single decode implementation behind both :meth:`finish` and
        :meth:`execute_into` — the bit-identity-critical branch (the
        :func:`blank` a miss reads, model/aux overwrite order) lives
        here once.
        """
        enc = self.mapping.fdecode.encoders[task]
        out = blank(self.flat.size, enc.vocab.dtype)
        rows = self.model_rows
        if rows.size:
            out[rows] = enc.decode(self._model_codes[task])
        rows = self.aux_rows
        if rows.size:
            out[rows] = enc.decode(self._aux_codes[task])
        return out

    def finish(self) -> LookupResult:
        """Decode codes to values and assemble a LookupResult."""
        m = self.mapping
        with m.stats.timing("decode"):
            values = {task: self._expand(self._decoded_task(task))
                      for task in m.value_names}
        return LookupResult(found=self._expand(self.found), values=values)

    def execute(self) -> LookupResult:
        """Run every stage in order — the serial lookup."""
        self.run_existence()
        self.run_aux()
        self.run_inference()
        return self.finish()

    def execute_into(
        self,
        found_out: np.ndarray,
        values_out: Dict[str, np.ndarray],
        dest: np.ndarray,
    ) -> None:
        """Run the plan and scatter its segment into shared output arrays.

        ``dest`` maps this plan's batch positions to positions in the
        caller's arrays; disjoint ``dest`` sets may be filled from
        concurrent threads (the sharded store's streaming assembly).
        Misses inside the segment are written too (the :func:`blank`),
        matching what a merge of per-shard results would have produced.
        """
        self.run_existence()
        self.run_aux()
        self.run_inference()
        m = self.mapping
        found_out[dest] = self._expand(self.found)
        with m.stats.timing("decode"):
            for task in m.value_names:
                values_out[task][dest] = self._expand(self._decoded_task(task))


def _distinct_runs(key_cols: Dict[str, np.ndarray]):
    """``(distinct key columns, spread)`` of a batch whose equal keys are
    adjacent; ``spread`` is None when no key repeats its predecessor."""
    cols = [np.asarray(col) for col in key_cols.values()]
    if cols[0].size < 2:
        return key_cols, None
    first = np.empty(cols[0].size, dtype=bool)
    first[0] = True
    np.not_equal(cols[0][1:], cols[0][:-1], out=first[1:])
    for col in cols[1:]:
        first[1:] |= col[1:] != col[:-1]
    if first.all():
        return key_cols, None
    spread = np.cumsum(first) - 1
    return {name: col[first] for name, col in zip(key_cols, cols)}, spread


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
        return LookupPlan(self, self._normalize_keys(keys),
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
        key_cols = self._normalize_keys(keys)
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
        columns = self._normalize_rows(rows)
        try:
            flat = self._flatten_or_rebuild_domain(columns)
        except _DomainRebuilt:
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
        key_cols = self._normalize_keys(keys)
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
        columns = self._normalize_rows(rows)
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
    # Persistence
    # ------------------------------------------------------------------
    def to_payload(self) -> bytearray:
        """Serialize the full hybrid structure to one byte payload.

        The payload is a :mod:`repro.storage.zerocopy` container: the
        pickled state plus out-of-band, 64-byte-aligned, CRC-checked
        buffer segments for **every** array — vocabularies, codec
        domains, the model weights and existence bit-vector
        (``session_v2`` / ``exist_v2``), and ``T_aux`` the way the paper
        stores it (``aux_v2``): one segment per *compressed* partition,
        exactly the bytes :meth:`AuxiliaryTable.stored_bytes` counts,
        beside a small fence index in the head (first key, last key, row
        count and key-gap width per partition; column names and dtypes;
        see :func:`~repro.storage.partition.encode_partition`) and the
        not-yet-compacted overlay / tombstones as arrays.  Nothing is
        decompressed, re-sorted or re-compressed to save, and an open
        attaches the partitions where they lie.  Opened through an
        mmap-capable backend with ``writable=False``, all of it
        materializes as views over shared pages instead of copies — the
        cold open is pure mmap.  This is the only layout any open reads
        (see :meth:`_load_state`).
        """
        state = {
            "config": self.config,
            "key_codec": self.key_codec.to_state(),
            "key_encoder": self.key_encoder.to_state(),
            "session_v2": self.session.to_state(),
            "exist_v2": self.exist.to_state(),
            "fdecode": self.fdecode.to_state(),
            "aux_v2": self.aux.to_state(),
            "dataset_bytes": self._dataset_bytes,
            # Sec. IV-D lazy-update state: without this a loaded store
            # would restart the retrain threshold from zero every reopen.
            "tracker": self.tracker.to_state(),
        }
        return zerocopy.pack(state)

    def save(self, target: str) -> int:
        """Persist to a path or ``file:// / mem:// / zip://`` URL.

        A filesystem path / ``file://`` URL names the payload file itself;
        ``mem://`` and ``zip://`` targets are containers and store the
        payload under
        :data:`~repro.storage.backends.MONOLITHIC_BLOB`.  The write is
        atomic on every backend, and the process-wide payload cache entry
        for the target is invalidated so later ``writable=False`` opens
        never serve the retired content.  Returns bytes written.
        """
        backend, blob = resolve_blob_url(str(target))
        written = backend.write_bytes(blob, self.to_payload())
        payload_cache().invalidate(backend, blob)
        return written

    @staticmethod
    def _load_state(payload, zero_copy: bool = False) -> Dict[str, object]:
        """Payload bytes/view -> state dict, for the one layout
        :meth:`to_payload` writes.

        Anything else is refused with a ``ValueError`` — not
        :class:`~repro.resilience.errors.StoreCorruptedError`: the bytes
        are intact, so the caches' re-read would change nothing.
        """
        if not zerocopy.is_packed(payload):
            raise _unsupported_layout(
                "it does not start with the RZC2 container magic (bare "
                "pickles and containers without checksums are no longer "
                "read)")
        state = zerocopy.unpack(payload, zero_copy=zero_copy)
        missing = [key for key in ("session_v2", "exist_v2", "aux_v2")
                   if key not in state]
        if missing:
            raise _unsupported_layout(
                f"it lacks {', '.join(missing)} (nested session / exist "
                "bytes and raw aux_keys / aux_codes rows are no longer "
                "read)")
        if "gap_widths" not in state["aux_v2"]["store"]:
            raise _unsupported_layout(
                "its aux_v2 partitions are pickled blocks of int64 keys "
                "(no gap_widths fence; they are no longer read)",
                last_reader="dae9259")
        return state

    @classmethod
    def _components_from_state(
        cls,
        state: Dict[str, object],
        pool: Optional[BufferPool],
        stats: StoreStats,
    ) -> Dict[str, object]:
        """Materialize the shared components a payload state describes.

        ``T_aux`` is *attached*: the compressed partitions in ``aux_v2``
        (views into the payload mapping on a read-only open, the private
        copy's segments on a writable one) become the table's partitions
        as they are, and the first probe of one decompresses it straight
        out of the payload — no sort, no compression, no temporary file.
        """
        config = state["config"]
        fdecode = DecodeMap.from_state(state["fdecode"])
        aux = AuxiliaryTable(
            tasks=fdecode.columns,
            codec=config.aux_codec,
            target_partition_bytes=config.aux_partition_bytes,
            pool=pool,
            stats=stats,
            auto_compact_rows=config.aux_auto_compact_rows,
        )
        aux.attach(state["aux_v2"])
        return {
            "config": config,
            "key_codec": CompositeKeyCodec.from_state(state["key_codec"]),
            "key_encoder": KeyEncoder.from_state(state["key_encoder"]),
            "session": InferenceSession.from_state(state["session_v2"]),
            "aux": aux,
            "exist": existence_from_state(state["exist_v2"]),
            "fdecode": fdecode,
            "dataset_bytes": state["dataset_bytes"],
            "tracker": state["tracker"],
        }

    @classmethod
    def _assemble(cls, components: Dict[str, object],
                  stats: Optional[StoreStats]) -> "DeepMapping":
        mapping = cls(
            key_codec=components["key_codec"],
            key_encoder=components["key_encoder"],
            session=components["session"],
            aux=components["aux"],
            exist=components["exist"],
            fdecode=components["fdecode"],
            config=components["config"],
            dataset_bytes=components["dataset_bytes"],
            stats=stats,
        )
        mapping.tracker.restore_counters(components["tracker"])
        return mapping

    @classmethod
    def from_payload(
        cls,
        payload: bytes,
        pool: Optional[BufferPool] = None,
        stats: Optional[StoreStats] = None,
    ) -> "DeepMapping":
        """Inverse of :meth:`to_payload` (private, writable copies)."""
        stats = stats if stats is not None else StoreStats()
        state = cls._load_state(payload)
        return cls._assemble(
            cls._components_from_state(state, pool, stats), stats)

    @classmethod
    def _from_bundle(cls, bundle: Dict[str, object],
                     stats: Optional[StoreStats] = None) -> "DeepMapping":
        """A read-only structure over a cached component bundle.

        Every heavy artifact — session, compiled engine, auxiliary
        partitions, existence vector, decode map — is *shared* with any
        other store wrapping the same bundle; only per-instance state
        (stats sink, tracker, executor) is fresh.  Safe because the
        returned structure refuses mutations (``writable=False``) and
        all shared read paths are thread-safe.
        """
        mapping = cls._assemble(bundle, stats)
        mapping.writable = False
        mapping._compiled = bundle.get("compiled")
        # Pin the bundle (and through it any mmap view backing its
        # arrays) for this structure's lifetime, independent of cache
        # eviction.
        mapping._shared_bundle = bundle
        return mapping

    @classmethod
    def _open_shared(
        cls,
        backend,
        blob: str,
        stats: Optional[StoreStats] = None,
        pool: Optional[BufferPool] = None,
    ) -> "DeepMapping":
        """Read-only open through the process-wide payload cache.

        Cold path: the payload is read as a zero-copy view (mmap'd on
        ``file://`` backends), deserialized once, its lookup kernel
        compiled, and the whole bundle cached under the blob's version
        stamp.  The auxiliary partitions are attached as views into the
        pinned payload (see :meth:`_components_from_state`), so the cold
        open writes nothing and creates no file.  Warm path: the cached
        bundle is wrapped directly — no I/O, no deserialization, no
        recompile.
        """
        def loader():
            view = read_blob_view(backend, blob)
            state = cls._load_state(view, zero_copy=True)
            bundle = cls._components_from_state(state, pool, StoreStats())
            # Hold the payload view explicitly: zero-copy arrays
            # reference it, and the bundle must outlive any of them.
            bundle["payload_view"] = view
            bundle["compiled"] = CompiledSession(bundle["session"],
                                                 bundle["key_encoder"])
            return bundle, view.nbytes
        bundle = payload_cache().get(backend, blob, loader)
        return cls._from_bundle(bundle, stats=stats)

    @classmethod
    def open(
        cls,
        target: str,
        pool: Optional[BufferPool] = None,
        stats: Optional[StoreStats] = None,
        writable: bool = True,
    ) -> "DeepMapping":
        """Inverse of :meth:`save`: open a payload by path or URL.

        ``writable=False`` opens a read-only structure through the
        process-wide payload cache: payload arrays come up as zero-copy
        (mmap-backed on local directories) views, repeated opens of the
        same unchanged blob share one deserialized bundle, and mutating
        calls raise ``PermissionError``.  Prefer :func:`repro.open`,
        which also auto-detects sharded stores; this is the
        monolithic-only loader beneath it.
        """
        backend, blob = resolve_blob_url(str(target), create=False)
        try:
            if not writable:
                return cls._open_shared(backend, blob, stats=stats,
                                        pool=pool)
            payload = backend.read_bytes(blob)
        except KeyError:
            raise StoreNotFoundError(f"no DeepMapping payload at "
                                     f"{target!r}") from None
        return cls.from_payload(payload, pool=pool, stats=stats)

    # ------------------------------------------------------------------
    # Input normalization
    # ------------------------------------------------------------------
    def _require_writable(self) -> None:
        if not self.writable:
            raise PermissionError(
                "this store was opened writable=False (shared, read-only "
                "components); reopen with repro.open(url) to mutate it")

    def _normalize_keys(self, keys: KeysLike) -> Dict[str, np.ndarray]:
        return normalize_keys(keys, self.key_names)

    def _normalize_rows(self, rows: RowsLike) -> Dict[str, np.ndarray]:
        return normalize_rows(rows, self.key_names, self.value_names)

    def _flatten_or_rebuild_domain(self, columns: Dict[str, np.ndarray]) -> np.ndarray:
        """Flatten new keys; widen the key domain via rebuild if needed."""
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
        # All rows (including the new ones) are now inside the structure;
        # signal the caller that no further per-row handling is needed.
        raise _DomainRebuilt()

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


def _unsupported_layout(found: str,
                        last_reader: str = "b054dba") -> ValueError:
    return ValueError(
        "this payload does not hold a DeepMapping store in the one layout "
        f"this version reads: {found}. If it is a store saved by an older "
        f"version, open and re-save it at commit {last_reader}, the last "
        "one that reads that layout.")


class _DomainRebuilt(Exception):
    """Internal control flow: insert triggered a full domain rebuild."""
