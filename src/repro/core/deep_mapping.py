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

``M``, the key encodings and ``f_decode`` are one
:class:`~repro.core.model.Model`, fit once per table (the only place
anything trains); a DeepMapping is ``T_aux`` and ``V_exist`` under a
model (:meth:`DeepMapping.materialize`) — its own index over the whole
domain, or, as one shard of a store sharing one model, the store's one
index.

This module owns key/row normalisation, the build, the mutations and the
retrain rule.  One batched lookup lives in :mod:`repro.core.plan`; the
payload and its opens live in :mod:`repro.core.persistence`.

There is one predictor, the compiled kernel: it serves every lookup
(:class:`~repro.core.plan.LookupPlan`), and its ``lost_rows`` alone
decides what ``T_aux`` holds — in the fit's Eq. 1 pricing and build, on
every insert and update, and in MHAS.  The paper-literal Algorithm 1
survives only as the bit-exact parity oracle
:func:`repro.testing.oracles.reference_lookup`.
"""

from __future__ import annotations

from concurrent.futures import Future
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple, Union

import numpy as np

from ..data.table import ColumnTable
from ..nn.compiled import CompiledSession
from ..resilience.deadline import Deadline
from ..storage.buffer_pool import BufferPool
from ..storage.stats import StoreStats
from ..store.base import StoreBase
from .aux_table import AuxiliaryTable
from .config import DeepMappingConfig
from .exist_index import ExistenceIndex, cover, make_existence_index
from .model import Model, require_unique
from .modify import ModificationTracker, settle
from .plan import LookupPlan, LookupResult

__all__ = ["DeepMapping", "SizeReport", "normalize_keys", "normalize_rows",
           "with_rows", "encode_insert", "encode_update"]

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


def with_rows(content: ColumnTable, columns: Dict[str, np.ndarray],
              key_names: Tuple[str, ...]) -> ColumnTable:
    """``content`` plus the rows ``columns`` — what a retrain fits when
    an insert's keys widen the domain past what the model admits."""
    incoming = ColumnTable(columns, key=key_names)
    return content.concat(incoming) if content.n_rows else incoming


def encode_insert(model: Model, columns: Dict[str, np.ndarray],
                  live: Callable[[np.ndarray], np.ndarray]):
    """The one flatten and model pass of an insert batch whose keys
    ``model`` admits: ``(flat, labels, lost)`` (:meth:`Model.encode
    <repro.core.model.Model.encode>`), after the checks both owners make
    before anything changes — a key the batch repeats, or one that
    ``live`` (the owner's existence mask over flat keys) holds, raises
    ``ValueError``."""
    flat = model.key_codec.flatten(columns)
    require_unique(flat)
    already = int(live(flat).sum())
    if already:
        raise ValueError(f"{already} key(s) already exist; use update()")
    return model.encode(columns, flat)


def encode_update(model: Model, columns: Dict[str, np.ndarray],
                  live: Callable[[np.ndarray], np.ndarray]):
    """The one flatten and model pass of an update batch, as
    :func:`encode_insert`; a key that is not live raises ``KeyError``
    before anything changes."""
    flat, in_domain = model.key_codec.try_flatten(columns)
    missing = int((~(live(flat) & in_domain)).sum())
    if missing:
        raise KeyError(f"{missing} key(s) do not exist; use insert()")
    return model.encode(columns, flat)


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


class DeepMapping(StoreBase):
    """Learned, lossless, updateable key→value mapping.

    Build with :meth:`fit`; query with :meth:`lookup`; mutate with
    :meth:`insert` / :meth:`delete` / :meth:`update`; persist with
    :meth:`save` / :meth:`open`.
    """

    def __init__(
        self,
        model: Model,
        aux: AuxiliaryTable,
        exist: ExistenceIndex,
        stats: Optional[StoreStats] = None,
        tracker: Optional[ModificationTracker] = None,
        n_rows: Optional[int] = None,
    ):
        self.model = model
        self.aux = aux
        self.exist = exist
        self.stats = stats if stats is not None else StoreStats()
        #: Modified bytes since the last retrain, counted by this
        #: structure's own insert/delete/update (:func:`settle
        #: <repro.core.modify.settle>`).  ``None`` on a shard of a
        #: sharded store: the store owns the model, applies the shard's
        #: rows, counts and retrains, and the shard refuses to.
        self.tracker = tracker
        #: A shard's live keys, which its store counts from the bits it
        #: flips for the shard's rows: a shard's ``exist`` is its store's
        #: one index over every shard's keys.  ``None`` when ``exist`` is
        #: this structure's own, whose count it is.
        self.n_rows = n_rows
        #: False for structures opened via ``repro.open(...,
        #: writable=False)``: components may be shared with other opens
        #: of the same payload (and backed by read-only mmap views), so
        #: every mutating entry point refuses with ``PermissionError``.
        self.writable = True

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
        """Train a hybrid structure that losslessly represents ``table``:
        fit its model (:meth:`Model.fit <repro.core.model.Model.fit>`,
        which ``warm_start`` seeds), then materialize ``T_aux`` and
        ``V_exist`` over the whole key domain under it.

        ``pool`` may be shared with other structures (the sharded store
        shares one across shards): every auxiliary partition caches under
        a pool key of its own.
        """
        fit = Model.fit(table, config, warm_start=warm_start)
        mapping = cls.materialize(fit.model, fit.flat, fit.labels, fit.lost,
                                  pool=pool, stats=stats)
        mapping.tracker = ModificationTracker()
        return mapping

    @classmethod
    def materialize(
        cls,
        model: Model,
        flat: np.ndarray,
        labels: Dict[str, np.ndarray],
        lost: np.ndarray,
        exist=None,
        pool: Optional[BufferPool] = None,
        stats: Optional[StoreStats] = None,
    ) -> "DeepMapping":
        """``T_aux`` and ``V_exist`` of rows ``flat`` under ``model``, no
        training: ``labels`` are their codes, ``lost`` the rows the
        kernel loses (:meth:`Model.encode <repro.core.model.Model.encode>`
        computes both).  ``V_exist`` is a new index over the whole domain
        holding ``flat``, or ``exist``: a store's one index, whose owner
        sets the rows' bits, and then the structure is one shard of that
        store counting ``flat.size`` rows."""
        stats = stats if stats is not None else StoreStats()
        config = model.config
        tasks = model.fdecode.columns
        aux = AuxiliaryTable(
            tasks=tasks,
            codec=config.aux_codec,
            target_partition_bytes=config.aux_partition_bytes,
            pool=pool,
            stats=stats,
            auto_compact_rows=config.aux_auto_compact_rows,
        )
        aux.build(flat[lost], {t: labels[t][lost] for t in tasks})
        if exist is not None:
            return cls(model, aux, exist, stats=stats, n_rows=flat.size)
        exist = make_existence_index(model.key_codec.domain_size, flat.size)
        exist.set_batch(flat)
        return cls(model, aux, exist, stats=stats)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    #: The model's parts, read through: a retrain swaps the model.
    config = property(lambda self: self.model.config)
    key_codec = property(lambda self: self.model.key_codec)
    key_encoder = property(lambda self: self.model.key_encoder)
    session = property(lambda self: self.model.session)
    fdecode = property(lambda self: self.model.fdecode)

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
        return self.exist.count() if self.n_rows is None else self.n_rows

    def size_report(self) -> SizeReport:
        """Per-component storage breakdown (Fig. 6 / Eq. 1)."""
        return SizeReport(
            model_bytes=self.session.nbytes,
            aux_bytes=self.aux.stored_bytes(),
            exist_bytes=self.exist.stored_bytes(),
            decode_bytes=self.fdecode.nbytes,
            dataset_bytes=self.model.dataset_bytes,
            n_rows=len(self),
            n_in_aux=len(self.aux),
        )

    # ------------------------------------------------------------------
    # Lookup (paper Algorithm 1)
    # ------------------------------------------------------------------
    def compiled_session(self) -> CompiledSession:
        """The fused lookup kernel of the model (compiled once per model;
        a retrain swaps in a new model, and with it a new kernel)."""
        return self.model.compiled_session()

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

    def contains_batch(self, keys: KeysLike) -> np.ndarray:
        """Liveness test per key — no inference, just ``V_exist``.

        The cheap membership predicate behind lookup/delete/update; also
        used by the sharded facade to pre-validate mutation batches.
        """
        key_cols = normalize_keys(keys, self.key_names)
        flat, in_domain = self.key_codec.try_flatten(key_cols)
        return self.exist.test_batch(flat) & in_domain

    # ------------------------------------------------------------------
    # Async reads (on StoreBase's executor: serial until set_executor)
    # ------------------------------------------------------------------
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
        """Insert new key→value rows (Algorithm 3), then :func:`settle
        <repro.core.modify.settle>` the batch.  Keys the model does not
        admit (:meth:`Model.admits <repro.core.model.Model.admits>`)
        retrain the structure over its content and the batch instead
        (0 is returned); else the count of rows landed in ``T_aux``.  A
        key that exists or that the batch repeats raises ``ValueError``
        (:func:`encode_insert`) and nothing changes."""
        self._require_writable()
        columns = normalize_rows(rows, self.key_names, self.value_names)
        if not self.model.admits(columns):
            self._retrain(with_rows(self.to_table(), columns, self.key_names))
            return 0
        landed = self.apply_insert(*encode_insert(self.model, columns,
                                                  self.exist.test_batch))
        settle(self, columns)
        return landed

    def delete(self, keys: KeysLike) -> int:
        """Delete keys (Algorithm 4), then settle the batch; returns how
        many were live (absent keys are ignored: idempotent bit-clear)."""
        self._require_writable()
        key_cols = normalize_keys(keys, self.key_names)
        flat, in_domain = self.key_codec.try_flatten(key_cols)
        deleted = self.apply_delete(flat[in_domain])
        settle(self, key_cols)
        return deleted

    def update(self, rows: RowsLike) -> int:
        """Replace values of existing keys (Algorithm 5), then settle the
        batch.  Returns the number of rows materialized in ``T_aux``."""
        self._require_writable()
        columns = normalize_rows(rows, self.key_names, self.value_names)
        landed = self.apply_update(*encode_update(self.model, columns,
                                                  self.exist.test_batch))
        settle(self, columns)
        return landed

    # The row-level halves below: the owner validates the batch, flattens
    # it and runs the model once (:func:`encode_insert` /
    # :func:`encode_update`), then applies them; the owner counts and
    # retrains.  A sharded store flips the bits of its one index itself
    # and hands each shard's ``T_aux`` its slice (:meth:`hold`,
    # :meth:`apply_update`).
    def apply_insert(self, flat: np.ndarray, labels: Dict[str, np.ndarray],
                     lost: np.ndarray) -> int:
        """Algorithm 3 on new rows: set their existence bits and hold the
        ``lost`` ones (the model mispredicts them) in ``T_aux``; returns
        how many that is."""
        if flat.size:
            self.exist = cover(self.exist, int(flat.max()) + 1,
                               len(self) + flat.size)
        self.exist.set_batch(flat)
        return self.hold(flat, labels, lost)

    def apply_delete(self, flat: np.ndarray) -> int:
        """Algorithm 4: clear the existence bits and drop the aux rows of
        the live keys among ``flat``; returns how many there were."""
        targets = flat[self.exist.test_batch(flat)]
        self.aux.remove_batch(targets)
        return self.exist.clear_batch(targets)

    def apply_update(self, flat: np.ndarray, labels: Dict[str, np.ndarray],
                     lost: np.ndarray) -> int:
        """Algorithm 5 on live rows: those the model now predicts
        correctly leave ``T_aux``; the ``lost`` ones are inserted or
        updated in place there (their count is returned)."""
        if (~lost).any():
            self.aux.remove_batch(flat[~lost])
        return self.hold(flat, labels, lost)

    def hold(self, flat: np.ndarray, labels: Dict[str, np.ndarray],
             lost: np.ndarray) -> int:
        """Put the ``lost`` rows (the model loses them) in ``T_aux``."""
        if lost.any():
            self.aux.add_batch(flat[lost], {t: codes[lost]
                                            for t, codes in labels.items()})
        return int(lost.sum())

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
        future rebuilds (warm-start tensors transfer only where shapes
        still match).

        The rebuilt auxiliary table keeps this structure's buffer pool,
        and the retired table's cached partitions are purged from it.
        """
        self._require_writable()
        self._retrain(self.to_table(), config)

    def _retrain(self, table: ColumnTable,
                 config: Optional[DeepMappingConfig] = None) -> None:
        """Fit ``table`` (the content, plus rows the domain could not
        take), warm-started unless ``config`` says otherwise, and take
        over its model, ``T_aux`` and ``V_exist``; the tracker, executor,
        stats and flags belong to the logical store and stay."""
        config = config if config is not None else self.config
        warm = (self.session.state_arrays()
                if config.warm_start_rebuild and not config.use_search
                else None)
        fresh = DeepMapping.fit(table, config, pool=self.aux.pool,
                                stats=self.stats, warm_start=warm)
        self.aux.drop_storage()
        self.model, self.aux, self.exist = fresh.model, fresh.aux, fresh.exist
        self.tracker.mark_rebuilt()

    def _aux_rows(self) -> int:
        return len(self.aux)

    def to_table(self) -> ColumnTable:
        """Materialize the current logical content as a ColumnTable."""
        if self.n_rows is not None:
            raise PermissionError(
                "a shard reads its store's one V_exist, which holds every "
                "shard's keys: take the rows through the store")
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
        if self.tracker is None:
            raise PermissionError(
                "this is a shard of a sharded store, which owns its model: "
                "insert, delete, update and rebuild through the store")
        if not self.writable:
            raise PermissionError(
                "this store was opened writable=False (shared, read-only "
                "components); reopen with repro.open(url) to mutate it")

    def __repr__(self) -> str:
        return (
            f"DeepMapping(key={self.key_names}, values={list(self.value_names)}, "
            f"rows={len(self)}, aux_rows={len(self.aux)}, "
            f"bytes={self.storage_bytes()})"
        )
