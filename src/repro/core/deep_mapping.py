"""The parts of the DeepMapping hybrid structure (paper Sec. IV).

A DeepMapping couples four artifacts:

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

``M``, the key encodings and ``f_decode`` are one
:class:`~repro.core.model.Model`, fit once per table (the only place
anything trains).  The store that owns them —
:class:`repro.DeepMapping`, in :mod:`repro.shard.store` — keeps one
``V_exist`` over the model's whole key domain and splits ``T_aux``
across shards (:class:`Shard`) by key.

This module owns key/row normalisation, the one flatten and model pass
of a write batch (:func:`encode_insert` / :func:`encode_update`), the
size accounting, and :class:`Shard`.  One batched lookup lives in
:mod:`repro.core.plan`; the payloads and their opens live in
:mod:`repro.core.persistence`.

There is one predictor, the compiled kernel: it serves every lookup
(:class:`~repro.core.plan.LookupPlan`), and its ``lost_rows`` alone
decides what ``T_aux`` holds — in the fit's Eq. 1 pricing and build, on
every insert and update, and in MHAS.  The paper-literal Algorithm 1
survives only as the bit-exact parity oracle
:func:`repro.testing.oracles.reference_lookup`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple, Union

import numpy as np

from ..data.table import ColumnTable
from ..storage.buffer_pool import BufferPool
from ..storage.stats import StoreStats
from .aux_table import AuxiliaryTable
from .model import Model, require_unique
from .plan import LookupPlan

__all__ = ["Shard", "SizeReport", "normalize_keys", "normalize_rows",
           "with_rows", "encode_insert", "encode_update", "new_aux"]

KeysLike = Union[Dict[str, np.ndarray], ColumnTable, np.ndarray, list]
RowsLike = Union[Dict[str, np.ndarray], ColumnTable]


def normalize_keys(keys: KeysLike, key_names: Tuple[str, ...]) -> Dict[str, np.ndarray]:
    """Coerce any accepted key shape to a name->array dict.

    Every read and write entry point accepts the same inputs: a
    ColumnTable, a dict of columns, a flat array for a
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
    ``live`` (the store's existence mask over flat keys) holds, raises
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
    """Storage breakdown of a store (paper Fig. 6 / Eq. 1)."""

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


def new_aux(model: Model, pool: Optional[BufferPool] = None,
            stats: Optional[StoreStats] = None) -> AuxiliaryTable:
    """An empty ``T_aux`` for ``model``'s tasks, laid out (codec,
    partition size, compaction) by its build config."""
    config = model.config
    return AuxiliaryTable(
        tasks=model.fdecode.columns,
        codec=config.aux_codec,
        target_partition_bytes=config.aux_partition_bytes,
        pool=pool,
        stats=stats,
        auto_compact_rows=config.aux_auto_compact_rows,
    )


class Shard:
    """The ``T_aux`` rows of one key range of a store, under the store's
    one model.

    ``model`` and ``exist`` are the store's objects, not copies: the
    store owns, trains, counts and saves them, and flips the index's
    bits for every write; a shard only holds the rows its keys lose
    (:meth:`hold`, :meth:`apply_update`) and answers its window of a
    request's one plan (:meth:`probe`, its only read call).  ``n_rows``
    is the live keys of its slice, kept from the bits the store flips
    for it.
    """

    def __init__(self, model: Model, aux: AuxiliaryTable, exist,
                 stats: StoreStats, n_rows: int):
        self.model = model
        self.aux = aux
        self.exist = exist
        self.stats = stats
        self.n_rows = n_rows

    @classmethod
    def materialize(cls, model: Model, exist, keys: np.ndarray,
                    codes: Dict[str, np.ndarray], n_rows: int,
                    pool: Optional[BufferPool] = None,
                    stats: Optional[StoreStats] = None) -> "Shard":
        """The one shard constructor: ``T_aux`` of the rows ``keys``
        (flat) with label ``codes``, the ones ``model`` loses among the
        slice's ``n_rows`` live keys of ``exist`` (the store's index) —
        from :meth:`Model.encode <repro.core.model.Model.encode>` on a
        build or insert, from other shards' ``T_aux`` on a split or
        merge.  Nothing trains or runs the kernel."""
        stats = stats if stats is not None else StoreStats()
        aux = new_aux(model, pool, stats)
        aux.build(keys, codes)
        return cls(model, aux, exist, stats, int(n_rows))

    def __len__(self) -> int:
        """Live keys of this shard's slice."""
        return self.n_rows

    def plan_lookup(self, keys: KeysLike,
                    presorted: bool = False) -> LookupPlan:
        """Stage a batched lookup of ``keys`` against this shard alone.

        Returns the one-window case of the store's
        :class:`LookupPlan` — existence gate, sort, :meth:`probe`,
        gated inference, decode — whose stages the caller drives
        (``plan.execute()`` runs them in order).  Pass
        ``presorted=True`` only when the keys arrive in ascending
        flattened order (repeats allowed): the route stage then skips
        its sort.
        """
        return LookupPlan(self.model, self.exist, [self], (), normalize_keys(
            keys, self.model.key_codec.key_names), self.stats,
            presorted=presorted)

    def probe(self, flat: np.ndarray, hit: np.ndarray,
              labels: Dict[str, np.ndarray]) -> None:
        """``T_aux`` over ``flat``, this shard's window of a plan's
        distinct live codes (ascending), into the caller's arrays
        aligned with it: ``hit`` and one int64 label array per column
        (:meth:`AuxiliaryTable.probe
        <repro.core.aux_table.AuxiliaryTable.probe>`)."""
        self.aux.probe(flat, hit, labels)

    def hold(self, flat: np.ndarray, labels: Dict[str, np.ndarray],
             lost: np.ndarray) -> int:
        """Algorithm 3 on this shard's slice of an insert: put the
        ``lost`` rows (the model loses them) in ``T_aux``; returns how
        many that is."""
        if lost.any():
            self.aux.add_batch(flat[lost], {t: codes[lost]
                                            for t, codes in labels.items()})
        return int(lost.sum())

    def apply_update(self, flat: np.ndarray, labels: Dict[str, np.ndarray],
                     lost: np.ndarray) -> int:
        """Algorithm 5 on live rows: those the model now predicts
        correctly leave ``T_aux``; the ``lost`` ones are inserted or
        updated in place there (their count is returned)."""
        self.aux.update_batch(flat, labels, lost)
        return int(lost.sum())

    def __repr__(self) -> str:
        return f"Shard(rows={self.n_rows}, aux_rows={len(self.aux)})"
