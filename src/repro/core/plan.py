"""One batched lookup (paper Algorithm 1) and what it returns.

:class:`LookupPlan` runs one batch through a shard stage by stage (the
store's read path drives one per shard it routes to);
:class:`LookupResult` is what every ``lookup`` returns and :func:`blank`
what a miss reads.  It imports nothing from
:mod:`repro.core.deep_mapping`, which imports it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional

import numpy as np

__all__ = ["LookupPlan", "LookupResult", "blank"]


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


class LookupPlan:
    """One batched lookup (Algorithm 1), decomposed into explicit stages.

    The stages and their data dependencies::

        encode ──> existence ──> aux ──> inference ──> decode/scatter
        (ctor)      (V_exist)   (T_aux)  (compiled M)

    Splitting the lookup open buys three things the opaque call could
    not deliver:

    - **Shared sort order.** The auxiliary store wants sorted keys (one
      partition fault per batch).  A caller that already holds the keys
      sorted — the store's route stage sorts *once* for every shard —
      passes ``presorted=True`` and no stage ever sorts again; otherwise
      the plan sorts the surviving keys once and both the aux probe and
      the scatter reuse that order.
    - **Aux-gated inference.** ``T_aux`` overrides the model wherever it
      has a row, so running the model there is pure waste.  The plan
      probes ``T_aux`` first and runs inference only on keys that are
      live *and* not served from the auxiliary table.
    - **Streaming scatter.** :meth:`execute_into` writes the finished
      segment straight into caller-owned output arrays, so the store's
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
    batch via :meth:`~repro.core.deep_mapping.Shard.plan_lookup`.
    """

    __slots__ = ("shard", "flat", "in_domain", "presorted", "spread",
                 "found", "_hits", "_aux_hit", "_aux_codes", "_model_codes")

    def __init__(self, shard,
                 key_cols: Dict[str, np.ndarray],
                 presorted: bool = False):
        self.shard = shard
        #: Distinct position per input key, or None when every key is
        #: distinct (or the batch is unsorted, so runs are not adjacent).
        self.spread: Optional[np.ndarray] = None
        if presorted:
            key_cols, self.spread = _distinct_runs(key_cols)
        self.flat, self.in_domain = shard.model.key_codec.try_flatten(
            key_cols)
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
        m = self.shard
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
        m = self.shard
        hits = np.flatnonzero(self.found)
        if hits.size == 0:
            self._hits = hits
            self._aux_hit = np.zeros(0, dtype=bool)
            self._aux_codes = {t: np.zeros(0, dtype=np.int64)
                               for t in m.model.fdecode.columns}
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
        self._aux_codes = {t: codes[aux_hit]
                           for t, codes in aux_codes.items()}

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
        m = self.shard
        with m.stats.timing("inference"):
            rows = self.model_rows
            if rows.size:
                self._model_codes = m.model.compiled_session().run(
                    self.flat[rows])
            else:
                self._model_codes = {t: np.zeros(0, dtype=np.int64)
                                     for t in m.model.fdecode.columns}

    # -- stage 5: decode + assembly ------------------------------------
    def _decoded_task(self, task: str) -> np.ndarray:
        """This batch's decoded values for one task, per distinct key.

        The single decode implementation behind both :meth:`finish` and
        :meth:`execute_into` — the bit-identity-critical branch (the
        :func:`blank` a miss reads, model/aux overwrite order) lives
        here once.
        """
        enc = self.shard.model.fdecode.encoders[task]
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
        m = self.shard
        with m.stats.timing("decode"):
            values = {task: self._expand(self._decoded_task(task))
                      for task in m.model.fdecode.columns}
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
        m = self.shard
        found_out[dest] = self._expand(self.found)
        with m.stats.timing("decode"):
            for task in m.model.fdecode.columns:
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
