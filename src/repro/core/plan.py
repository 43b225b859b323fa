"""One batched lookup (paper Algorithm 1) and what it returns.

:class:`LookupPlan` runs one batch through every stage once over a
store's ``(model, exist, shards, cuts)``: the store's read path builds
one per request, and :meth:`~repro.core.deep_mapping.Shard.plan_lookup`
is its one-shard case.  :class:`LookupResult` is what every ``lookup``
returns and :func:`blank` what a miss reads.  It imports nothing from
:mod:`repro.core.deep_mapping`, which imports it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence

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

    The stages, each run once per batch whatever the shard count::

        encode ──> existence ──> route ──> aux ──> inference ──> decode
        (ctor)      (V_exist)    (sort)   (T_aux)  (compiled M)

    - **Encode / existence.** The batch is flattened once and tested
      once against the store's one ``V_exist``; a key outside the
      model's domain is not live.
    - **Route.** The live keys' flat codes are sorted once (unless the
      caller passes them ``presorted``), and one adjacent-inequality
      pass keeps each distinct code once — live codes are exact, so
      equal codes are equal keys.  The sorted run is cut at ``cuts``,
      the router's cuts as flat codes: the codec is lexicographic, so
      each shard's keys are one contiguous window.
    - **Aux.** Each window probes its shard's ``T_aux``
      (:meth:`~repro.core.deep_mapping.Shard.probe`, the one per-shard
      read call) in ascending order, so each partition faults at most
      once, straight into the window's slices of the plan's hit and
      label arrays, on the calling thread.  With ``isolate`` a window
      whose probe fails is its shard's failure alone — its keys come
      back failed, every other key is answered.
    - **Inference.** ``T_aux`` overrides the model wherever it has a
      row, so the kernel runs once, on the live codes with no override
      and a healthy window (:attr:`model_rows`).
    - **Decode.** One decode per column over the distinct codes, then
      one scatter back to every input position, repeats included.

    Results are bit-identical to Algorithm 1 as written
    (:func:`repro.testing.oracles.reference_lookup`): gating only skips
    predictions that were about to be overwritten, misses read the same
    :func:`blank`, and stage order never changes any per-key answer.
    Plans are single-use and not thread-safe.
    """

    __slots__ = ("model", "exist", "shards", "cuts", "stats", "presorted",
                 "flat", "in_domain", "found", "failed", "errors", "_codes",
                 "_dest", "_rank", "_edges", "_aux_hit", "_failed_codes",
                 "_labels")

    def __init__(self, model, exist, shards: Sequence, cuts,
                 key_cols: Dict[str, np.ndarray], stats,
                 presorted: bool = False):
        self.model, self.exist, self.stats = model, exist, stats
        self.shards, self.cuts, self.presorted = shards, cuts, presorted
        self.flat, self.in_domain = model.key_codec.try_flatten(key_cols)
        #: Per input key: live (after existence), minus failed windows
        #: (after aux).
        self.found: Optional[np.ndarray] = None
        #: Per input key: its window's probe failed (None: none failed).
        self.failed: Optional[np.ndarray] = None
        #: ``{ordinal: exception}`` of the windows whose probe failed.
        self.errors: Dict[int, BaseException] = {}
        self._codes: Optional[np.ndarray] = None   # sorted distinct live
        self._dest = None       # input position of each sorted live key
        self._rank: Optional[np.ndarray] = None    # its distinct position
        self._edges: Optional[List[int]] = None    # window bounds per shard
        self._aux_hit: Optional[np.ndarray] = None
        self._failed_codes: Optional[np.ndarray] = None
        self._labels: Optional[Dict[str, np.ndarray]] = None

    def __len__(self) -> int:
        """Keys given, repeats included."""
        return int(self.flat.size)

    # -- existence gate ------------------------------------------------
    def run_existence(self) -> np.ndarray:
        """Mask the batch through ``V_exist`` (and the key domain)."""
        with self.stats.timing("existence"):
            self.found = self.exist.test_batch(self.flat) & self.in_domain
        return self.found

    # -- route ---------------------------------------------------------
    def run_route(self) -> None:
        """Sort the live codes once, keep each distinct one once, and cut
        the run into one window per shard."""
        with self.stats.timing("route"):
            live = None if self.found.all() else np.flatnonzero(self.found)
            flat = self.flat if live is None else self.flat[live]
            order = None if self.presorted else np.argsort(flat)
            run = flat if order is None else flat[order]
            if order is None:
                self._dest = slice(None) if live is None else live
            else:
                self._dest = order if live is None else live[order]
            self._codes = run
            step = run[1:] != run[:-1]
            if not step.all():
                first = np.concatenate(([True], step))
                self._codes, self._rank = run[first], np.cumsum(first) - 1
            inner = self._codes.searchsorted(self.cuts).tolist()
            self._edges = [0, *inner, int(self._codes.size)]

    # -- auxiliary table -----------------------------------------------
    def run_aux(self, deadline=None, *, isolate: bool = False
                ) -> Dict[int, BaseException]:
        """Probe each window's ``T_aux`` on this thread, in ordinal order
        (routing first if :meth:`run_route` has not run); returns the
        failed windows.

        The hit and label arrays are allocated here, once, and each probe
        answers into its window's slices of them.  ``deadline`` (a
        :class:`~repro.resilience.deadline.Deadline`) is checked before
        each probe.  By default the first failure — a probe's exception
        or a failed check — raises; with ``isolate`` it becomes that
        window's error and the next window is probed, so once the
        deadline has passed, that window and every later one fail with
        ``DeadlineExceeded``.
        """
        if self._edges is None:
            self.run_route()
        codes, edges = self._codes, self._edges
        self._aux_hit = hit = np.zeros(codes.size, dtype=bool)
        self._labels = labels = {t: np.zeros(codes.size, dtype=np.int64)
                                 for t in self.model.fdecode.columns}
        with self.stats.timing("aux"):
            for ordinal, (shard, lo, hi) in enumerate(
                    zip(self.shards, edges, edges[1:])):
                if hi == lo:
                    continue
                try:
                    if deadline is not None:
                        deadline.check(f"shard {ordinal} lookup")
                    shard.probe(codes[lo:hi], hit[lo:hi],
                                {t: column[lo:hi]
                                 for t, column in labels.items()})
                except Exception as exc:
                    if not isolate:
                        raise
                    self.errors[ordinal] = exc
        if self.errors:
            self._failed_codes = np.zeros(codes.size, dtype=bool)
            for ordinal in self.errors:
                window = slice(edges[ordinal], edges[ordinal + 1])
                self._failed_codes[window] = True
                self._aux_hit[window] = False  # what a failed probe wrote
            self.failed = np.zeros(len(self), dtype=bool)
            self.failed[self._dest] = self._spread(self._failed_codes)
            self.found = self.found & ~self.failed
        return self.errors

    @property
    def aux_rows(self) -> np.ndarray:
        """Distinct live positions served from ``T_aux``."""
        return np.flatnonzero(self._aux_hit)

    @property
    def model_rows(self) -> np.ndarray:
        """Distinct live positions served by model inference alone."""
        served = ~self._aux_hit
        if self._failed_codes is not None:
            served &= ~self._failed_codes
        return np.flatnonzero(served)

    # -- model inference -----------------------------------------------
    def run_inference(self) -> None:
        """Run the fused kernel once, on :attr:`model_rows` only."""
        with self.stats.timing("inference"):
            rows = self.model_rows
            if rows.size:
                codes = self.model.compiled_session().run(self._codes[rows])
                for task, labels in self._labels.items():
                    labels[rows] = codes[task]

    # -- decode + scatter ----------------------------------------------
    def _spread(self, per_code: np.ndarray) -> np.ndarray:
        """One entry per distinct code to one per sorted live key."""
        return per_code if self._rank is None else per_code[self._rank]

    def finish(self, dtypes: Optional[Dict[str, object]] = None
               ) -> LookupResult:
        """Decode each column once and scatter it to every input key.

        ``dtypes`` names each column's output dtype (default: its
        vocabulary's); a miss and a failed key read its :func:`blank`.
        """
        with self.stats.timing("decode"):
            values = {}
            for task in self.model.fdecode.columns:
                enc = self.model.fdecode.encoders[task]
                out = blank(len(self), enc.vocab.dtype if dtypes is None
                            else dtypes[task])
                if self._codes.size:
                    out[self._dest] = self._spread(
                        enc.decode(self._labels[task]))
                    if self.failed is not None:
                        out[self.failed] = blank(1, out.dtype)[0]
                values[task] = out
        return LookupResult(found=self.found, values=values)

    def execute(self) -> LookupResult:
        """Run every stage in order — the serial lookup."""
        self.run_existence()
        self.run_route()
        self.run_aux()
        self.run_inference()
        return self.finish()
