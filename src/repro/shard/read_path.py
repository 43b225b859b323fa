"""The read path: one plan per request, on the calling thread.

:func:`lookup` (behind ``DeepMapping.lookup``, which documents the
contract) runs one :class:`~repro.core.plan.LookupPlan` over one
topology snapshot: the batch is flattened and tested once against the
store's one ``V_exist`` (every other key counts in the ``pruned_keys``
counter), its live codes are sorted and deduplicated once and cut at the
router's cuts, each touched shard probes its ``T_aux`` window
(:meth:`~repro.core.deep_mapping.Shard.probe`), the kernel runs once and
each column decodes and scatters once.  The store, not its shards,
decides what a miss reads: the :func:`~repro.core.plan.blank` of the
column's :meth:`~repro.shard.DeepMapping.value_dtype`, and no output
dtype depends on which shards a batch touches.

Every stage runs on the calling thread, deadline or not — the paper's
Algorithm 1 is one sequential pass, and a hydrated probe takes
microseconds.  A shard is the failure domain: in ``"partial"`` mode a
probe's failure is its window's alone.  A deadline is checked between
stages and before each probe, and is bound in
:data:`~repro.resilience.deadline.read_deadline` for the plan's
duration, so the only steps that can block for long — a cold remote
shard's range GETs — spend only what is left of it, and a store with
hedged reads re-issues a stalled GET (``storage/remote.py``).  The
parity oracles (barrier merge, reference engine) live in
:mod:`repro.testing.oracles`; nothing here can select them.
"""

from __future__ import annotations

import contextvars
import threading
from collections import deque

import numpy as np

from ..core.deep_mapping import normalize_keys
from ..core.plan import LookupPlan, LookupResult
from ..resilience.deadline import read_deadline
from ..resilience.hedging import read_hedges
from ..resilience.partial import PartialResult
from ..storage.hydration import LazyShard

__all__ = ["lookup", "contains_batch"]


def lookup(store, keys, *, deadline=None) -> LookupResult:
    """One batch through every stage."""
    # One topology snapshot per batch: every stage sees the same
    # (router, model, shards, exist) tuple, so a lifecycle swap can
    # never mispair cuts with ordinals, or an index with its model.  A
    # shard retired mid-batch keeps answering as it did (retiring only
    # purges its pool entries), but this does NOT license concurrent
    # mutation: the single-writer contract stands.
    _, model, shards, exist, cut_codes = store._topology
    plan = LookupPlan(model, exist, shards, cut_codes,
                      normalize_keys(keys, store.key_names), store.stats)
    n = len(plan)
    if n and deadline is not None:
        deadline.check("store lookup")
    n_live = int(np.count_nonzero(plan.run_existence()))
    if n_live < n:
        store.stats.bump("pruned_keys", n - n_live)
    plan.run_route()
    partial = store.sharding.on_shard_error == "partial"
    bound = read_deadline.set(deadline), read_hedges.set([0, 0])
    try:
        _prefetch(plan)
        errors = plan.run_aux(deadline, isolate=partial)
    finally:
        read_deadline.reset(bound[0])
        read_hedges.reset(bound[1])
    if deadline is not None and not partial:
        deadline.check("store lookup")
    plan.run_inference()
    result = plan.finish({c: store.value_dtype(c) for c in store.value_names})
    if not errors:
        return result
    return PartialResult(found=result.found, values=result.values,
                         failed_mask=plan.failed, shard_errors=errors)


def contains_batch(store, keys) -> np.ndarray:
    """Liveness per key: the existence stage alone."""
    _, model, _, exist, _ = store._topology
    return LookupPlan(model, exist, (), (),
                      normalize_keys(keys, store.key_names),
                      store.stats).run_existence()


#: At most this many threads download one read's cold shards at once.
_DOWNLOADS = 8


def _prefetch(plan) -> None:
    """Start downloading every cold lazy shard the batch touches but the
    first before any probe runs, on up to :data:`_DOWNLOADS` short-lived
    threads of the read's own: the calling thread hydrates the first as
    it probes, and waits on the proxy's hydrate lock for a download it
    reaches first.  Each thread runs in a copy of this context, so its
    GETs spend what is left of the read's deadline.  Nothing waits on
    them: a failed download is the probe's to report, which hydrates
    again."""
    edges = plan._edges
    cold = deque(shard for shard, lo, hi
                 in zip(plan.shards, edges, edges[1:])
                 if hi > lo and isinstance(shard, LazyShard)
                 and not shard.hydrated)
    if cold:
        cold.popleft()

    def download():
        while cold:
            try:
                cold.popleft().hydrate()
            except Exception:  # emptied by a peer, or the probe's to report
                pass

    for _ in range(min(len(cold), _DOWNLOADS)):
        threading.Thread(target=contextvars.copy_context().run,
                         args=(download,), name="repro-download",
                         daemon=True).start()
