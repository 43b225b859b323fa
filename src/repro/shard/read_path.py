"""The sharded read path: existence, route, allocate, dispatch, result.

:func:`lookup` (behind ``ShardedDeepMapping.lookup``, which documents the
contract) is one composition of named stages over one topology snapshot
— the names ``bench/tracing.py`` replays from outside.  The existence
stage tests the whole batch once against the store's one ``V_exist``;
only live keys are routed, and every other key counts in the
``pruned_keys`` counter.  The store, not its shards, decides what a
miss reads: the :func:`~repro.core.plan.blank` of the column's
:meth:`~repro.shard.ShardedDeepMapping.value_dtype`, and no output
dtype depends on which shards a batch touches.  Shard work is a
:class:`~repro.core.plan.LookupPlan` per owning shard that
scatters its finished segment straight into the batch's preallocated
output arrays; small unbounded dispatches run inline, everything else
goes through :func:`fan_out`, the **one** completion-driven wait, where
bundling and hedging are policy rather than separate code paths.  The
parity oracles (barrier merge, reference engine) live in
:mod:`repro.testing.oracles`; nothing here can select them.
"""

from __future__ import annotations

from concurrent.futures import ALL_COMPLETED, FIRST_COMPLETED
from concurrent.futures import wait as futures_wait
from time import monotonic
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.deep_mapping import normalize_keys
from ..core.plan import LookupResult, blank
from ..resilience.errors import DeadlineExceeded
from ..resilience.partial import PartialResult
from ..storage.hydration import LazyShard
from .router import RangeShardRouter

__all__ = ["lookup", "contains_batch", "fan_out"]

#: Fan-outs dispatching at most this many keys run inline instead of
#: through the executor: at that size the thread hand-off costs more
#: than the shard work itself.
_SERIAL_DISPATCH_MAX = 4096


def lookup(store, keys, *, deadline=None) -> LookupResult:
    """One sharded batch through every stage."""
    mode = store.sharding.on_shard_error
    key_cols = normalize_keys(keys, store.key_names)
    n = int(np.asarray(key_cols[store.key_names[0]]).size)
    # One topology snapshot per batch: every stage sees the same
    # (router, model, shards, exist) tuple, so a lifecycle swap can
    # never mispair cuts with ordinals, or an index with its model.  A
    # shard retired mid-batch keeps answering as it did (retiring only
    # purges its pool entries), but this does NOT license concurrent
    # mutation: the single-writer contract stands.
    router, model, shards, exist = store._topology
    if n == 0:
        return LookupResult(*_allocate(store, 0))
    if deadline is not None:
        deadline.check("sharded lookup")
    idx = _live(store, model, exist, key_cols)
    n_routed = n if idx is None else int(idx.size)
    if n_routed < n:
        store.stats.bump("pruned_keys", n - n_routed)
    if idx is None and router.n_shards == 1 and mode == "raise":
        # Nothing to compact, route, merge or isolate.  (Partial mode
        # still takes the generic path so a failure comes back marked,
        # not raised.)
        result = shards[0].lookup(key_cols)
        return LookupResult(
            found=result.found,
            values={c: result.values[c].astype(store.value_dtype(c),
                                               copy=False)
                    for c in store.value_names})
    jobs = []
    if n_routed:  # else no key is live: nothing to sort or dispatch
        jobs = _make_jobs(store, shards,
                          _route(store, router, key_cols, idx))
    found, values = _allocate(store, n)
    errors, stragglers = _dispatch(store, jobs, n_routed, found, values,
                                   deadline)
    return _result(n, jobs, found, values, errors, stragglers, mode)


def contains_batch(store, keys) -> np.ndarray:
    """Liveness per key: the existence stage alone."""
    _, model, _, exist = store._topology
    return _exists(model, exist, normalize_keys(keys, store.key_names))


def _exists(model, exist, key_cols) -> np.ndarray:
    """The batch flattened once and tested once against the store's
    index (a key outside the model's domain is not live)."""
    flat, in_domain = model.key_codec.try_flatten(key_cols)
    return exist.test_batch(flat) & in_domain


def _live(store, model, exist, key_cols) -> Optional[np.ndarray]:
    """The existence stage: the positions of the batch's live keys, or
    ``None`` when every key is live (nothing to compact).  Placement is
    a pure function of the key, so a key the store's index does not
    hold is in no shard, and nothing routes it."""
    with store.stats.timing("existence"):
        live = _exists(model, exist, key_cols)
    return None if live.all() else np.flatnonzero(live)


def _take(key_cols, idx) -> Dict[str, np.ndarray]:
    return {name: np.asarray(arr)[idx] for name, arr in key_cols.items()}


def _route(store, router, key_cols, idx=None):
    """Route + sort the batch (or its live keys ``idx``) in one
    pass: ``order`` permutes the ORIGINAL batch positions into (shard,
    key...) order — shard groups contiguous *and* each ascending in
    flattened-key order, so every aux probe rides the partition store's
    monotonic fast path and no later stage sorts again —
    ``bounds[s]:bounds[s+1]`` delimits shard ``s``'s group, and
    ``grouped`` holds the key columns permuted by ``order``."""
    with store.stats.timing("route"):
        if idx is not None:
            key_cols = _take(key_cols, idx)
        cols = [np.asarray(key_cols[name]) for name in store.key_names]
        if isinstance(router, RangeShardRouter) and len(cols) == 1:
            # Range routing on a single key: shard ordinal is monotone
            # in the key, so one plain sort both groups and orders, and
            # the group boundaries are the cuts' positions in the
            # sorted keys.
            leading = cols[0].astype(np.int64, copy=False)
            order = np.argsort(leading)
            grouped = {store.key_names[0]: leading[order]}
            inner = np.searchsorted(grouped[store.key_names[0]], router.cuts,
                                    side="left")
            bounds = np.concatenate(([0], inner, [leading.size]))
        else:
            shard_ids = router.route(key_cols)
            # lexsort: last key is primary — shard first, then key
            # columns in significance order, which is exactly ascending
            # flattened-key order inside each shard (the codec is
            # lexicographic).
            order = np.lexsort(tuple(np.asarray(c, dtype=np.int64)
                                     for c in reversed(cols)) + (shard_ids,))
            bounds = np.searchsorted(shard_ids[order],
                                     np.arange(router.n_shards + 1))
            grouped = _take(key_cols, order)
        return (order if idx is None else idx[order]), bounds, grouped


def _segments(shards, order, bounds, grouped):
    """``(ordinal, shard, key segment, destination rows)`` per non-empty
    routed group, in shard order."""
    edges = bounds.tolist()
    for ordinal, shard in enumerate(shards):
        start, stop = edges[ordinal], edges[ordinal + 1]
        if stop > start:
            yield (ordinal, shard,
                   {name: arr[start:stop] for name, arr in grouped.items()},
                   order[start:stop])


def _make_jobs(store, shards, routed):
    """One job per routed shard (a live key's shard is never empty)."""
    jobs = list(_segments(shards, *routed))
    # Prefetch: fire hydration for every cold lazy shard the batch routes
    # into before any plan runs, so remote downloads overlap on the
    # workers.  The proxy's hydrate lock makes the race benign.
    cold = [job[1] for job in jobs
            if isinstance(job[1], LazyShard) and not job[1].hydrated]
    if len(cold) > 1:
        for proxy in cold:
            store.executor.submit_job(proxy.hydrate)
    return jobs


def _allocate(store, n: int):
    """Output arrays for the batch, every row a miss until its shard
    scatters into it."""
    return np.zeros(n, dtype=bool), {c: blank(n, store.value_dtype(c))
                                     for c in store.value_names}


def _dispatch(store, jobs, n_routed: int, found, values, deadline):
    def run_job(job) -> None:
        ordinal, shard, segment, dest = job
        if deadline is not None:
            deadline.check(f"shard {ordinal} lookup")
        shard.plan_lookup(segment, presorted=True).execute_into(
            found, values, dest)

    return fan_out(jobs, run_job, store.executor, store.stats,
                   n_keys=n_routed, deadline=deadline, hedger=store.hedger)


def _run_unit(run_job, jobs, outcomes: list) -> None:
    """Run ``jobs`` back to back, appending ``None`` (clean) or the
    exception per job — ``outcomes`` doubles as the unit's progress."""
    for job in jobs:
        try:
            run_job(job)
            outcomes.append(None)
        except Exception as exc:
            outcomes.append(exc)


def fan_out(jobs, run_job, executor, stats, *, n_keys: int, deadline=None,
            hedger=None) -> Tuple[Dict[int, BaseException], bool]:
    """Run ``run_job`` over ``jobs`` (tuples led by the shard ordinal);
    returns the exception per failing ordinal, and whether an attempt
    may still be running (and writing) on return.

    Dispatch rule: with no deadline and no hedger, a dispatch of at most
    ``_SERIAL_DISPATCH_MAX`` keys — or a single job — runs **inline**.
    A deadline or a hedger always takes the executor lane, because only
    a job on another thread can be abandoned or raced: a small
    deadline-armed dispatch is ONE unit (per-shard submission costs a
    thread wake-up per shard, which dominates sub-millisecond jobs and
    lands on the healthy-path p50), anything else is one unit per job.
    """
    if not jobs:
        return {}, False
    small = n_keys <= _SERIAL_DISPATCH_MAX
    if deadline is None and hedger is None and (small or len(jobs) == 1):
        outcomes: list = []
        _run_unit(run_job, jobs, outcomes)
        return {job[0]: exc for job, exc in zip(jobs, outcomes)
                if exc is not None}, False
    groups = [jobs] if small and hedger is None else [[job] for job in jobs]
    return _wait(groups, run_job, executor, stats, deadline, hedger)


class _Unit:
    """Jobs run back to back on one worker, and every attempt at them
    as ``(future, outcomes)`` pairs (the second is the hedge)."""

    __slots__ = ("jobs", "start", "attempts")

    def __init__(self, jobs):
        self.jobs, self.start, self.attempts = jobs, monotonic(), []

    def errors(self) -> Dict[int, BaseException]:
        """``{ordinal: error}`` from what the attempts have reported so
        far: a job is fine once any attempt finished it clean, failed
        when every attempt reported an error for it, and out of time
        otherwise.  Read on the dispatching thread only — workers write
        nothing a result will carry."""
        reports = []
        for future, outcomes in self.attempts:
            report = list(outcomes)
            if future.done() and not future.cancelled() \
                    and future.exception() is not None:
                # Failed as a whole (the executor's dequeue gate): the
                # jobs it never reached share that failure.
                report += [future.exception()] * (len(self.jobs)
                                                  - len(report))
            reports.append(report)
        errors = {}
        for i, (ordinal, *_) in enumerate(self.jobs):
            seen = [report[i] for report in reports if len(report) > i]
            if all(outcome is not None for outcome in seen):
                errors[ordinal] = (
                    seen[0] if len(seen) == len(reports)
                    else DeadlineExceeded(
                        f"shard {ordinal} lookup exceeded its deadline"))
        return errors


def _wait(groups, run_job, executor, stats, deadline, hedger):
    """The one completion-driven wait.  Every unit launches at once; the
    loop then sleeps until the next thing it could act on — a
    completion, the next hedge fire, or the deadline (neither hedger
    nor deadline: one blocking wait).  A unit still running past the
    hedger's adaptive delay (this batch's completed peers set the
    basis, the cross-batch EWMA seeds cold batches) earns ONE backup
    within the per-batch budget; the first clean attempt settles it and
    the loser's identical writes are benign (``resilience/hedging.py``).
    A deadline expiry cancels what has not started and marks only the
    jobs no attempt finished."""
    owner = {}

    def launch(unit):
        outcomes: list = []
        future = executor.submit_job(_run_unit, run_job, unit.jobs, outcomes,
                                     deadline=deadline)
        unit.attempts.append((future, outcomes))
        owner[future] = unit
        return future

    units = [_Unit(jobs) for jobs in groups]
    pending = {launch(unit) for unit in units}
    open_units = set(units)
    budget = hedger.batch_budget(len(units)) if hedger is not None else 0
    peers: List[float] = []
    errors: Dict[int, BaseException] = {}
    while open_units and pending:
        timeout = None if deadline is None else deadline.remaining()
        if timeout is not None and timeout <= 0.0:
            break
        delay = hedger.hedge_delay_s(peers) if budget > 0 else None
        if delay is not None:
            now = monotonic()
            for unit in units:
                if unit in open_units and len(unit.attempts) == 1 \
                        and not unit.attempts[0][0].done():
                    fires_in = unit.start + delay - now
                    if fires_in > 0.0:
                        timeout = (fires_in if timeout is None
                                   else min(timeout, fires_in))
                    elif budget > 0:
                        pending.add(launch(unit))
                        budget -= 1
                        stats.bump("hedges_launched", 1)
        done, pending = futures_wait(
            pending, timeout=timeout, return_when=(
                FIRST_COMPLETED if hedger is not None else ALL_COMPLETED))
        now = monotonic()
        for future in done:
            unit = owner[future]
            if unit not in open_units:
                continue  # the loser of a hedge: same bytes, nothing new
            failed = unit.errors()
            if failed and not all(f.done() for f, _ in unit.attempts):
                continue  # another attempt may still finish it clean
            open_units.discard(unit)
            errors.update(failed)
            if hedger is not None and not failed:
                peers.append(now - unit.start)
                hedger.record(now - unit.start)
                if future is not unit.attempts[0][0]:
                    stats.bump("hedges_won", 1)
    for unit in open_units:  # out of time with attempts outstanding
        for future, _ in unit.attempts:
            future.cancel()
        errors.update(unit.errors())
    return errors, any(not future.done() for future in owner)


def _result(n: int, jobs, found, values, errors, stragglers: bool,
            mode: str) -> LookupResult:
    if not errors:
        return LookupResult(found=found, values=values)
    if mode == "raise":
        raise errors[min(errors)]  # deterministic: lowest failing ordinal
    failed = np.zeros(n, dtype=bool)
    for ordinal, _, _, dest in jobs:
        if ordinal in errors:
            failed[dest] = True
    if stragglers:
        # A timed-out job holds references to these arrays and may
        # scatter into them after we return; hand the caller private
        # copies so the result is immutable from here on.
        found = found.copy()
        values = {c: arr.copy() for c, arr in values.items()}
    # A failing job may have scattered part of its segment before
    # dying; force its keys back to misses so found/values agree.
    found[failed] = False
    for column in values.values():
        column[failed] = blank(1, column.dtype)[0]
    return PartialResult(found=found, values=values, failed_mask=failed,
                         shard_errors=errors)
