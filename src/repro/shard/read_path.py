"""The read path: one plan per request, one probe per touched shard.

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

A shard is the failure domain, and its probe is all that runs on it:
with no deadline and no hedger the probes run inline, each answering
into its window of the plan's arrays; otherwise they go through
:func:`fan_out`, the **one** completion-driven wait, where bundling and
hedging are policy rather than separate code paths.  There an attempt
probes into arrays of its own and returns them, and the calling thread
copies the first clean one in and writes every output array.  The
parity oracles (barrier merge, reference engine) live in
:mod:`repro.testing.oracles`; nothing here can select them.
"""

from __future__ import annotations

from concurrent.futures import ALL_COMPLETED, FIRST_COMPLETED
from concurrent.futures import wait as futures_wait
from time import monotonic
from typing import Dict, List, Tuple

import numpy as np

from ..core.deep_mapping import normalize_keys
from ..core.plan import LookupPlan, LookupResult
from ..resilience.errors import DeadlineExceeded
from ..resilience.partial import PartialResult
from ..storage.hydration import LazyShard

__all__ = ["lookup", "contains_batch", "fan_out"]


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

    def probe(job):
        ordinal, shard, *window = job
        if deadline is not None:
            deadline.check(f"shard {ordinal} lookup")
        shard.probe(*window)

    # An attempt a deadline may abandon or a hedge may race probes into
    # arrays of its own, returned to this thread, which copies the
    # first clean one in: one still running after ``fan_out`` returns
    # never touches the plan.  Otherwise a probe answers in place.
    isolated = deadline is not None or store.hedger is not None

    def attempt(job):
        ordinal, shard, flat, hit, labels = job
        own = np.zeros_like(hit), {t: np.zeros_like(column)
                                   for t, column in labels.items()}
        probe((ordinal, shard, flat, *own))
        return own

    def dispatch(probes):
        _prefetch(store, probes)
        results, errors = fan_out(probes, attempt if isolated else probe,
                                  store.executor, store.stats,
                                  deadline=deadline, hedger=store.hedger)
        if isolated:
            for ordinal, _, _, hit, labels in probes:
                if ordinal in results:
                    own_hit, own_labels = results[ordinal]
                    hit[:] = own_hit
                    for task, column in labels.items():
                        column[:] = own_labels[task]
        return errors

    errors = plan.run_aux(dispatch)
    if errors and store.sharding.on_shard_error == "raise":
        raise errors[min(errors)]  # deterministic: lowest failing ordinal
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


def _prefetch(store, probes) -> None:
    """Fire hydration for every cold lazy shard the batch probes before
    any probe runs, so remote downloads overlap on the workers.  The
    proxy's hydrate lock makes the race benign."""
    cold = [shard for _, shard, *_ in probes
            if isinstance(shard, LazyShard) and not shard.hydrated]
    if len(cold) > 1:
        for proxy in cold:
            store.executor.submit_job(proxy.hydrate)


def _run_unit(run_job, jobs, outcomes: list) -> None:
    """Run ``jobs`` back to back, appending what each returned or the
    exception it raised — ``outcomes`` doubles as the unit's progress."""
    for job in jobs:
        try:
            outcomes.append(run_job(job))
        except Exception as exc:
            outcomes.append(exc)


def fan_out(jobs, run_job, executor, stats, *, deadline=None, hedger=None
            ) -> Tuple[Dict[int, object], Dict[int, BaseException]]:
    """Run ``run_job`` over ``jobs`` (tuples led by the shard ordinal);
    returns ``(results, errors)``: what ``run_job`` returned per ordinal
    an attempt finished clean, and the exception per ordinal that failed
    or ran out of time.  A worker writes only its own attempt's outcome
    list, which is copied on this thread, so an attempt still running on
    return cannot touch a result.

    Dispatch rule: with no deadline and no hedger the jobs run
    **inline**, because only a job on another thread can be abandoned
    or raced.  A deadline alone makes the jobs ONE unit (per-job
    submission costs a thread wake-up per shard, which dominates
    sub-millisecond probes and lands on the healthy-path p50); a hedger
    makes one unit per job, the thing a backup races.
    """
    if not jobs:
        return {}, {}
    if deadline is None and hedger is None:
        results, errors = {}, {}
        for job in jobs:
            try:
                results[job[0]] = run_job(job)
            except Exception as exc:
                errors[job[0]] = exc
        return results, errors
    groups = [jobs] if hedger is None else [[job] for job in jobs]
    return _wait(groups, run_job, executor, stats, deadline, hedger)


class _Unit:
    """Jobs run back to back on one worker, and every attempt at them
    as ``(future, outcomes)`` pairs (the second is the hedge)."""

    __slots__ = ("jobs", "start", "attempts")

    def __init__(self, jobs):
        self.jobs, self.start, self.attempts = jobs, monotonic(), []

    def settle(self) -> Tuple[Dict[int, object], Dict[int, BaseException]]:
        """``(results, errors)`` by ordinal from what the attempts have
        reported so far: a job is done once any attempt finished it
        clean, failed when every attempt reported an error for it, and
        out of time otherwise.  Read on the dispatching thread only."""
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
        results: Dict[int, object] = {}
        errors: Dict[int, BaseException] = {}
        for i, (ordinal, *_) in enumerate(self.jobs):
            seen = [report[i] for report in reports if len(report) > i]
            clean = [outcome for outcome in seen
                     if not isinstance(outcome, BaseException)]
            if clean:
                results[ordinal] = clean[0]
            else:
                errors[ordinal] = (
                    seen[0] if len(seen) == len(reports)
                    else DeadlineExceeded(
                        f"shard {ordinal} lookup exceeded its deadline"))
        return results, errors


def _wait(groups, run_job, executor, stats, deadline, hedger):
    """The one completion-driven wait.  Every unit launches at once; the
    loop then sleeps until the next thing it could act on — a
    completion, the next hedge fire, or the deadline.  A unit still
    running past the hedger's adaptive delay (this batch's completed
    peers set the basis, the cross-batch EWMA seeds cold batches) earns
    ONE backup within the per-batch budget; the first clean attempt
    settles it (``resilience/hedging.py``).  A deadline expiry cancels
    what has not started and marks only the jobs no attempt finished."""
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
                continue  # the loser of a hedge: same answer, nothing new
            _, failed = unit.settle()
            if failed and not all(f.done() for f, _ in unit.attempts):
                continue  # another attempt may still finish it clean
            open_units.discard(unit)
            if hedger is not None and not failed:
                peers.append(now - unit.start)
                hedger.record(now - unit.start)
                if future is not unit.attempts[0][0]:
                    stats.bump("hedges_won", 1)
    for unit in open_units:  # out of time with attempts outstanding
        for future, _ in unit.attempts:
            future.cancel()
    results: Dict[int, object] = {}
    errors: Dict[int, BaseException] = {}
    for unit in units:
        done_ok, failed = unit.settle()
        results.update(done_ok)
        errors.update(failed)
    return results, errors
