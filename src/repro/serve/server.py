"""Asyncio front end: admit tiny lookups, flush fused batches.

:class:`LookupServer` is the serving tier over one shared store (any
:class:`~repro.store.protocol.DataStore`, typically
``repro.open(url, writable=False)``).  Many concurrent ``await
server.lookup(keys)`` calls are coalesced by the
:class:`~repro.serve.batcher.Batcher` under the
:class:`~repro.serve.policy.AdmissionPolicy` triggers, executed as *one*
store lookup per flush on one executor worker (``store.lookup_async``,
which runs the whole plan on that thread, so the event loop never
blocks on kernels), and scattered back to each awaiting future
bit-identically.

Failure containment, in order of distance from the caller:

- malformed keys (wrong dtype/shape/columns) raise at admission, inside
  the caller's own ``await`` — the forming batch never sees them;
- a merged store call that fails does **not** fail its batchmates: the
  flush falls back to per-request isolation, so only requests that fail
  on their own keys see the error (``stats.batch_fallbacks`` counts
  these);
- :meth:`LookupServer.aclose` cancels queued requests (callers get
  ``CancelledError``), refuses new admissions (``RuntimeError``), and
  drains in-flight batches — never a hang.

:class:`Client` wraps a server (plus a dedicated event-loop thread) in a
synchronous handle, so tests, benchmarks, and embedding applications use
the coalescing tier without writing any asyncio.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Dict, Optional

from ..core.plan import LookupResult
from ..resilience.deadline import Deadline, default_timeout
from ..resilience.errors import DeadlineExceeded
from .batcher import (Batcher, PendingRequest, QueueFullError,
                      merge_requests, normalize_request_keys,
                      scatter_result)
from .policy import AdmissionPolicy
from .shedding import LoadShedder, ServerDrainingError, ServerOverloadedError
from .stats import ServeStats

__all__ = ["LookupServer", "Client"]

DEFAULT_TENANT = "default"

#: Store-stats counters bracketed around each fused call to surface
#: remote lazy-hydration activity in :class:`ServeStats` (all absent /
#: zero-delta for local opens).
_HYDRATION_KEYS = ("range_requests", "hydrated_bytes", "hydration_waits")

#: Store-stats counters bracketed the same way to surface hedged range
#: GETs (remote stores with ``hedged_reads=True`` only).
_HEDGE_KEYS = ("hedges_launched", "hedges_won")


class LookupServer:
    """Coalescing lookup service over one shared read store.

    Single-loop confined: every method except ``stats`` must run on the
    event loop the server bound at first use (the :class:`Client` and
    the TCP transport arrange this).  The server never polls — it arms
    exactly one timer per forming batch and none while idle.
    """

    def __init__(self, store, policy: Optional[AdmissionPolicy] = None,
                 stats: Optional[ServeStats] = None,
                 shedder: Optional[LoadShedder] = None):
        self.store = store
        self.policy = policy or AdmissionPolicy()
        self.stats = stats or ServeStats()
        #: Optional :class:`~repro.serve.shedding.LoadShedder`; when set,
        #: admission consults it *before* a request takes a queue slot.
        self.shedder = shedder
        self._batcher = Batcher(self.policy)
        self._key_names = tuple(store.key_names)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._timer: Optional[asyncio.TimerHandle] = None
        self._inflight: set = set()
        self._inflight_keys = 0
        self._closed = False
        self._draining = False

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    async def lookup(self, keys, tenant: str = DEFAULT_TENANT,
                     deadline_ms: Optional[float] = None) -> LookupResult:
        """Admit one request; resolves when its batch has been served.

        Results are bit-identical to ``store.lookup(keys)`` — same
        ``found`` mask, same value arrays, input order preserved.

        ``deadline_ms`` caps this request's total time in the tier —
        queueing included.  An urgent waiter pulls its batch's flush
        earlier than the policy delay when needed, the fused store call
        never waits past the batch's earliest deadline, and a request
        whose budget runs out fails alone with
        :class:`~repro.resilience.DeadlineExceeded` — its batchmates
        are unaffected.
        """
        loop = asyncio.get_running_loop()
        self._bind(loop)
        if self._closed:
            raise RuntimeError("lookup server is closed")
        if self._draining:
            self.stats.record_reject(tenant)
            raise ServerDrainingError(
                "lookup server is draining; route to another instance")
        try:
            key_cols = normalize_request_keys(keys, self._key_names)
            deadline = self._admission_deadline(deadline_ms, loop)
        except (TypeError, ValueError, KeyError):
            self.stats.record_reject(tenant)
            raise
        n_keys = int(next(iter(key_cols.values())).size)
        if self.shedder is not None:
            # Shed *before* taking a queue slot: backlog = queued keys
            # plus the batches already executing; over-fair-share
            # tenants shed first (the soft tier of the ladder).
            retry_after = self.shedder.admit(
                n_keys, self._batcher.pending_keys + self._inflight_keys,
                self._batcher.over_fair_share(tenant, n_keys))
            if retry_after is not None:
                self.stats.record_shed(tenant)
                raise ServerOverloadedError(
                    f"server overloaded ({self.shedder.level}); retry in "
                    f"{retry_after * 1000:.0f} ms",
                    retry_after_s=retry_after)
        future: asyncio.Future = loop.create_future()
        request = PendingRequest(key_cols, tenant, future, loop.time(),
                                 deadline=deadline)
        try:
            trigger = self._batcher.add(request)
        except QueueFullError:
            # Before rejecting, evict queued waiters whose deadline has
            # already passed — a dead waiter must not hold a slot
            # against live admissions — and retry exactly once.
            evicted = self._batcher.evict_expired()
            for dead in evicted:
                self._expire(dead, "while queued")
            if not evicted:
                self.stats.record_reject(tenant)
                raise
            try:
                trigger = self._batcher.add(request)
            except QueueFullError:
                self.stats.record_reject(tenant)
                raise
        self.stats.record_admit(tenant, request.n_keys)
        if trigger is not None:
            self._flush(trigger)
        else:
            self._arm_timer(loop)
        return await future

    @staticmethod
    def _admission_deadline(deadline_ms, loop) -> Optional[Deadline]:
        if deadline_ms is None:
            return None
        budget = float(deadline_ms)
        if budget <= 0:
            raise ValueError(
                f"deadline_ms must be positive, got {deadline_ms!r}")
        # The loop clock, so batcher timers and expiry agree on "now".
        return Deadline(budget / 1000.0, clock=loop.time)

    def _arm_timer(self, loop) -> None:
        """Arm (or pull forward) the one delay-trigger timer.

        The batcher's flush point only ever moves *earlier* (an urgent
        waiter joining), so a timer already set to fire at or before the
        current deadline stays; otherwise it is replaced.
        """
        due = self._batcher.deadline()
        if due is None:
            return
        if self._timer is not None:
            if self._timer.when() <= due:
                return
            self._timer.cancel()
        self._timer = loop.call_at(due, self._on_timer)

    def _bind(self, loop: asyncio.AbstractEventLoop) -> None:
        if self._loop is None:
            self._loop = loop
            # The batcher's deadlines must be on the loop's clock so
            # call_at() and due() agree on "now".
            self._batcher.clock = loop.time
        elif self._loop is not loop:
            raise RuntimeError("LookupServer is bound to another event loop")

    # ------------------------------------------------------------------
    # Flush path
    # ------------------------------------------------------------------
    def _on_timer(self) -> None:
        """Delay trigger fired: fewer callers arrived than expected (or
        the expectation is still unknown) — flush whatever has formed."""
        self._timer = None
        self.stats.record_wakeup()
        if len(self._batcher):
            self._flush("delay")

    def _flush(self, trigger: str) -> None:
        """Drain the forming batch into one in-flight execution task.

        ``trigger`` names why for :attr:`ServeStats.flushes` (``size`` /
        ``arrival`` / ``delay`` / ``drain``).  Under overload the
        batcher's deficit-round-robin drain may leave requests queued
        (they did not fit this batch's key budget); the timer is
        re-armed for them so they ride the next flush.
        """
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        batch = self._batcher.take()
        if not batch:
            return
        self.stats.record_flush(trigger)
        batch_keys = sum(r.n_keys for r in batch)
        self._inflight_keys += batch_keys
        task = self._loop.create_task(self._execute(batch))
        self._inflight.add(task)

        def _settle(t, keys=batch_keys):
            self._inflight.discard(t)
            self._inflight_keys = max(0, self._inflight_keys - keys)

        task.add_done_callback(_settle)
        if len(self._batcher):
            self._arm_timer(self._loop)

    def _expire(self, request, where: str) -> None:
        """Fail one request whose budget ran out (alone, typed)."""
        if not request.future.done():
            request.future.set_exception(DeadlineExceeded(
                f"request deadline exceeded {where}"))
        self.stats.record_expired(request.tenant)

    def _prune_expired(self, batch, where: str) -> list:
        """Drop already-expired waiters from ``batch``; fail them alone."""
        live = []
        for request in batch:
            if request.deadline is not None and request.deadline.expired:
                self._expire(request, where)
            else:
                live.append(request)
        return live

    async def _execute(self, batch) -> None:
        """Serve one drained batch, then settle it with the batcher."""
        try:
            await self._serve_batch(batch)
        finally:
            # Before this task yields, i.e. before the callers it just
            # answered resume: one that re-admits at once must not count
            # its own finished request as in flight.
            self._batcher.settle(len(batch))

    async def _serve_batch(self, batch) -> None:
        # A waiter can expire while its batch forms (urgent deadline,
        # size trigger never fired, store busy): fail it alone before
        # spending a store call on its keys.
        batch = self._prune_expired(batch, "while queued")
        if not batch:
            return
        unique_cols, inverse, slices = merge_requests(self._key_names, batch)
        n_unique = int(next(iter(unique_cols.values())).size)
        n_keys = slices[-1][1] if slices else 0
        self.stats.record_batch(len(batch), n_keys, n_unique)
        deadline = Deadline.earliest(
            r.deadline for r in batch if r.deadline is not None)
        # The sharded store counts the misses its V_exist prunes in its
        # own stats; bracket the fused call so the tier can attribute this
        # batch's pruned keys to its tenants.  The delta is approximate
        # when batches overlap in flight — fine for telemetry.
        counters = getattr(getattr(self.store, "stats", None),
                           "counters", None)
        pruned_before = (counters.get("pruned_keys", 0)
                         if counters is not None else 0)
        hydration_before = (tuple(counters.get(k, 0)
                                  for k in _HYDRATION_KEYS)
                            if counters is not None else None)
        hedges_before = (tuple(counters.get(k, 0) for k in _HEDGE_KEYS)
                         if counters is not None else None)
        started = self._loop.time()
        try:
            # One executor worker runs the fused batch's plan off-loop.
            # The wait is bounded by the batch's most urgent waiter; the
            # store-level deadline stops the plan between stages and
            # cuts a remote store's fetches to what is left of it.
            future = asyncio.wrap_future(self.store.lookup_async(
                unique_cols, deadline=deadline))
            if deadline is not None:
                result = await asyncio.wait_for(future, deadline.timeout_or())
            else:
                result = await future
        except asyncio.CancelledError:
            self._fail_batch(batch, asyncio.CancelledError())
            raise
        except (DeadlineExceeded, asyncio.TimeoutError):
            # The most urgent waiter's budget ran out mid-call.  Only
            # *its* keys are forfeit: expired waiters fail alone and the
            # rest — whose budgets still have room — re-run individually
            # so one tight deadline never fails its batchmates.
            self.stats.record_fallback()
            await self._execute_individually(batch, "in the store call")
            return
        except Exception:
            # Poison containment: one request's keys (or a store hiccup)
            # must not fail the whole batch — re-run each request alone.
            self.stats.record_fallback()
            await self._execute_individually(batch)
            return
        if counters is not None:
            contributions: dict = {}
            for request in batch:
                contributions[request.tenant] = (
                    contributions.get(request.tenant, 0) + request.n_keys)
            self.stats.record_pruned(
                counters.get("pruned_keys", 0) - pruned_before,
                contributions)
            self.stats.record_hydration(
                *(counters.get(k, 0) - before
                  for k, before in zip(_HYDRATION_KEYS, hydration_before)))
            self.stats.record_hedges(
                *(counters.get(k, 0) - before
                  for k, before in zip(_HEDGE_KEYS, hedges_before)))
        now = self._loop.time()
        if self.shedder is not None and n_unique > 0:
            # Feed the service-rate EWMA from successful fused calls
            # only — failed/fallback batches would skew the rate with
            # timeout latencies the shedder exists to prevent.
            self.shedder.observe_batch(n_unique, max(1e-9, now - started))
        for request, (lo, hi) in zip(batch, slices):
            if request.future.done():
                continue
            request.future.set_result(
                scatter_result(result, inverse, lo, hi))
            self.stats.record_done(request.tenant, now - request.admitted_at)

    async def _execute_individually(self, batch,
                                    where: str = "in the store call") -> None:
        """Fallback: serve each request of a failed batch in isolation."""
        for request in batch:
            if request.future.done():
                continue
            if request.deadline is not None and request.deadline.expired:
                self._expire(request, where)
                continue
            try:
                future = asyncio.wrap_future(self.store.lookup_async(
                    request.key_cols, deadline=request.deadline))
                if request.deadline is not None:
                    result = await asyncio.wait_for(
                        future, request.deadline.timeout_or())
                else:
                    result = await future
            except asyncio.CancelledError:
                self._fail_batch(batch, asyncio.CancelledError())
                raise
            except (DeadlineExceeded, asyncio.TimeoutError):
                self._expire(request, where)
                continue
            except Exception as exc:
                request.future.set_exception(exc)
                self.stats.record_error(request.tenant)
                continue
            request.future.set_result(result)
            self.stats.record_done(
                request.tenant, self._loop.time() - request.admitted_at)

    @staticmethod
    def _fail_batch(batch, exc: BaseException) -> None:
        for request in batch:
            if not request.future.done():
                request.future.set_exception(exc)

    # ------------------------------------------------------------------
    # Introspection / shutdown
    # ------------------------------------------------------------------
    @property
    def idle(self) -> bool:
        """True when nothing is queued, armed, or in flight."""
        return (len(self._batcher) == 0 and self._timer is None
                and not self._inflight)

    @property
    def timer_armed(self) -> bool:
        """True while a delay-trigger wakeup is scheduled."""
        return self._timer is not None

    @property
    def health(self) -> Dict[str, object]:
        """Readiness/liveness snapshot for a fronting balancer.

        ``ready`` goes false the instant :meth:`drain` starts (rotate
        traffic away); ``live`` stays true until the server is closed
        (the process is still finishing admitted work).
        """
        return {
            "ready": not (self._draining or self._closed),
            "live": not self._closed,
            "draining": self._draining,
            "queued_requests": len(self._batcher),
            "queued_keys": self._batcher.pending_keys,
            "inflight_batches": len(self._inflight),
            # The arrival trigger's target (None: not learned yet).
            "expected_requests": self._batcher.expected_requests,
            "shed_level": (self.shedder.level if self.shedder is not None
                           else "healthy"),
        }

    async def drain(self) -> Dict[str, int]:
        """Zero-downtime shutdown: stop admission, finish everything.

        The graceful half of the shutdown pair (:meth:`aclose` is the
        abrupt half).  New lookups are refused with
        :class:`~repro.serve.shedding.ServerDrainingError` from the
        moment drain starts, but every request already admitted — queued
        in the forming batch or in an executing fused call — completes
        normally: zero in-flight work is lost.  Idempotent; a second
        caller awaits the same completion.  Returns counts of what was
        flushed and awaited.
        """
        if self._loop is None:
            # Never served a request: nothing to flush, just seal.
            self._draining = True
            self._closed = True
            return {"flushed_requests": 0, "awaited_batches": 0}
        self._draining = True
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        flushed = 0
        # DRR-clipped takes can leave leftovers queued; loop until the
        # queue is truly empty (admission is off, so this terminates).
        while len(self._batcher):
            before = len(self._batcher)
            self._flush("drain")
            flushed += before - len(self._batcher)
            if len(self._batcher) >= before:  # pragma: no cover - safety
                break
        awaited = 0
        while self._inflight:
            pending = tuple(self._inflight)
            awaited += len(pending)
            await asyncio.gather(*pending, return_exceptions=True)
        self._closed = True
        return {"flushed_requests": flushed, "awaited_batches": awaited}

    async def aclose(self) -> None:
        """Refuse new work, cancel queued requests, drain in-flight.

        Queued-but-unflushed callers get ``CancelledError``; batches
        already executing finish normally.  Idempotent; never hangs.
        """
        self._closed = True
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        for request in self._batcher.take():
            if not request.future.done():
                request.future.cancel()
        if self._inflight:
            await asyncio.gather(*tuple(self._inflight),
                                 return_exceptions=True)


class Client:
    """Synchronous in-process handle on a coalescing lookup server.

    Owns a dedicated event-loop thread; any number of caller threads may
    invoke :meth:`lookup` concurrently and their requests coalesce on
    that loop.  ``close_store=True`` makes :meth:`close` also close the
    wrapped store (the ``repro.serving()`` facade uses this — it opened
    the store, so the handle owns it).
    """

    def __init__(self, store, policy: Optional[AdmissionPolicy] = None,
                 stats: Optional[ServeStats] = None, *,
                 shedder: Optional[LoadShedder] = None,
                 close_store: bool = False):
        self.server = LookupServer(store, policy=policy, stats=stats,
                                   shedder=shedder)
        self._close_store = close_store
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._run,
                                        name="repro-serve-client",
                                        daemon=True)
        self._closed = False
        self._thread.start()

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.run_forever()

    # ------------------------------------------------------------------
    @property
    def store(self):
        return self.server.store

    @property
    def stats(self) -> ServeStats:
        return self.server.stats

    def lookup(self, keys, tenant: str = DEFAULT_TENANT,
               deadline_ms: Optional[float] = None) -> LookupResult:
        """Coalesced lookup; blocks until the batch is served.

        ``deadline_ms`` bounds the request end to end (queueing and the
        store call); an exhausted budget raises
        :class:`~repro.resilience.DeadlineExceeded` — a ``TimeoutError``
        — without failing unrelated batchmates.
        """
        return self.submit(keys, tenant, deadline_ms=deadline_ms).result()

    def submit(self, keys, tenant: str = DEFAULT_TENANT,
               deadline_ms: Optional[float] = None):
        """Admit without blocking; returns a ``concurrent.futures.Future``.

        The handle for driving many in-flight requests from one thread
        (the concurrency harness and the benchmark both build on it).
        """
        if self._closed:
            raise RuntimeError("serving client is closed")
        return asyncio.run_coroutine_threadsafe(
            self.server.lookup(keys, tenant, deadline_ms=deadline_ms),
            self._loop)

    def lookup_one(self, **key_parts) -> Optional[Dict[str, object]]:
        """Single-row convenience mirroring ``DataStore.lookup_one``."""
        import numpy as np
        if set(key_parts) != set(self.server._key_names):
            raise KeyError(f"expected key columns {self.server._key_names}")
        keys = {name: np.array([value], dtype=np.int64)
                for name, value in key_parts.items()}
        return next(self.lookup(keys).rows())

    def health(self) -> Dict[str, object]:
        """The server's readiness/liveness snapshot (thread-safe read)."""
        return self.server.health

    def drain(self, timeout: Optional[float] = None) -> Dict[str, int]:
        """Gracefully drain the server: refuse new work, finish all
        admitted work, then stop the loop thread.  Returns the drain
        report.  After this the client behaves as closed."""
        if self._closed:
            return {"flushed_requests": 0, "awaited_batches": 0}
        return self._shut_down(self.server.drain, timeout)

    def close(self, timeout: Optional[float] = None) -> None:
        """Shut the server down and stop the loop thread (idempotent).

        ``timeout`` bounds the shutdown drain and the loop-thread join
        (default :data:`~repro.resilience.DEFAULT_TIMEOUT_S`).
        """
        if not self._closed:
            self._shut_down(self.server.aclose, timeout)

    def _shut_down(self, stop_server, timeout: Optional[float]):
        """``stop_server()`` on the loop, then stop the loop thread and
        close the store if this client owns it."""
        self._closed = True
        bound = default_timeout(timeout)
        result = asyncio.run_coroutine_threadsafe(
            stop_server(), self._loop).result(timeout=bound)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=bound)
        self._loop.close()
        if self._close_store:
            self.store.close()
        return result

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
