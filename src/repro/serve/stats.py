"""Serving-tier telemetry: per-tenant counters and latency percentiles.

The serving layer answers one operational question per knob turn: *is
coalescing actually happening, and what does it cost each tenant in
latency?*  :class:`ServeStats` therefore tracks two planes:

- **batch plane** (global): batches formed, requests and keys coalesced
  into them, unique keys after cross-request dedup, timer wakeups,
  flushes by trigger, and the queue-depth gauge — ``coalesce_ratio``
  (requests per store call) and ``dedup_ratio`` (merged keys per unique
  key) fall out of these;
- **tenant plane** (per ``tenant`` string): requests, keys, errors, and
  a bounded ring of request latencies from which :meth:`TenantStats.p50`
  / :meth:`TenantStats.p99` are computed on demand.

All mutation happens on the server's event-loop thread; :meth:`snapshot`
takes a lock so clients on other threads (the in-process
:class:`~repro.serve.server.Client`, the TCP ``stats`` op, the CLI) read
a consistent view.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

import numpy as np

__all__ = ["ServeStats", "TenantStats", "LatencyRing"]


class LatencyRing:
    """Bounded ring of recent request latencies (seconds).

    Percentiles are over the last ``capacity`` samples — a sliding
    window, so a long-lived server reports current behavior rather than
    its lifetime average.
    """

    __slots__ = ("_samples", "_capacity", "_next", "count")

    def __init__(self, capacity: int = 4096):
        self._capacity = int(capacity)
        self._samples: List[float] = []
        self._next = 0
        #: Lifetime number of samples recorded (not capped).
        self.count = 0

    def record(self, seconds: float) -> None:
        if len(self._samples) < self._capacity:
            self._samples.append(seconds)
        else:
            self._samples[self._next] = seconds
            self._next = (self._next + 1) % self._capacity
        self.count += 1

    def percentile(self, q: float) -> Optional[float]:
        """The ``q``-th percentile (0-100) of the window, None if empty."""
        if not self._samples:
            return None
        return float(np.percentile(np.asarray(self._samples), q))


class TenantStats:
    """One tenant's view: volume, failures, and latency percentiles."""

    __slots__ = ("requests", "keys", "errors", "pruned_keys", "shed",
                 "latencies")

    def __init__(self, latency_window: int = 4096):
        self.requests = 0
        self.keys = 0
        self.errors = 0
        #: Keys the sharded store's ``V_exist`` pruned before
        #: dispatch, attributed to this tenant (see
        #: ``ServeStats.record_pruned`` for attribution semantics).
        self.pruned_keys = 0
        #: Requests the load shedder turned away (with a retry-after
        #: hint) — counted for *this* tenant only, never its batchmates.
        self.shed = 0
        self.latencies = LatencyRing(latency_window)

    def p50(self) -> Optional[float]:
        """Median request latency (seconds) over the recent window."""
        return self.latencies.percentile(50.0)

    def p99(self) -> Optional[float]:
        """99th-percentile request latency (seconds), the tail bound."""
        return self.latencies.percentile(99.0)

    def snapshot(self) -> Dict[str, object]:
        return {
            "requests": self.requests,
            "keys": self.keys,
            "errors": self.errors,
            "pruned_keys": self.pruned_keys,
            "shed": self.shed,
            "completed": self.latencies.count,
            "p50_seconds": self.p50(),
            "p99_seconds": self.p99(),
        }


class ServeStats:
    """Counters for the coalescing lookup server.

    Global counters (see module docstring) live in plain attributes;
    per-tenant records are created on first touch, mirroring how
    :class:`~repro.storage.stats.StoreStats` names buckets lazily.
    """

    def __init__(self, latency_window: int = 4096):
        self._lock = threading.Lock()
        self._latency_window = int(latency_window)
        #: Coalesced store calls issued (one per flushed batch).
        self.batches_formed = 0
        #: Requests that rode those batches.
        self.requests_coalesced = 0
        #: Keys merged into batches, before cross-request dedup.
        self.keys_coalesced = 0
        #: Keys actually sent to the store after dedup.
        self.unique_keys = 0
        #: Delay-timer firings (an idle server stays at zero).
        self.timer_wakeups = 0
        #: Flushes by what triggered them: ``size`` (``max_batch_keys``
        #: reached), ``arrival`` (every expected caller was queued),
        #: ``delay`` (the window ran out first) or ``drain`` (graceful
        #: shutdown).
        self.flushes: Dict[str, int] = {"size": 0, "arrival": 0,
                                        "delay": 0, "drain": 0}
        #: Batches whose merged store call failed and fell back to
        #: per-request isolation (poison containment).
        self.batch_fallbacks = 0
        #: Requests refused at admission (bad keys, queue full, closed).
        self.rejected = 0
        #: Requests the adaptive load shedder refused early (before they
        #: held a queue slot), each with a retry-after hint.  Shedding is
        #: the soft tier of the degradation ladder; ``rejected`` is the
        #: hard bound behind it.
        self.shed = 0
        #: Requests that ran out of deadline budget in the tier (queued
        #: past expiry, or the store call outlived their deadline).
        self.deadline_expired = 0
        #: Keys the store's ``V_exist`` pruned before shard dispatch
        #: (every miss), summed over every coalesced store call.
        self.keys_pruned = 0
        #: Hydration telemetry mirrored from the store's stats counters
        #: (remote-backed stores only; all zero for local opens):
        #: ranged fetches issued, payload bytes that crossed the
        #: network, and lookups that blocked on a shard another batch
        #: was mid-way through hydrating.
        self.range_requests = 0
        self.hydrated_bytes = 0
        self.hydration_waits = 0
        #: Hedged-GET telemetry mirrored from a remote store (same
        #: bracket mechanism as hydration): stalled range GETs
        #: re-issued, and how many of those re-issues answered.
        self.hedges_launched = 0
        self.hedges_won = 0
        #: Requests currently queued in the forming batch.
        self.queue_depth = 0
        #: High-water mark of ``queue_depth``.
        self.max_queue_depth = 0
        self.tenants: Dict[str, TenantStats] = {}

    # ------------------------------------------------------------------
    # Recording (server-side)
    # ------------------------------------------------------------------
    def tenant(self, name: str) -> TenantStats:
        """Return (creating if needed) the record for ``name``."""
        with self._lock:
            record = self.tenants.get(name)
            if record is None:
                record = TenantStats(self._latency_window)
                self.tenants[name] = record
            return record

    def record_admit(self, tenant: str, n_keys: int) -> None:
        record = self.tenant(tenant)
        with self._lock:
            record.requests += 1
            record.keys += n_keys
            self.queue_depth += 1
            self.max_queue_depth = max(self.max_queue_depth, self.queue_depth)

    def record_batch(self, n_requests: int, n_keys: int,
                     n_unique: int) -> None:
        with self._lock:
            self.batches_formed += 1
            self.requests_coalesced += n_requests
            self.keys_coalesced += n_keys
            self.unique_keys += n_unique
            self.queue_depth = max(0, self.queue_depth - n_requests)

    def record_done(self, tenant: str, seconds: float) -> None:
        record = self.tenant(tenant)
        with self._lock:
            record.latencies.record(seconds)

    def record_error(self, tenant: str) -> None:
        record = self.tenant(tenant)
        with self._lock:
            record.errors += 1

    def record_reject(self, tenant: str) -> None:
        record = self.tenant(tenant)
        with self._lock:
            self.rejected += 1
            record.errors += 1

    def record_shed(self, tenant: str) -> None:
        """One request turned away by the load shedder — charged to the
        shedding tenant alone (its batchmates' stats are untouched)."""
        record = self.tenant(tenant)
        with self._lock:
            self.shed += 1
            record.shed += 1
            record.errors += 1

    def record_expired(self, tenant: str) -> None:
        record = self.tenant(tenant)
        with self._lock:
            self.deadline_expired += 1
            record.errors += 1

    def record_pruned(self, n_pruned: int,
                      contributions: Dict[str, int]) -> None:
        """Credit ``n_pruned`` pruned keys to the batch's tenants.

        The store counts pruning per coalesced (cross-tenant, deduped)
        batch, not per request, so per-tenant attribution is pro-rata by
        the keys each tenant contributed, with the remainder going to
        the largest contributor (deterministic; ties break by name).
        Exact for single-tenant batches; a fair approximation when
        tenants share a batch or batches overlap in flight.
        """
        if n_pruned <= 0 or not contributions:
            return
        total = sum(contributions.values())
        with self._lock:
            self.keys_pruned += n_pruned
            if total <= 0:
                return
            assigned = 0
            for name, keys in contributions.items():
                record = self.tenants.get(name)
                if record is None:
                    record = TenantStats(self._latency_window)
                    self.tenants[name] = record
                share = (n_pruned * keys) // total
                record.pruned_keys += share
                assigned += share
            if assigned < n_pruned:
                biggest = max(contributions,
                              key=lambda name: (contributions[name], name))
                self.tenants[biggest].pruned_keys += n_pruned - assigned

    def record_hydration(self, range_requests: int, hydrated_bytes: int,
                         hydration_waits: int) -> None:
        """Accumulate one batch's hydration deltas (store-stats bracket,
        like :meth:`record_pruned`; approximate under overlapping
        batches, which is fine for telemetry)."""
        if not (range_requests or hydrated_bytes or hydration_waits):
            return
        with self._lock:
            self.range_requests += max(0, range_requests)
            self.hydrated_bytes += max(0, hydrated_bytes)
            self.hydration_waits += max(0, hydration_waits)

    def record_hedges(self, launched: int, won: int) -> None:
        """Accumulate one batch's hedged-read deltas (store-stats
        bracket; approximate under overlapping batches)."""
        if not (launched or won):
            return
        with self._lock:
            self.hedges_launched += max(0, launched)
            self.hedges_won += max(0, won)

    def record_wakeup(self) -> None:
        with self._lock:
            self.timer_wakeups += 1

    def record_flush(self, trigger: str) -> None:
        with self._lock:
            self.flushes[trigger] += 1

    def record_fallback(self) -> None:
        with self._lock:
            self.batch_fallbacks += 1

    # ------------------------------------------------------------------
    # Reading (client-side)
    # ------------------------------------------------------------------
    @property
    def coalesce_ratio(self) -> float:
        """Requests per coalesced store call (> 1 means batching works)."""
        if self.batches_formed == 0:
            return 0.0
        return self.requests_coalesced / self.batches_formed

    @property
    def dedup_ratio(self) -> float:
        """Merged keys per unique key sent to the store (>= 1)."""
        if self.unique_keys == 0:
            return 0.0
        return self.keys_coalesced / self.unique_keys

    def snapshot(self) -> Dict[str, object]:
        """One consistent dict of every counter (JSON-serializable)."""
        with self._lock:
            return {
                "batches_formed": self.batches_formed,
                "requests_coalesced": self.requests_coalesced,
                "keys_coalesced": self.keys_coalesced,
                "unique_keys": self.unique_keys,
                "coalesce_ratio": (self.requests_coalesced
                                   / self.batches_formed
                                   if self.batches_formed else 0.0),
                "dedup_ratio": (self.keys_coalesced / self.unique_keys
                                if self.unique_keys else 0.0),
                "keys_pruned": self.keys_pruned,
                "prune_rate": (self.keys_pruned / self.unique_keys
                               if self.unique_keys else 0.0),
                "hydration": {
                    "range_requests": self.range_requests,
                    "hydrated_bytes": self.hydrated_bytes,
                    "hydration_waits": self.hydration_waits,
                },
                "hedges": {
                    "launched": self.hedges_launched,
                    "won": self.hedges_won,
                },
                "timer_wakeups": self.timer_wakeups,
                "flushes": dict(self.flushes),
                "batch_fallbacks": self.batch_fallbacks,
                "rejected": self.rejected,
                "shed": self.shed,
                "deadline_expired": self.deadline_expired,
                "queue_depth": self.queue_depth,
                "max_queue_depth": self.max_queue_depth,
                "tenants": {name: record.snapshot()
                            for name, record in self.tenants.items()},
            }

    def __repr__(self) -> str:
        return (f"ServeStats(batches={self.batches_formed}, "
                f"requests={self.requests_coalesced}, "
                f"coalesce_ratio={self.coalesce_ratio:.2f}, "
                f"queue_depth={self.queue_depth})")
