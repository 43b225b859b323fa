"""Admission policy for the coalescing lookup server.

Micro-batching trades a bounded amount of queueing delay for the fused
kernel's large-batch throughput (``keys_per_s`` @ ``bulk_scan`` vs
``serve_point`` in ``bench/``: keys/s scales strongly with batch size).  :class:`AdmissionPolicy` holds that
trade-off as two knobs:

- ``max_batch_keys`` — a forming batch that reaches this many merged
  keys flushes immediately (the size trigger; protects tail latency of
  the requests already queued when traffic is heavy);
- ``max_delay_ms`` — the oldest queued request never waits longer than
  this before its batch flushes (the time trigger).  It is the *upper
  bound* on the wait when fewer callers arrive than expected, not the
  price of every batch: the batcher learns how many requests the tier
  holds at once and flushes a forming batch as soon as it holds that
  many (the arrival trigger, ``serve/batcher.py``), so a lone caller
  stops paying the window after its first flush.  The learned trigger
  is not a knob — there is nothing here to turn it on, off or tune.

An idle server has no timers armed at all: the delay clock starts when
the *first* request of a batch is admitted, so there are zero wakeups
without traffic (asserted by ``tests/serve/test_policy.py``).

The remaining knobs are the **overload-control** surface (see
``docs/serving.md``): ``max_queue_requests`` is the hard back-pressure
bound, ``tenant_quota_keys`` / ``tenant_weights`` bound each tenant's
slice of the queue so one flooding tenant cannot starve the window, and
the batcher's deficit-round-robin drain uses the same weights to decide
*which* queued requests ride the next fused batch when more are queued
than fit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

__all__ = ["AdmissionPolicy"]


@dataclass(frozen=True)
class AdmissionPolicy:
    """Knobs bounding how long and how large a coalesced batch may grow."""

    #: Flush as soon as the forming batch holds this many keys (summed
    #: over queued requests, before cross-request dedup).
    max_batch_keys: int = 8192
    #: Flush at most this many milliseconds after the batch's first
    #: request was admitted, even if fewer requests than expected have
    #: arrived.
    max_delay_ms: float = 2.0
    #: Refuse admission once this many requests are queued in the
    #: forming batch (back-pressure; ``None`` = unbounded).
    max_queue_requests: Optional[int] = None
    #: Per-tenant fair-admission quota: a tenant of weight 1.0 may hold
    #: at most this many *keys* in the queue at once (a tenant of
    #: weight ``w`` holds ``w`` times as many).  ``None`` disables the
    #: quota — the historical single-bound behavior.
    tenant_quota_keys: Optional[int] = None
    #: Relative service weights by tenant name (unnamed tenants weigh
    #: 1.0).  Weights scale both the admission quota and the
    #: deficit-round-robin quantum used when draining an over-full
    #: queue into a fused batch.
    tenant_weights: Optional[Mapping[str, float]] = field(default=None)

    def __post_init__(self):
        if self.max_batch_keys < 1:
            raise ValueError("max_batch_keys must be >= 1")
        if self.max_delay_ms < 0:
            raise ValueError("max_delay_ms must be >= 0")
        if self.max_queue_requests is not None and self.max_queue_requests < 1:
            raise ValueError("max_queue_requests must be >= 1 or None")
        if self.tenant_quota_keys is not None and self.tenant_quota_keys < 1:
            raise ValueError("tenant_quota_keys must be >= 1 or None")
        if self.tenant_weights is not None:
            for name, weight in self.tenant_weights.items():
                if not weight > 0:
                    raise ValueError(
                        f"tenant weight for {name!r} must be > 0, "
                        f"got {weight!r}")

    @property
    def max_delay_seconds(self) -> float:
        """``max_delay_ms`` in the seconds every clock in the repo uses."""
        return self.max_delay_ms / 1000.0

    def weight(self, tenant: str) -> float:
        """``tenant``'s service weight (1.0 unless configured)."""
        if self.tenant_weights is None:
            return 1.0
        return float(self.tenant_weights.get(tenant, 1.0))

    def quota_keys(self, tenant: str) -> Optional[float]:
        """Queued-key cap for ``tenant`` (weight-scaled), None = unbounded."""
        if self.tenant_quota_keys is None:
            return None
        return self.tenant_quota_keys * self.weight(tenant)
