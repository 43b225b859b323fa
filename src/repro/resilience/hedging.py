"""Hedged range GETs: bound a stalled fetch's tail with one re-issue.

The only step of a read that can block for long is a remote store's
range GET (a cold shard hydrating); a probe of a hydrated shard runs in
memory in microseconds.  One stalled GET — a dropped packet, an object
store's slow replica — would set the whole read's latency.  The classic
fix (Dean & Barroso, "The Tail at Scale") is the *hedged request*: when
a request has gone unanswered well past what its peers needed, issue it
once more.  Here the first attempt's socket timeout *is* the hedge
delay, so the stalled GET is abandoned (its socket closed) rather than
raced: no extra thread is started, and the re-issue gets whatever is
left of the read's deadline (``storage/remote.py``).

:class:`HedgeController` holds the adaptive part — an EWMA of recent
GET durations that turns "well past its peers" into a concrete delay —
plus the budget that keeps hedges a tail remedy, not a load doubler:

- the delay is ``delay_factor ×`` the EWMA, floored at
  ``min_delay_ms``; with no estimate yet nothing is hedged, the first
  GETs just measure (an open binds the controller before its own GETs,
  so those seed it);
- the read path binds one ``[GETs, hedges]`` count per read in
  :data:`read_hedges`, and a GET is armed only while the read's hedges
  stay under ``max(1, ⌊max_fraction × GETs⌋)``.  GETs of one read in
  flight at once are armed against the same count, so together they
  can overdraw it by at most their number (the read's own thread and
  its download threads).

**Idempotency.** A hedge re-issues a ranged GET of a blob version the
open already pinned: a pure read, whose abandoned first attempt wrote
nothing anywhere.

Thread-safe: a read's downloads record and charge from other threads.
"""

from __future__ import annotations

import threading
from contextvars import ContextVar
from dataclasses import dataclass
from typing import List, Optional

__all__ = ["HedgePolicy", "HedgeController"]

#: ``[GETs issued, hedges launched]`` of the store read running in this
#: context; the read path binds a fresh one per read (its downloads
#: share it).  None outside a read: a GET with no read to charge is
#: never hedged.
read_hedges: ContextVar[Optional[List[int]]] = ContextVar(
    "repro_read_hedges", default=None)


@dataclass(frozen=True)
class HedgePolicy:
    """Knobs for when a stalled GET is re-issued."""

    #: Re-issue a GET unanswered for this multiple of the current
    #: per-GET duration estimate.
    delay_factor: float = 4.0
    #: Never hedge before this many milliseconds, however fast the
    #: estimate says GETs are — guards against hedging jitter.
    min_delay_ms: float = 2.0
    #: At most this fraction of a read's GETs may be hedged (at least
    #: one per read).
    max_fraction: float = 0.25
    #: EWMA smoothing for the duration estimate.
    ewma_alpha: float = 0.2

    def __post_init__(self):
        if self.delay_factor < 1.0:
            raise ValueError("delay_factor must be >= 1")
        if self.min_delay_ms < 0:
            raise ValueError("min_delay_ms must be >= 0")
        if not 0.0 < self.max_fraction <= 1.0:
            raise ValueError("max_fraction must be in (0, 1]")
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be in (0, 1]")


class HedgeController:
    """Adaptive hedge delay and per-read budget shared by a store's
    reads."""

    def __init__(self, policy: Optional[HedgePolicy] = None):
        self.policy = policy or HedgePolicy()
        self._lock = threading.Lock()
        self._ewma_s: Optional[float] = None

    def record(self, seconds: float) -> None:
        """Feed one answered GET's duration into the estimate."""
        if seconds <= 0:
            return
        with self._lock:
            if self._ewma_s is None:
                self._ewma_s = seconds
            else:
                alpha = self.policy.ewma_alpha
                self._ewma_s = alpha * seconds + (1 - alpha) * self._ewma_s

    @property
    def estimate_s(self) -> Optional[float]:
        with self._lock:
            return self._ewma_s

    def arm(self, spent: List[int], cap: float) -> Optional[float]:
        """Count one GET against the read whose ``[GETs, hedges]`` are
        ``spent``; return how long it may go unanswered before it is
        re-issued, or None when it may not be (no estimate yet, a delay
        no shorter than the GET's ``cap`` on waiting, or the read's
        hedges spent)."""
        policy = self.policy
        with self._lock:
            spent[0] += 1
            basis, budget = self._ewma_s, int(policy.max_fraction * spent[0])
            if basis is None or spent[1] >= max(1, budget):
                return None
        delay = max(policy.min_delay_ms / 1000.0, policy.delay_factor * basis)
        return delay if delay < cap else None

    def fire(self, spent: List[int]) -> None:
        """Charge one hedge to the read whose counts are ``spent``."""
        with self._lock:
            spent[1] += 1

    def __repr__(self) -> str:
        return (f"HedgeController(estimate_s={self.estimate_s}, "
                f"factor={self.policy.delay_factor})")
