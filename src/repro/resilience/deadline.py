"""Deadline budgets: one object carried through a call chain.

A :class:`Deadline` is an absolute expiry on a monotonic clock.  It is
created once at the edge (a serve request's ``deadline_ms``, a client
call's ``timeout``) and passed *down* — every layer asks ``remaining()``
for the budget it may spend and ``check()`` before starting work it
could not finish in time.  This is the budget-propagation idiom: a
10 ms request that already spent 8 ms queueing gives the store call
2 ms, not a fresh 10.

``None`` is the conventional "no deadline" at call sites; every helper
here accepts it.  A store read also binds its deadline in
:data:`read_deadline` for the duration of its plan, so a fetch deep in
the storage tier (a remote shard's range GET, a wait for another
thread's hydration) spends only what is left of it without the deadline
being threaded through every call.  :data:`DEFAULT_TIMEOUT_S` is the
fleet-wide default for *control-plane* waits (server startup, shutdown
joins, client connects) that previously hard-coded ``timeout=30``
literals.
"""

from __future__ import annotations

import time
from contextvars import ContextVar
from typing import Callable, Optional

from .errors import DeadlineExceeded

__all__ = ["Deadline", "DEFAULT_TIMEOUT_S", "default_timeout"]

#: Default bound for control-plane waits (startup/shutdown/connect).
#: Data-plane lookups have no implicit deadline — callers opt in.
DEFAULT_TIMEOUT_S = 30.0

#: The deadline of the store read running in this context (None:
#: unbounded).  A read runs its plan on one thread and binds this for
#: the plan's duration; the downloads it starts run in copies of its
#: context, so each spends the same budget.
read_deadline: ContextVar[Optional["Deadline"]] = ContextVar(
    "repro_read_deadline", default=None)


def default_timeout(override: Optional[float] = None) -> float:
    """``override`` when given, else :data:`DEFAULT_TIMEOUT_S`."""
    return DEFAULT_TIMEOUT_S if override is None else float(override)


class Deadline:
    """An absolute expiry on an injectable monotonic clock.

    The clock is injectable for two reasons: tests control time, and the
    asyncio serve tier builds deadlines on ``loop.time()`` so budgets
    agree with the loop's own timers.
    """

    __slots__ = ("expires_at", "clock")

    def __init__(self, budget_s: float,
                 clock: Callable[[], float] = time.monotonic):
        self.clock = clock
        self.expires_at = clock() + float(budget_s)

    @classmethod
    def after_ms(cls, budget_ms: float,
                 clock: Callable[[], float] = time.monotonic) -> "Deadline":
        """Deadline ``budget_ms`` milliseconds from now."""
        return cls(float(budget_ms) / 1000.0, clock=clock)

    # -- queries -----------------------------------------------------------
    def remaining(self) -> float:
        """Seconds left; negative once expired."""
        return self.expires_at - self.clock()

    @property
    def expired(self) -> bool:
        return self.remaining() <= 0.0

    def check(self, what: str = "operation") -> None:
        """Raise :class:`DeadlineExceeded` when the budget is spent."""
        remaining = self.remaining()
        if remaining <= 0.0:
            raise DeadlineExceeded(
                f"{what} exceeded its deadline by {-remaining * 1000:.1f} ms")

    # -- combinators -------------------------------------------------------
    def min(self, other: Optional["Deadline"]) -> "Deadline":
        """The earlier of two deadlines (``other`` may be None)."""
        if other is None or self.expires_at <= other.expires_at:
            return self
        return other

    @staticmethod
    def earliest(deadlines) -> Optional["Deadline"]:
        """Earliest of an iterable of ``Optional[Deadline]``; None when
        every element is None (an unbounded batch)."""
        result: Optional[Deadline] = None
        for deadline in deadlines:
            if deadline is None:
                continue
            if result is None or deadline.expires_at < result.expires_at:
                result = deadline
        return result

    def timeout_or(self, cap: Optional[float] = None) -> float:
        """Remaining budget clamped to ``>= 0`` and, when given, ``cap`` —
        the shape ``future.result(timeout=...)`` and socket timeouts want."""
        remaining = max(0.0, self.remaining())
        return remaining if cap is None else min(remaining, cap)

    def __repr__(self) -> str:
        return f"Deadline(remaining={self.remaining() * 1000:.1f}ms)"
