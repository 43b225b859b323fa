"""Pluggable execution strategies for the read path.

The sharded store fans a batched lookup out to its shards, and both store
kinds expose ``lookup_async`` returning a future.  How that concurrency is
realized is a deployment decision, not a store decision, so it lives
behind one small protocol:

- :class:`SerialStrategy` — everything inline on the calling thread
  (debugging, profiling, single-core boxes; ``submit`` still returns a
  future, already resolved).
- :class:`ThreadPoolStrategy` — shard fan-out on a lazily created
  ``ThreadPoolExecutor`` (NumPy kernels release the GIL, so shards
  overlap on multi-core hosts), plus a *separate* small pool for
  ``submit`` so an async lookup coordinating a fan-out can never
  deadlock against its own workers.

Strategies are named (``"serial"`` / ``"threads"``)
so configs and CLIs can select them by string via :func:`make_executor`.

A strategy has two lanes — ``submit``, the *coordinator* lane behind
``lookup_async``, and ``submit_job``, the *fan-out* lane the sharded read
path runs per-shard work on — and a custom strategy must provide both.
Each takes an optional ``deadline``: a job still queued when it passes
fails with ``DeadlineExceeded`` the moment a worker picks it up, so
abandoned work cannot wedge a lane.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable, Optional, Protocol, Union, runtime_checkable

from ..resilience.deadline import Deadline

__all__ = [
    "ExecutorStrategy",
    "SerialStrategy",
    "ThreadPoolStrategy",
    "EXECUTOR_NAMES",
    "make_executor",
]


def _deadline_gated(fn: Callable, deadline: Optional[Deadline]) -> Callable:
    """Wrap ``fn`` so it refuses to *start* past its deadline.

    The gate runs on the worker at dequeue time: when a caller has
    already abandoned a timed-out batch, its queued jobs collapse to an
    immediate :class:`DeadlineExceeded` instead of occupying a lane with
    work nobody will read — the difference between a slow burst and a
    wedged coordinator under sustained overload.
    """
    if deadline is None:
        return fn

    def gated(*args, **kwargs):
        deadline.check("queued job")
        return fn(*args, **kwargs)

    return gated


def _resolved(fn: Callable, *args, **kwargs) -> Future:
    """Run ``fn`` now; its outcome comes back as a finished future."""
    future: Future = Future()
    try:
        future.set_result(fn(*args, **kwargs))
    except BaseException as exc:  # the future carries the failure
        future.set_exception(exc)
    return future


@runtime_checkable
class ExecutorStrategy(Protocol):
    """How a store runs independent jobs and services async lookups."""

    #: Stable name configs/CLIs select the strategy by.
    name: str

    def submit(self, fn: Callable, *args,
               deadline: Optional[Deadline] = None, **kwargs) -> "Future":
        """Schedule ``fn(*args, **kwargs)`` on the coordinator lane;
        return a future of its result."""
        ...

    def submit_job(self, fn: Callable, *args,
                   deadline: Optional[Deadline] = None) -> "Future":
        """Schedule ``fn(*args)`` on the fan-out lane; return a future
        of its result.  Job functions never block on sibling futures."""
        ...

    def close(self) -> None:
        """Release any worker threads (idempotent)."""
        ...


class SerialStrategy:
    """Run everything inline on the calling thread."""

    name = "serial"

    def submit(self, fn: Callable, *args,
               deadline: Optional[Deadline] = None, **kwargs) -> Future:
        return _resolved(_deadline_gated(fn, deadline), *args, **kwargs)

    def submit_job(self, fn: Callable, *args,
                   deadline: Optional[Deadline] = None) -> Future:
        """Fan-out-lane job future (inline here; already resolved)."""
        return self.submit(fn, *args, deadline=deadline)

    def close(self) -> None:
        pass

    def __repr__(self) -> str:
        return "SerialStrategy()"


class ThreadPoolStrategy:
    """Fan out on a lazily created thread pool.

    ``submit_job`` jobs run on the fan-out pool (inline with one worker
    and no deadline).  ``submit`` runs on a separate two-thread
    coordinator pool: an async lookup submitted there can safely fan
    its shard jobs onto the fan-out pool without the two competing for
    the same workers (the classic nested-pool deadlock).
    """

    name = "threads"

    def __init__(self, max_workers: Optional[int] = None):
        self.max_workers = (max(1, int(max_workers))
                            if max_workers is not None
                            else max(1, min(32, os.cpu_count() or 1)))
        self._pool: Optional[ThreadPoolExecutor] = None
        self._coordinator: Optional[ThreadPoolExecutor] = None
        self._lock = threading.Lock()

    def _get_pool(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.max_workers,
                    thread_name_prefix="repro-exec")
            return self._pool

    def _get_coordinator(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._coordinator is None:
                self._coordinator = ThreadPoolExecutor(
                    max_workers=2,
                    thread_name_prefix="repro-exec-async")
            return self._coordinator

    def submit(self, fn: Callable, *args,
               deadline: Optional[Deadline] = None, **kwargs) -> Future:
        return self._get_coordinator().submit(
            _deadline_gated(fn, deadline), *args, **kwargs)

    def submit_job(self, fn: Callable, *args,
                   deadline: Optional[Deadline] = None) -> Future:
        """One fan-out job as a future.

        Jobs land on the fan-out pool, so inference for one shard
        overlaps aux decompression for another; with a single worker
        the job runs inline, avoiding thread ping-pong on one-core
        hosts.  A ``deadline``
        makes the job a no-op (``DeadlineExceeded``) if it is still
        queued when the budget runs out — and disables the one-worker
        inline shortcut, because a deadline only isolates the caller
        from a hung job when the job runs on a thread the caller can
        abandon.
        """
        if self.max_workers <= 1 and deadline is None:
            return _resolved(fn, *args)
        return self._get_pool().submit(_deadline_gated(fn, deadline), *args)

    def close(self) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
            coordinator, self._coordinator = self._coordinator, None
        if pool is not None:
            pool.shutdown(wait=True)
        if coordinator is not None:
            coordinator.shutdown(wait=True)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(max_workers={self.max_workers})"


#: Selectable strategy names, in documentation order.
EXECUTOR_NAMES = ("serial", "threads")

_FACTORIES = {
    "serial": lambda max_workers: SerialStrategy(),
    "threads": ThreadPoolStrategy,
}


def make_executor(spec: Union[str, ExecutorStrategy, None] = None,
                  max_workers: Optional[int] = None) -> ExecutorStrategy:
    """Resolve a strategy from a name, an instance, or ``None``.

    ``None`` means the default: a thread pool (width ``max_workers``),
    degrading to serial execution when ``max_workers`` is 1.  A strategy
    instance passes through untouched (caller keeps ownership).
    """
    if spec is None:
        spec = "threads"
    if isinstance(spec, str):
        try:
            factory = _FACTORIES[spec]
        except KeyError:
            names = ", ".join(repr(n) for n in EXECUTOR_NAMES)
            raise ValueError(f"unknown executor strategy {spec!r}; "
                             f"expected one of {names}") from None
        return factory(max_workers)
    if isinstance(spec, ExecutorStrategy):
        return spec
    raise TypeError(f"executor must be a strategy name, an ExecutorStrategy "
                    f"instance, or None; got {type(spec).__name__}")

