"""Pluggable execution strategies behind ``lookup_async``.

A read runs its plan on the calling thread; the only work a store hands
to an executor is ``lookup_async`` (the whole read, off the caller's
thread).  How that runs is a deployment decision, not a store decision,
so it lives behind one small protocol with one lane, ``submit``:

- :class:`SerialStrategy` — everything inline on the calling thread
  (debugging, profiling, single-core boxes; ``submit`` still returns a
  future, already resolved).
- :class:`ThreadPoolStrategy` — a lazily created two-worker
  ``ThreadPoolExecutor``.

Strategies are named (``"serial"`` / ``"threads"``)
so configs and CLIs can select them by string via :func:`make_executor`.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable, Optional, Protocol, Union, runtime_checkable

__all__ = [
    "ExecutorStrategy",
    "SerialStrategy",
    "ThreadPoolStrategy",
    "EXECUTOR_NAMES",
    "make_executor",
]


@runtime_checkable
class ExecutorStrategy(Protocol):
    """How a store services async lookups."""

    #: Stable name configs/CLIs select the strategy by.
    name: str

    def submit(self, fn: Callable, *args, **kwargs) -> "Future":
        """Schedule ``fn(*args, **kwargs)``; return a future of its
        result."""
        ...

    def close(self) -> None:
        """Release any worker threads (idempotent)."""
        ...


class SerialStrategy:
    """Run everything inline on the calling thread."""

    name = "serial"

    def submit(self, fn: Callable, *args, **kwargs) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except BaseException as exc:  # the future carries the failure
            future.set_exception(exc)
        return future

    def close(self) -> None:
        pass

    def __repr__(self) -> str:
        return "SerialStrategy()"


class ThreadPoolStrategy:
    """Run submissions on a lazily created two-worker thread pool."""

    name = "threads"

    def __init__(self):
        self._pool: Optional[ThreadPoolExecutor] = None
        self._lock = threading.Lock()

    def submit(self, fn: Callable, *args, **kwargs) -> Future:
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=2, thread_name_prefix="repro-exec")
            pool = self._pool
        return pool.submit(fn, *args, **kwargs)

    def close(self) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


#: Selectable strategy names, in documentation order.
EXECUTOR_NAMES = ("serial", "threads")

_FACTORIES = {"serial": SerialStrategy, "threads": ThreadPoolStrategy}


def make_executor(spec: Union[str, ExecutorStrategy, None] = None
                  ) -> ExecutorStrategy:
    """Resolve a strategy from a name, an instance, or ``None``.

    ``None`` means the default, a thread pool.  A strategy instance
    passes through untouched (caller keeps ownership).
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
        return factory()
    if isinstance(spec, ExecutorStrategy):
        return spec
    raise TypeError(f"executor must be a strategy name, an ExecutorStrategy "
                    f"instance, or None; got {type(spec).__name__}")
