"""Shared counters and timers for storage components.

Every store in the reproduction (DeepMapping auxiliary table, array and hash
baselines) reports where its time goes through a :class:`StoreStats` object.
The benchmark harness reads these to reproduce the paper's Figure 7 latency
breakdown (existence check / inference / auxiliary lookup / data loading +
decompression / locate partition / other).
"""

from __future__ import annotations

import threading
from time import perf_counter
from typing import Dict, Optional

__all__ = ["StoreStats", "Stopwatch"]


class Stopwatch:
    """Minimal accumulating stopwatch based on ``time.perf_counter``.

    ``lock`` (the owning :class:`StoreStats`'s) guards the accumulation
    when several threads time into one stopwatch."""

    __slots__ = ("seconds", "calls", "_lock")

    def __init__(self, lock: Optional[threading.Lock] = None):
        self.seconds = 0.0
        self.calls = 0
        self._lock = lock if lock is not None else threading.Lock()

    def timing(self) -> "_Timing":
        """Context manager that adds the elapsed wall time to the total."""
        return _Timing(self)

    def reset(self) -> None:
        """Zero the accumulated time and call count."""
        with self._lock:
            self.seconds = 0.0
            self.calls = 0


class _Timing:
    """One timed stage of a :class:`Stopwatch`: a slotted context
    manager, a few times cheaper to enter and leave than a generator one
    (a lookup times dozens of stages).  The elapsed time is added under
    the stopwatch's lock, also when the stage raises."""

    __slots__ = ("_watch", "_start")

    def __init__(self, watch: Stopwatch):
        self._watch = watch

    def __enter__(self) -> None:
        self._start = perf_counter()

    def __exit__(self, *exc) -> None:
        elapsed = perf_counter() - self._start
        watch = self._watch
        with watch._lock:
            watch.seconds += elapsed
            watch.calls += 1


class StoreStats:
    """Named counters plus named stopwatches.

    Counter and timer names are created on first use so stores can record
    whatever buckets make sense for them; the benchmark layer aggregates by
    name.  Canonical timer names used across the repo:

    - ``io``: reading a partition's compressed bytes out of the buffer
      that holds them (:func:`~repro.storage.partition.read_blob`)
    - ``decompress``: codec decompression
    - ``deserialize``: pickle loads
    - ``locate``: finding the partition for a key
    - ``search``: in-partition binary search / dict probe
    - ``inference``: neural network forward pass
    - ``existence``: bit-vector membership test
    - ``decode``: label-code to original-value translation

    Thread-safe: concurrent reads (and a remote store's downloads) time
    and count from several threads into one sink, so one lock guards
    every counter bump, every stopwatch accumulation, timer creation,
    :meth:`snapshot` and :meth:`reset`.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.counters: Dict[str, int] = {}
        self.timers: Dict[str, Stopwatch] = {}

    def bump(self, name: str, amount: int = 1) -> None:
        """Increment counter ``name`` by ``amount``."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def timer(self, name: str) -> Stopwatch:
        """Return (creating if needed) the stopwatch called ``name``."""
        watch = self.timers.get(name)
        if watch is None:
            with self._lock:
                watch = self.timers.setdefault(name, Stopwatch(self._lock))
        return watch

    def timing(self, name: str) -> _Timing:
        """Shorthand for ``self.timer(name).timing()``."""
        return _Timing(self.timer(name))

    def seconds(self, name: str) -> float:
        """Accumulated seconds for timer ``name`` (0.0 if never used)."""
        watch = self.timers.get(name)
        return watch.seconds if watch else 0.0

    def total_seconds(self) -> float:
        """Sum over all timers."""
        with self._lock:
            return sum(watch.seconds for watch in self.timers.values())

    def snapshot(self) -> Dict[str, float]:
        """Flat dict of counters and timer seconds (timers keyed by name)."""
        with self._lock:
            out: Dict[str, float] = dict(self.counters)
            for name, watch in self.timers.items():
                out[f"{name}_seconds"] = watch.seconds
        return out

    def reset(self) -> None:
        """Zero every counter and stopwatch."""
        with self._lock:
            self.counters.clear()
            for watch in self.timers.values():
                watch.seconds = 0.0
                watch.calls = 0

    def __repr__(self) -> str:
        timers = {k: round(v.seconds, 4) for k, v in self.timers.items()}
        return f"StoreStats(counters={self.counters}, timers={timers})"
