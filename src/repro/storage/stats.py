"""Shared counters and timers for storage components.

Every store in the reproduction (DeepMapping auxiliary table, array and hash
baselines) reports where its time goes through a :class:`StoreStats` object.
The benchmark harness reads these to reproduce the paper's Figure 7 latency
breakdown (existence check / inference / auxiliary lookup / data loading +
decompression / locate partition / other).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator

__all__ = ["StoreStats", "Stopwatch"]


class Stopwatch:
    """Minimal accumulating stopwatch based on ``time.perf_counter``."""

    __slots__ = ("seconds", "calls")

    def __init__(self):
        self.seconds = 0.0
        self.calls = 0

    @contextmanager
    def timing(self) -> Iterator[None]:
        """Context manager that adds the elapsed wall time to the total."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.seconds += time.perf_counter() - start
            self.calls += 1

    def reset(self) -> None:
        """Zero the accumulated time and call count."""
        self.seconds = 0.0
        self.calls = 0


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
    """

    def __init__(self):
        self.counters: Dict[str, int] = {}
        self.timers: Dict[str, Stopwatch] = {}

    def bump(self, name: str, amount: int = 1) -> None:
        """Increment counter ``name`` by ``amount``."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def timer(self, name: str) -> Stopwatch:
        """Return (creating if needed) the stopwatch called ``name``."""
        watch = self.timers.get(name)
        if watch is None:
            watch = Stopwatch()
            self.timers[name] = watch
        return watch

    @contextmanager
    def timing(self, name: str) -> Iterator[None]:
        """Shorthand for ``self.timer(name).timing()``."""
        with self.timer(name).timing():
            yield

    def seconds(self, name: str) -> float:
        """Accumulated seconds for timer ``name`` (0.0 if never used)."""
        watch = self.timers.get(name)
        return watch.seconds if watch else 0.0

    def total_seconds(self) -> float:
        """Sum over all timers."""
        return sum(watch.seconds for watch in self.timers.values())

    def snapshot(self) -> Dict[str, float]:
        """Flat dict of counters and timer seconds (timers keyed by name)."""
        out: Dict[str, float] = dict(self.counters)
        for name, watch in self.timers.items():
            out[f"{name}_seconds"] = watch.seconds
        return out

    def reset(self) -> None:
        """Zero every counter and stopwatch."""
        self.counters.clear()
        for watch in self.timers.values():
            watch.reset()

    def __repr__(self) -> str:
        timers = {k: round(v.seconds, 4) for k, v in self.timers.items()}
        return f"StoreStats(counters={self.counters}, timers={timers})"
