"""Clock, reference kernel, failure tally and the segment statistics
every workload shares.

**Why timings are normalised.**  This benchmark runs on shared 2-vCPU
boxes whose speed moves by up to 2x for seconds to minutes at a time (a
busy sibling thread on the host).  Ten-second windows cannot average
that out, so every timed operation is followed by a run of a small fixed
*reference kernel* on the same thread, and each segment's times are
divided by that segment's slowdown: the median reference time over
``REFERENCE_NOMINAL_S``.  What is reported is the time the operation
takes at the reference speed.  A change to the code moves it one for
one; a slow minute on the host mostly cancels (the kernel tracks
single-threaded, interpreter-heavy work with r ~ 0.9).
"""

from __future__ import annotations

import json
import pickle
import time
from typing import Callable, Dict, List

import numpy as np

import spec

clock = time.perf_counter

#: The reference kernel's time on this class of box when nothing
#: disturbs it.  Only a scale: it makes normalised times read like
#: wall-clock times on a quiet box.
REFERENCE_NOMINAL_S = 150e-6

_REFERENCE_BLOB = pickle.dumps({"keys": np.arange(900),
                                "codes": np.arange(900) % 7})
_REFERENCE_ARRAY = np.arange(2000)[::-1].copy()


def reference() -> float:
    """Seconds one run of the reference kernel takes: unpickling, small
    NumPy calls and interpreter work, in the proportions of the store's
    own small-batch path."""
    start = clock()
    for _ in range(8):
        pickle.loads(_REFERENCE_BLOB)
        np.searchsorted(_REFERENCE_ARRAY, _REFERENCE_ARRAY[:50])
    total = 0
    for value in range(1500):
        total += value
    np.sort(_REFERENCE_ARRAY)
    return clock() - start


def slowdown(reference_times) -> float:
    """How much slower than nominal the box ran while these reference
    runs were taken."""
    return median(reference_times) / REFERENCE_NOMINAL_S


def emit(event: str, **fields) -> None:
    print(json.dumps(dict(fields, event=event)), flush=True)


def median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def peak_rss_mb(pid="self") -> float:
    """High-water resident set of a live process, from Linux ``VmHWM``.
    (Not ``ru_maxrss``: that survives ``exec``, so a child would report
    the resident set of the parent that built the store.)"""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


class Tally:
    """Operations attempted and failed; a failure is an exception, a
    refusal, or an answer that differs from the source table."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def fail(self, note: str) -> None:
        self.failed += 1
        if len(self.notes) < 5:
            self.notes.append(note)


def timed(fn, *args) -> float:
    start = clock()
    fn(*args)
    return clock() - start


def checked_lookup(store, truth, keys, tally: Tally, check: bool):
    """One timed ``store.lookup``; the check runs after the clock stops.
    Returns the seconds the call took."""
    tally.attempted += 1
    start = clock()
    try:
        result = store.lookup({"key": keys})
    except Exception as exc:  # an operation that fails is counted, not fatal
        tally.fail(f"lookup raised {type(exc).__name__}: {exc}")
        return clock() - start
    seconds = clock() - start
    if check:
        bad = truth.mismatches(keys, result.found, result.values["value"])
        if bad:
            tally.fail(f"{bad} wrong answers in a batch of {keys.size}")
    return seconds


def timed_phase(seconds: float, pool: np.ndarray, start_index: int,
                run_one: Callable[[np.ndarray, bool], float]):
    """Closed loop, one caller: run requests from ``pool`` round-robin
    for ``seconds`` (checks do not count), each followed by one run of
    the reference kernel.  Returns the per-operation seconds at the
    reference speed, the phase's slowdown, and the next pool index."""
    times: List[float] = []
    references: List[float] = []
    index = start_index
    budget = seconds
    while budget > 0:
        keys = pool[index % len(pool)]
        times.append(run_one(keys, index % spec.CHECK_EVERY == 0))
        references.append(reference())
        budget -= times[-1] + references[-1]
        index += 1
    factor = slowdown(references)
    return [t / factor for t in times], factor, index


def segment(times, keys_per_op: float, solo_times, factors) -> Dict:
    """One segment's statistics; ``times`` are at the reference speed."""
    return {"p50": median(times), "p95": percentile(times, 95),
            "keys_per_s": len(times) * keys_per_op / sum(times),
            "n": len(times), "solo_p50": median(solo_times),
            "solo_n": len(solo_times), "slowdown": median(factors)}


def segment_summary(segments: List[Dict]) -> Dict[str, float]:
    """Median over segments of each segment's p50, p95 and throughput."""
    return {
        "op_p50_ms": median([s["p50"] for s in segments]) * 1e3,
        "op_p95_ms": median([s["p95"] for s in segments]) * 1e3,
        "keys_per_s": median([s["keys_per_s"] for s in segments]),
        "solo_p50_ms": median([s["solo_p50"] for s in segments]) * 1e3,
        "samples": int(sum(s["n"] for s in segments)),
        "solo_samples": int(sum(s["solo_n"] for s in segments)),
        "slowdown": median([s["slowdown"] for s in segments]),
    }


