"""Spans recorded from outside the program, and the stage-by-stage replay.

The product has no spans of its own yet (ROADMAP ``repro.obs``), so the
benchmark times calls into each layer's public functions.  A span is
``(id, parent, request, name, start, end)``; spans are kept in memory
and written out when the run ends.  A layer's *self* time is its span
minus the part its children cover; the layer is the span name's prefix
(``nn.inference`` belongs to ``nn``).

(Named ``tracing`` and not ``trace``: ``python3 bench/run.py`` puts this
directory first on ``sys.path``, where ``trace.py`` would shadow the
standard-library module.)
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

import numpy as np

#: Layers that can own part of an operation (a row of the layer table).
#: ``store`` (build, open) and ``resilience`` (deadlines) do their work
#: outside the measured operation and are reported by their own metrics.
LAYERS = ("data", "nn", "core", "storage", "shard", "serve", "lifecycle")

#: ``StoreStats`` timers that make up a partition load.  They add
#: thread-time across shard jobs, so they equal wall time only under the
#: serial executor, which is what every traced pass uses.  They are read
#: from each shard's ``aux.stats``: a read-only open gives every shard's
#: ``T_aux`` a sink of its own that ``store.stats`` never sees.
LOAD_TIMERS = ("io_seconds", "decompress_seconds", "deserialize_seconds")
#: The partition store's other timers: find the partition, search it.
#: ``repro.storage.partition`` does this work inside ``T_aux``'s probe,
#: so it is the storage layer's time, not ``core``'s.
PROBE_TIMERS = ("locate_seconds", "search_seconds")


class Span:
    __slots__ = ("id", "parent", "request", "name", "start", "end")

    def __init__(self, id, parent, request, name, start, end=None):
        self.id, self.parent, self.request = id, parent, request
        self.name, self.start, self.end = name, start, end

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self._open: List[Span] = []

    @contextmanager
    def span(self, name: str, request=None,
             parent: Optional[Span] = None) -> Iterator[Span]:
        """Time a block.  ``parent`` re-parents a replayed stage under
        the real call it decomposes (which has already ended)."""
        if parent is None and self._open:
            parent = self._open[-1]
        if request is None and parent is not None:
            request = parent.request
        span = Span(len(self.spans), None if parent is None else parent.id,
                    request, name, time.perf_counter())
        self.spans.append(span)
        self._open.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def record(self, name: str, seconds: float, parent: Span) -> Span:
        """A child whose duration was read from a counter, not a clock."""
        span = Span(len(self.spans), parent.id, parent.request, name,
                    parent.start, parent.start + seconds)
        self.spans.append(span)
        return span

    def self_seconds(self) -> Dict[int, float]:
        own = {span.id: span.seconds for span in self.spans}
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.seconds
        return own

    def layer_ms_by_request(self) -> Dict[object, Dict[str, float]]:
        """request id -> layer -> self milliseconds."""
        own = self.self_seconds()
        out: Dict[object, Dict[str, float]] = {}
        for span in self.spans:
            layer = span.name.split(".", 1)[0]
            row = out.setdefault(span.request, {})
            row[layer] = row.get(layer, 0.0) + own[span.id] * 1e3
        return out

    def op_ms_by_request(self) -> Dict[object, float]:
        """request id -> milliseconds of its top-level spans: the traced
        operation (replayed stages are children and do not count)."""
        out: Dict[object, float] = {}
        for span in self.spans:
            if span.parent is None:
                out[span.request] = out.get(span.request, 0.0) \
                    + span.seconds * 1e3
        return out

    def seconds_by_name(self) -> Dict[str, List[float]]:
        out: Dict[str, List[float]] = {}
        for span in self.spans:
            out.setdefault(span.name, []).append(span.seconds)
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "id": span.id, "parent": span.parent,
                    "request": span.request, "name": span.name,
                    "start": span.start, "end": span.end}) + "\n")


def timer_seconds(stats, names) -> float:
    snapshot = stats.snapshot()
    return sum(snapshot.get(name, 0.0) for name in names)


def load_seconds(stats) -> float:
    return timer_seconds(stats, LOAD_TIMERS)


def aux_sinks(store) -> list:
    """The distinct stats sinks of the store's auxiliary tables (one,
    shared, on a writable open; one per shard on a read-only open)."""
    sinks = {id(shard.aux.stats): shard.aux.stats
             for shard in store.shards if shard is not None}
    return list(sinks.values())


#: What :func:`traced_lookup` adds up over the batches it traces.
COUNTS = ("batches", "keys", "hit_rows", "model_rows", "shards_touched",
          "pool_hits", "pool_misses", "pool_evictions", "bytes_read",
          "load_seconds")


def storage_counters(store) -> Dict[str, float]:
    """Pool counters (``store.stats``) and partition reads (the shards'
    ``aux.stats``), cumulative."""
    snapshot = store.stats.snapshot()
    counters = {name: snapshot.get(name, 0) for name in
                ("pool_hits", "pool_misses", "pool_evictions")}
    sinks = aux_sinks(store)
    counters["bytes_read"] = sum(sink.snapshot().get("bytes_read", 0)
                                 for sink in sinks)
    counters["load_seconds"] = sum(load_seconds(sink) for sink in sinks)
    return counters


def traced_lookup(tracer: Tracer, store, keys: np.ndarray, request,
                  counts: Dict[str, float]):
    """One real ``store.lookup`` under a span, then the same batch again
    stage by stage, each stage a child span of the real call.

    The replay must give the real answer, or the breakdown describes a
    different computation.  Returns ``(result, replay_matches,
    seconds_of_the_real_call)``."""
    before = storage_counters(store)
    with tracer.span("shard.lookup", request=request) as root:
        real = store.lookup({"key": keys})
    for name, value in storage_counters(store).items():
        counts[name] += value - before[name]

    name = store.key_names[0]
    with tracer.span("shard.route", parent=root):
        shard_ids = store.router.route({name: keys})
    order = np.lexsort((keys, shard_ids))
    grouped = keys[order]
    bounds = np.searchsorted(shard_ids[order],
                             np.arange(store.n_shards + 1))
    found = np.zeros(keys.size, dtype=bool)
    values = {column: np.empty(keys.size, dtype=real.values[column].dtype)
              for column in store.value_names}
    touched = 0
    for ordinal, shard in enumerate(store.shards):
        lo, hi = int(bounds[ordinal]), int(bounds[ordinal + 1])
        if hi <= lo or shard is None:
            continue
        touched += 1
        with tracer.span("data.flatten", parent=root):
            plan = shard.plan_lookup({name: grouped[lo:hi]}, presorted=True)
        with tracer.span("core.existence", parent=root):
            plan.run_existence()
        sink = shard.aux.stats
        load, probe = load_seconds(sink), timer_seconds(sink, PROBE_TIMERS)
        with tracer.span("core.aux", parent=root) as aux:
            plan.run_aux()
        tracer.record("storage.load", load_seconds(sink) - load, parent=aux)
        tracer.record("storage.probe",
                      timer_seconds(sink, PROBE_TIMERS) - probe, parent=aux)
        with tracer.span("nn.inference", parent=root):
            plan.run_inference()
        with tracer.span("data.decode", parent=root):
            part = plan.finish()
        dest = order[lo:hi]
        found[dest] = part.found
        for column in values:
            values[column][dest] = part.values[column]
        counts["keys"] += hi - lo
        counts["hit_rows"] += int(part.found.sum())
        counts["model_rows"] += int(plan.model_rows.size)
    counts["batches"] += 1
    counts["shards_touched"] += touched
    same = bool(np.array_equal(found, real.found)) and all(
        np.array_equal(values[c][found], real.values[c][found])
        for c in values)
    return real, same, root.seconds
