"""The process that holds the store while a workload runs.

``run.py`` starts one of these per set-up and per measured window, so
``ru_maxrss`` is the store's and not the training run's, a cold start is
a real fresh-process open, and a second ``repro.open`` can never reuse
the first one's cached bundle (which would ignore ``pool_budget_bytes``).

Usage: ``python3 bench/worker.py <job.json>``.  Prints one JSON line
``{"event": "ready", ...}`` once the store is open, its first operation
answered and the warm-up pass checked; with ``"phase": "measure"`` it
goes on to the measured window and prints ``{"event": "result", ...}``.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List

import numpy as np

import inputs
import spec
import tracing
from measure import (Tally, checked_lookup, clock, emit, median, peak_rss_mb,
                     reference, segment, segment_summary, slowdown, timed,
                     timed_phase)

# ----------------------------------------------------------------------
# Read workloads: bulk_scan, tight_pool
# ----------------------------------------------------------------------
def run_reads(seconds, store, truth, main, solo, tally) -> Dict:
    """Closed loop, one caller thread calling ``store.lookup`` directly:
    five segments, each a main phase then a solo phase."""
    seconds /= spec.SEGMENTS

    def run_one(keys, check):
        return checked_lookup(store, truth, keys, tally, check)

    segments = []
    i_main = i_solo = 0
    for _ in range(spec.SEGMENTS):
        times, slow_main, i_main = timed_phase(
            seconds * (1 - spec.SOLO_SHARE), main, i_main, run_one)
        solo_times, slow_solo, i_solo = timed_phase(
            seconds * spec.SOLO_SHARE, solo, i_solo, run_one)
        segments.append(segment(times, main.shape[1], solo_times,
                                [slow_main, slow_solo]))
    return segment_summary(segments)


def trace_reads(seconds, store, truth, main, tally, tracer) -> Dict:
    """The traced pass of a read workload: default executor, then serial
    executor, then serial with every batch replayed stage by stage."""
    share = seconds / 4

    def run_one(keys, check):
        return checked_lookup(store, truth, keys, tally, check)

    default_times, _, index = timed_phase(share, main, 0, run_one)
    store.set_executor("serial")
    serial_times, _, index = timed_phase(share, main, index, run_one)

    counts = dict.fromkeys(tracing.COUNTS, 0.0)
    budget = 2 * share
    request = 0
    traced: List[float] = []
    references: List[float] = []
    while budget > 0:
        keys = main[index % len(main)]
        start = clock()
        tally.attempted += 1
        result, same, spent = tracing.traced_lookup(tracer, store, keys,
                                                    request, counts)
        traced.append(spent)
        references.append(reference())
        if not same:
            tally.fail("stage replay differs from the real lookup")
        elif truth.mismatches(keys, result.found, result.values["value"]):
            tally.fail("wrong answers in a traced batch")
        budget -= clock() - start
        index += 1
        request += 1

    metrics = stage_metrics(tracer, counts)
    metrics.update({
        "shard.fanout_speedup":
            median(serial_times) / median(default_times),
        # Both sides at the reference speed: the phases ran at different
        # times, and the box does not hold its speed between them.
        "trace_overhead_pct":
            (median(traced) / slowdown(references) / median(serial_times)
             - 1) * 100,
    })
    return metrics


def stage_metrics(tracer, counts) -> Dict[str, float]:
    """Per-key stage costs and the layer rows, from the recorded spans.

    A layer row is the median over traced operations of that layer's
    self time in the operation; ``traced_op_ms`` is the median operation.
    What the rows do not add up to is ``unattributed_ms``."""
    total = {name: sum(values)
             for name, values in tracer.seconds_by_name().items()}
    keys = max(counts["keys"], 1)
    hits = max(counts["hit_rows"], 1)

    def per(name, divisor):
        return total.get(name, 0.0) / divisor * 1e6

    batches = max(counts["batches"], 1)
    touches = counts["pool_hits"] + counts["pool_misses"]
    rows = list(tracer.layer_ms_by_request().values())
    metrics = {f"{layer}.self_ms_per_op":
               median([row.get(layer, 0.0) for row in rows])
               for layer in tracing.LAYERS}
    traced = median(list(tracer.op_ms_by_request().values()))
    metrics.update({
        "traced_op_ms": traced,
        "unattributed_ms": traced - sum(metrics.values()),
        "storage.pool_hit_rate":
            counts["pool_hits"] / touches if touches else 1.0,
        "storage.pool_evictions_per_op": counts["pool_evictions"] / batches,
        "storage.bytes_read_per_op": counts["bytes_read"] / batches,
        "storage.load_ms_per_op": counts["load_seconds"] / batches * 1e3,
        "shard.route_us_per_key": per("shard.route", keys),
        "data.flatten_us_per_key": per("data.flatten", keys),
        "core.exist_us_per_key": per("core.existence", keys),
        "core.aux_us_per_key": per("core.aux", hits),
        "nn.infer_us_per_key": per("nn.inference",
                                   max(counts["model_rows"], 1)),
        "data.decode_us_per_key": per("data.decode", keys),
        "nn.model_rows_share": counts["model_rows"] / hits,
        "shard.shards_touched_per_op": counts["shards_touched"] / batches,
    })
    return metrics


def plan_fixed_us(store, keys) -> float:
    """A whole plan on a 2-key segment: the per-shard fixed cost that a
    16-key request pays up to eight times."""
    shard = next(s for s in store.shards if s is not None)
    segment = {"key": np.sort(keys[:2])}
    times = [timed(lambda: shard.plan_lookup(segment, presorted=True)
                   .execute()) for _ in range(200)]
    return median(times) * 1e6


def trace_serve_depths(seconds, repro, store, truth, main, tally,
                       tracer) -> Dict:
    """``serve_point`` below the socket: the served request stream run
    directly (replayed by stage) and through the in-process serving
    client, one request outstanding, in alternating blocks of 32."""
    store.set_executor("serial")
    counts = dict.fromkeys(tracing.COUNTS, 0.0)
    client = repro.serving(store)
    untraced: List[float] = []
    direct: List[float] = []
    inproc: List[float] = []
    budget = seconds
    index = 0
    try:
        while budget > 0:
            start = clock()
            block = [main[(index + i) % len(main)] for i in range(32)]
            for keys in block:
                untraced.append(checked_lookup(store, truth, keys, tally,
                                               True))
            for keys in block:
                tally.attempted += 1
                result, same, spent = tracing.traced_lookup(
                    tracer, store, keys, index, counts)
                direct.append(spent)
                if not same or truth.mismatches(keys, result.found,
                                                result.values["value"]):
                    tally.fail("direct depth: wrong or unreplayable answer")
                index += 1
            for keys in block:
                tally.attempted += 1
                t0 = clock()
                result = client.lookup({"key": keys})
                inproc.append(clock() - t0)
                if truth.mismatches(keys, result.found,
                                    result.values["value"]):
                    tally.fail("in-process depth: wrong answer")
            budget -= clock() - start
    finally:
        client.close()
    metrics = stage_metrics(tracer, counts)
    metrics.update({
        # The three kinds of sample interleave within a fraction of a
        # second, so they compare as they are.
        "trace_overhead_pct": (median(direct) / median(untraced) - 1) * 100,
        "direct_p50_ms": median(direct) * 1e3,
        "inproc_p50_ms": median(inproc) * 1e3})
    return metrics


# ----------------------------------------------------------------------
# mutate_mix
# ----------------------------------------------------------------------
class DictModel:
    """The plain-dict model the store is compared with."""

    def __init__(self, keys, values):
        self.rows = dict(zip(keys.tolist(), values.tolist()))
        self.seen = set(self.rows)

    def apply(self, item) -> None:
        for part in ("insert", "update"):
            fresh = dict(zip(item[part]["key"].tolist(),
                             item[part]["value"].tolist()))
            self.rows.update(fresh)
            self.seen.update(fresh)
        for key in item["delete"].tolist():
            del self.rows[key]

    def mismatches(self, keys, result) -> int:
        answers = zip(keys.tolist(), result.found.tolist(),
                      result.values["value"].tolist())
        bad = 0
        for key, hit, value in answers:
            want = self.rows.get(key)
            if hit != (want is not None) or (hit and value != want):
                bad += 1
        return bad


def run_mutations(store, model, rounds, tally, tracer=None) -> Dict:
    """Rounds of insert / update / delete / read / small read, one
    caller.  With a ``tracer``, half of the cycles of ``APPEND_EVERY``
    rounds are traced; in a traced round every write call is a
    span and the read batch is replayed by stage.  A write that raises
    ends the run: the store and the model would no longer describe the
    same rows."""
    per_round = []
    counts = dict.fromkeys(tracing.COUNTS, 0.0)
    for number, item in enumerate(rounds):
        # Cycles run U T T U: a cost that grows with the round number
        # weighs on both halves alike.
        traced = tracer is not None \
            and (number // spec.APPEND_EVERY) % 4 in (1, 2)
        row = {"kind": item["kind"], "traced": traced, "reference": []}
        writes = (("insert", store.insert, item["insert"]),
                  ("update", store.update, item["update"]),
                  ("delete", store.delete, {"key": item["delete"]}))
        for part, call, argument in writes:
            tally.attempted += 1
            name = item["kind"] if part == "insert" else part
            if not traced:
                row[part] = timed(call, argument)
            else:
                with tracer.span(f"core.{name}", request=number) as span:
                    call(argument)
                row[part] = span.seconds
            row["reference"].append(reference())
        model.apply(item)
        for part in ("read", "solo"):
            keys = item[part]
            tally.attempted += 1
            if traced and part == "read":
                result, same, row[part] = tracing.traced_lookup(
                    tracer, store, keys, number, counts)
                if not same:
                    tally.fail("stage replay differs from the real lookup")
            else:
                start = clock()
                result = store.lookup({"key": keys})
                row[part] = clock() - start
            row["reference"].append(reference())
            if model.mismatches(keys, result):
                tally.fail(f"round {number}: wrong answer on {part}")
        per_round.append(row)
    return {"rounds": per_round, "counts": counts}


def mutation_summary(per_round: List[Dict]) -> Dict[str, float]:
    """The operation is the whole round (writes + read batch); the small
    read-after-write request is the solo.  Times are brought to the
    reference speed segment by segment, as in :func:`timed_phase`."""
    keys_per_round = (spec.ROUND_INSERT + spec.ROUND_UPDATE
                      + spec.ROUND_DELETE + spec.ROUND_READ)
    size = max(len(per_round) // spec.SEGMENTS, 1)
    segments = []
    for lo in range(0, len(per_round) - size + 1, size):
        chunk = per_round[lo:lo + size]
        factor = slowdown([t for r in chunk for t in r["reference"]])
        ops = [(r["insert"] + r["update"] + r["delete"] + r["read"]) / factor
               for r in chunk]
        solo = [r["solo"] / factor for r in chunk]
        segments.append(segment(ops, keys_per_round, solo, [factor]))
    return segment_summary(segments)


def mutation_trace_overhead(per_round: List[Dict]) -> float:
    """Median traced round over median untraced round, each at the
    reference speed of its own rounds, as a percentage."""
    def typical(rows):
        factor = slowdown([t for r in rows for t in r["reference"]])
        return median([r["insert"] + r["update"] + r["delete"] + r["read"]
                       for r in rows]) / factor

    traced = [r for r in per_round if r["traced"]]
    untraced = [r for r in per_round if not r["traced"]]
    return (typical(traced) / typical(untraced) - 1) * 100


def write_metrics(per_round: List[Dict], tracer=None) -> Dict[str, float]:
    """Per-kind write cost, and the stalls a median hides.  A call more
    than ``STALL_FACTOR`` times its kind's median is a lifecycle stall
    (a retrain or a split ran inside it); the excess is lifecycle time."""
    sizes = {"insert": spec.ROUND_INSERT, "append": spec.ROUND_INSERT,
             "update": spec.ROUND_UPDATE, "delete": spec.ROUND_DELETE}
    calls: Dict[str, List[float]] = {kind: [] for kind in sizes}
    for row in per_round:
        calls[row["kind"]].append(row["insert"])
        calls["update"].append(row["update"])
        calls["delete"].append(row["delete"])
    typical = {kind: median(times) for kind, times in calls.items()}
    metrics = {f"core.{kind}_us_per_row": typical[kind] / sizes[kind] * 1e6
               for kind in sizes}
    stall = 0.0
    for kind, times in calls.items():
        stall += sum(t - typical[kind] for t in times
                     if t > spec.STALL_FACTOR * typical[kind])
    if tracer is not None:
        for span in list(tracer.spans):
            kind = span.name.split(".", 1)[1]
            if span.name.startswith("core.") and kind in typical \
                    and span.seconds > spec.STALL_FACTOR * typical[kind]:
                tracer.record("lifecycle.stall",
                              span.seconds - typical[kind], parent=span)
    total = sum(sum(times) for times in calls.values())
    rows = len(per_round) * (spec.ROUND_INSERT + spec.ROUND_UPDATE
                             + spec.ROUND_DELETE)
    metrics.update({
        "core.write_rows_per_s": rows / total,
        "lifecycle.stall_s": stall,
        "lifecycle.max_stall_ms":
            max(max(times, default=0.0) for times in calls.values()) * 1e3,
    })
    return metrics


def final_equality(job, repro, store, model, tally) -> Dict[str, float]:
    """save -> reopen -> the whole store against the dict model."""
    path = job["store"] + ".end"
    save_s = timed(store.save, path)
    end = {"shard.n_shards_end": store.n_shards,
           "core.aux_ratio": store.aux_ratio(),
           "storage.save_s": save_s}
    summary = store.engine.summary()
    for name, key in (("retrains", "rebuilds"), ("splits", "splits"),
                      ("merges", "merges")):
        end[f"lifecycle.{name}"] = summary[key]
    store.close()
    tally.attempted += 1
    with repro.open(path, writable=False) as again:
        keys = np.array(sorted(model.seen), dtype=np.int64)
        bad = model.mismatches(keys, again.lookup({"key": keys}))
        if bad or len(again) != len(model.rows):
            tally.fail(f"after save and reopen: {bad} rows differ, "
                       f"{len(again)} live against {len(model.rows)}")
    end["bytes_per_row"] = spec.disk_bytes(path)["total"] / len(model.rows)
    return end


# ----------------------------------------------------------------------
def main(job_path: str) -> None:
    with open(job_path) as handle:
        job = json.load(handle)
    spec.import_product()
    import repro

    scale = spec.SMOKE if job["smoke"] else spec.FULL
    data = np.load(job["table"])
    keys, values = data["key"], data["value"]
    truth = inputs.Truth(keys, values)
    tally = Tally()
    workload = job["workload"]
    digests = {}

    # Inputs first: making them is the benchmark's cost, not the store's.
    if workload == "mutate_mix":
        # Whole cycles of APPEND_EVERY rounds, SEGMENTS of them at least,
        # so every segment holds the same mix.  The traced pass runs four
        # cycles: untraced and traced cycles alternate.
        cycles = 4 if job["trace"] else max(
            int(scale.rounds_per_second * job["seconds"]
                / (spec.APPEND_EVERY * spec.SEGMENTS)), 1) * spec.SEGMENTS
        n_rounds = cycles * spec.APPEND_EVERY
        warm = spec.APPEND_EVERY
        table = repro.ColumnTable({"key": keys, "value": values},
                                  key=("key",))
        rounds = inputs.mutation_rounds(table, job["seed"], warm + n_rounds)
        digests["rounds"] = inputs.rounds_digest(rounds)
        model = DictModel(keys, values)
        first = rounds[0]["read"]
    else:
        main_pool, solo_pool = inputs.request_pools(workload, job["seed"],
                                                    scale, keys)
        digests["requests"] = spec.digest(main_pool, solo_pool)
        first = main_pool[0]

    # Cold start: open, then the first answer.
    start = clock()
    if workload == "mutate_mix":
        store = repro.open(job["store"])
    else:
        store = repro.open(job["store"], writable=False,
                           pool_budget_bytes=job.get("pool_budget_bytes"))
    open_ms = (clock() - start) * 1e3
    compile_ms = timed(store.compile_engines) * 1e3
    first_lookup_ms = checked_lookup(store, truth, first, tally, True) * 1e3
    cold_start_ms = (clock() - start) * 1e3

    # Warm-up: every distinct request once, every answer checked.
    if workload == "mutate_mix":
        run_mutations(store, model, rounds[:warm], tally)
        rounds = rounds[warm:]
    else:
        for pool in (main_pool, solo_pool):
            for request in pool:
                checked_lookup(store, truth, request, tally, True)
    emit("ready", cold_start_ms=cold_start_ms, open_ms=open_ms,
         compile_ms=compile_ms, first_lookup_ms=first_lookup_ms,
         attempted=tally.attempted, failed=tally.failed, notes=tally.notes)
    if job["phase"] != "measure":
        store.close()
        return

    tracer = tracing.Tracer() if job["trace"] else None
    seconds = job["seconds"]
    metrics: Dict[str, float] = {}
    if workload == "mutate_mix":
        if tracer is not None:
            store.set_executor("serial")
        outcome = run_mutations(store, model, rounds, tally, tracer)
        metrics.update(mutation_summary(outcome["rounds"]))
        metrics.update(write_metrics(outcome["rounds"], tracer))
        if tracer is not None:
            metrics.update(stage_metrics(tracer, outcome["counts"]))
            metrics["trace_overhead_pct"] = mutation_trace_overhead(
                outcome["rounds"])
    elif tracer is None:
        metrics.update(run_reads(seconds, store, truth, main_pool, solo_pool,
                                 tally))
    elif workload == "serve_point":
        metrics.update(trace_serve_depths(seconds, repro, store, truth,
                                          main_pool, tally, tracer))
    else:
        metrics.update(trace_reads(seconds, store, truth, main_pool, tally,
                                   tracer))
    if tracer is not None:
        metrics["core.plan_fixed_us"] = plan_fixed_us(store, keys)
        tracer.write(os.path.join(job["out"], f"trace-{workload}.jsonl"))
    if workload == "mutate_mix":
        metrics.update(final_equality(job, repro, store, model, tally))
    else:
        metrics["shard.n_shards_end"] = store.n_shards
        store.close()
    emit("result", metrics=metrics, attempted=tally.attempted,
         failed=tally.failed, notes=tally.notes, digests=digests,
         peak_rss_mb=peak_rss_mb())


if __name__ == "__main__":
    main(sys.argv[1])
