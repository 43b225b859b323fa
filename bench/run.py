"""One end-to-end benchmark for the whole stack.

    python3 bench/run.py [--workload NAME]... [--seed N] [--seconds S]
                         [--trace 0|1] [--smoke] [--out DIR]
    python3 bench/run.py --compare A/results.json B/results.json

Per workload: set up (generate a table from ``--seed``, build the store,
save it, start the process that serves it, warm up), measure for
``--seconds``, check answers against the source table, and print every
metric by name with its unit.  ``--trace 1`` is a separate pass that
times the layers from outside and prints the per-layer metrics instead.
The last line of standard output is one JSON object for the (last)
workload: ``correct``, ``attempted``, ``failed``, ``metrics``.

See ``bench/README.md`` for the workloads, the metrics and how they
interact.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import threading
from typing import Dict, List, Optional

import spec

spec.import_product()

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import wire  # noqa: E402
from measure import (Tally, clock, median, peak_rss_mb,  # noqa: E402
                     percentile, segment, segment_summary, timed)

WORKER_TIMEOUT_S = 150.0


# ----------------------------------------------------------------------
# Set-up: generate -> build -> check -> save
# ----------------------------------------------------------------------
def build_store(scale, seed: int, path: str, tally: Tally) -> Dict:
    """One timed set-up of the shared store.  The answer check (the whole
    table against its source) runs with the clock stopped."""
    import repro

    times = {}
    started = clock()
    table = spec.generate_table(scale.rows, seed)
    times["data.generate_s"] = clock() - started
    config, sharding = spec.store_configs()
    started = clock()
    store = repro.build(table, config, sharding=sharding)
    times["store.build_s"] = clock() - started

    keys = np.asarray(table.column("key"), dtype=np.int64)
    values = np.asarray(table.column("value"))
    tally.attempted += 1
    result = store.lookup({"key": keys})
    if not result.found.all() or (result.values["value"] != values).any():
        tally.fail("the freshly built store does not return its table")
    report = store.size_report()
    facts = {
        # Every partition is resident after the full lookup above.
        "aux_resident_bytes": store.pool.peak_bytes,
        "core.aux_ratio": store.aux_ratio(),
        "core.paper_bytes_per_row": report.total_bytes / scale.rows,
        "core.model_bytes": report.model_bytes,
        "core.aux_bytes": report.aux_bytes,
        "core.exist_bytes": report.exist_bytes,
        "core.decode_bytes": report.decode_bytes,
    }
    times["storage.save_s"] = timed(store.save, path)
    store.close()
    sizes = spec.disk_bytes(path)
    facts.update({
        "bytes_per_row": sizes["total"] / scale.rows,
        "storage.shard_payload_bytes": sizes["payload"],
        "storage.manifest_bytes": sizes["manifest"],
        "storage.disk_over_paper_ratio":
            sizes["total"] / report.total_bytes,
    })
    return {"keys": keys, "values": values, "times": times, "facts": facts,
            "seconds": sum(times.values()),
            "table_sha256": spec.digest(keys, values)}


# ----------------------------------------------------------------------
# The worker process (direct workloads)
# ----------------------------------------------------------------------
class Worker:
    """``worker.py`` started on a job, warmed up and ready."""

    def __init__(self, job: Dict, work: str, tally: Tally):
        job_path = os.path.join(work, f"job-{os.path.basename(job['store'])}"
                                      f"-{job['phase']}.json")
        with open(job_path, "w") as handle:
            json.dump(job, handle)
        self.process = subprocess.Popen(
            [sys.executable, os.path.join(spec.BENCH_DIR, "worker.py"),
             job_path], stdout=subprocess.PIPE, text=True)
        # A worker that hangs must not hang the run.
        self.watchdog = threading.Timer(WORKER_TIMEOUT_S, self.process.kill)
        self.watchdog.start()
        try:
            self.ready = self.event("ready")
        except BaseException:
            self.close()
            raise
        absorb(tally, self.ready)
        self.cold_start_ms = self.ready["cold_start_ms"]

    def event(self, name: str) -> Dict:
        """Block until the worker prints event ``name``."""
        for line in self.process.stdout:
            if line.startswith("{"):
                message = json.loads(line)
                if message.get("event") == name:
                    return message
        self.process.wait()
        raise RuntimeError(f"the worker ended (code "
                           f"{self.process.returncode}) before '{name}'")

    def close(self) -> None:
        """Wait until the process has ended (the watchdog bounds it); a
        worker still running has nothing left to report, so kill it."""
        if not self.process.stdout.closed:
            self.process.stdout.close()
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        self.watchdog.cancel()


def absorb(tally: Tally, message: Dict) -> None:
    tally.attempted += message["attempted"]
    tally.failed += message["failed"]
    tally.notes += message["notes"]


# ----------------------------------------------------------------------
# serve_point: the client side
# ----------------------------------------------------------------------
class ServeSession:
    """A started server, its connections and the encoded request pools."""

    def __init__(self, store_path: str, scale, seed: int, truth, tally):
        self.truth, self.tally = truth, tally
        self.main, self.solo = inputs.request_pools("serve_point", seed,
                                                    scale, truth.keys)
        self.fanin_bodies = wire.encode_requests(self.main, "fanin")
        self.solo_bodies = wire.encode_requests(self.solo, "solo")
        self.connections: List[wire.Connection] = []
        self.solo_connection: Optional[wire.Connection] = None
        started = clock()
        self.server = wire.Server(store_path)
        try:
            for _ in range(spec.FANIN_CONNECTIONS + 1):
                self.connections.append(wire.Connection(self.server.port))
            self.solo_connection = self.connections.pop()
            # Cold start: spawn -> serving -> first answer.
            self.run_solo(seconds=60.0, limit=1, check_all=True)
            self.cold_start_ms = (clock() - started) * 1e3
            # Warm-up: every distinct request once, every answer checked.
            self.run_fanin(seconds=60.0, check_all=True,
                           limit=len(self.main) // spec.FANIN_CONNECTIONS)
            self.run_solo(seconds=60.0, limit=len(self.solo),
                          check_all=True)
        except BaseException:
            self.close()
            raise

    def run_solo(self, seconds, bodies=None, limit=None, check_all=False):
        trips, replies, factor = wire.closed_loop(
            self.solo_connection, bodies or self.solo_bodies, seconds,
            depth=1, check_all=check_all, limit=limit)
        wire.check_replies(self.truth, self.solo, replies, len(trips),
                           self.tally)
        return trips, factor

    def run_fanin(self, seconds, limit=None, check_all=False):
        trips, replies, wall, factor = wire.fan_in(
            self.connections, self.fanin_bodies, seconds,
            check_all=check_all, limit=limit)
        wire.check_replies(self.truth, self.main, replies, len(trips),
                           self.tally)
        return trips, wall, factor

    def close(self) -> None:
        for connection in self.connections + [self.solo_connection]:
            if connection is not None:
                connection.close()
        self.server.stop()


def measure_serve(session: ServeSession, seconds: float) -> Dict:
    """Closed loop: 2 connections x 8 pipelined requests (``fanin``),
    then 1 connection x 1 outstanding (``solo``), in each segment."""
    share = seconds / spec.SEGMENTS
    segments = []
    for _ in range(spec.SEGMENTS):
        trips, wall, slow_fanin = session.run_fanin(
            share * (1 - spec.SOLO_SHARE))
        solo, slow_solo = session.run_solo(share * spec.SOLO_SHARE)
        # Throughput from the phase's wall time, not the sum of round
        # trips: sixteen requests are in flight at once.
        one = segment(trips, spec.REQUEST_KEYS, solo,
                      [slow_fanin, slow_solo])
        one["keys_per_s"] = len(trips) * spec.REQUEST_KEYS / wall
        segments.append(one)
    return segment_summary(segments)


def trace_serve(session: ServeSession, seconds: float) -> Dict:
    """The socket depth of the traced pass: solo with and without a
    deadline in alternating blocks, then fan-in between two ``stats``
    snapshots, then the wire and batch steps on recorded traffic."""
    deadline_bodies = wire.encode_requests(session.solo, "solo_deadline",
                                           deadline_ms=30000.0)

    def wall_clock(trips, factor):
        """This table is wall-clock, like the spans and the server's own
        latency it is compared with: a round trip holds a 2 ms timer
        wait that no CPU slowdown stretches, so normalised round trips
        from two phases do not subtract.  Undo the normalisation."""
        return [t * factor for t in trips]

    plain: List[float] = []
    bounded: List[float] = []
    for _ in range(4):
        trips, factor = session.run_solo(seconds / 16)
        plain += wall_clock(trips, factor)
        trips, factor = session.run_solo(seconds / 16, deadline_bodies)
        bounded += wall_clock(trips, factor)
    before = session.solo_connection.stats()
    trips, _, factor = session.run_fanin(seconds / 2)
    trips = wall_clock(trips, factor)
    after = session.solo_connection.stats()

    def delta(name):
        return after[name] - before[name]

    # Misses sent in the fan-in phase, after cross-request dedup is
    # unknown from outside; the share is of the misses as sent.
    misses_sent = len(trips) * round(
        spec.REQUEST_KEYS * sum(spec.REQUEST_MIX[2:]))
    solo_p50 = median(plain)
    server_p50 = after["tenants"]["solo"]["p50_seconds"]
    metrics = {
        "traced_op_ms": solo_p50 * 1e3,
        "serve.start_ms": session.server.start_ms,
        "serve.transport_ms": (solo_p50 - server_p50) * 1e3,
        "serve.coalesce_ratio":
            delta("requests_coalesced") / max(delta("batches_formed"), 1),
        "serve.dedup_ratio":
            delta("keys_coalesced") / max(delta("unique_keys"), 1),
        "serve.batches_formed": delta("batches_formed"),
        "serve.max_queue_depth": after["max_queue_depth"],
        "serve.shed": delta("shed"),
        "serve.rejected": delta("rejected"),
        "serve.rtt_p99_ms": percentile(trips, 99) * 1e3,
        "core.filter_pruned_share":
            delta("keys_pruned") / max(misses_sent, 1),
        "resilience.deadline_overhead_pct":
            (median(bounded) - solo_p50) / solo_p50 * 100.0,
        "resilience.deadline_expired": after["deadline_expired"],
        "resilience.hedges_launched": after["hedges"]["launched"],
    }
    metrics.update(wire_step_costs(session))
    return metrics


def wire_step_costs(session: ServeSession) -> Dict[str, float]:
    """The serving tier's own steps, timed on recorded traffic: decode a
    request line, merge a window's worth of requests, scatter the batch
    result back, encode a reply."""
    from repro import LookupResult
    from repro.serve.batcher import (PendingRequest, merge_requests,
                                     scatter_result)
    from repro.serve.transport import encode_result

    window = spec.FANIN_CONNECTIONS * spec.FANIN_PIPELINE
    lines = [b'{"id": 0' + body for body in session.fanin_bodies[:256]]
    n_keys = len(lines) * spec.REQUEST_KEYS
    decoded = []
    started = clock()
    for line in lines:
        message = json.loads(line)
        decoded.append({name: np.asarray(column)
                        for name, column in message["keys"].items()})
    decode_s = clock() - started

    merge_s = scatter_s = encode_s = 0.0
    for lo in range(0, len(decoded), window):
        requests = [PendingRequest(cols, "fanin", None, 0.0)
                    for cols in decoded[lo:lo + window]]
        started = clock()
        unique, inverse, slices = merge_requests(("key",), requests)
        merge_s += clock() - started
        found, values = session.truth.expect(unique["key"])
        batch = LookupResult(found=found, values={"value": values})
        started = clock()
        parts = [scatter_result(batch, inverse, a, b) for a, b in slices]
        scatter_s += clock() - started
        started = clock()
        for part in parts:
            json.dumps(encode_result(part))
        encode_s += clock() - started
    return {"serve.wire_decode_us_per_key": decode_s / n_keys * 1e6,
            "serve.merge_us_per_key": merge_s / n_keys * 1e6,
            "serve.scatter_us_per_key": scatter_s / n_keys * 1e6,
            "serve.wire_encode_us_per_key": encode_s / n_keys * 1e6}


# ----------------------------------------------------------------------
# One workload, one run
# ----------------------------------------------------------------------
def set_up(workload: str, args, scale, work: str, repeat: int,
           tally: Tally, measure: bool):
    """One timed set-up: build and save the store, then start the
    process that holds it and wait until it has warmed up.  Returns
    ``(seconds, built, holder)``; the holder is a :class:`ServeSession`
    for untraced ``serve_point`` and a :class:`Worker` otherwise."""
    store_path = os.path.join(work, f"{workload}-{repeat}.dms")
    built = build_store(scale, args.seed, store_path, tally)
    built["store"] = store_path
    built["truth"] = inputs.Truth(built["keys"], built["values"])
    started = clock()
    if workload == "serve_point" and not args.trace:
        holder = ServeSession(store_path, scale, args.seed, built["truth"],
                              tally)
    else:
        table_path = os.path.join(work, "table.npz")
        np.savez(table_path, key=built["keys"], value=built["values"])
        budget = int(built["facts"]["aux_resident_bytes"] * spec.POOL_SHARE)
        holder = Worker({
            "workload": workload, "store": store_path, "table": table_path,
            "seed": args.seed, "seconds": args.seconds,
            "trace": bool(args.trace), "smoke": args.smoke, "out": args.out,
            "phase": "measure" if measure else "setup",
            "pool_budget_bytes":
                max(budget, 1) if workload == "tight_pool" else None},
            work, tally)
    return built["seconds"] + clock() - started, built, holder


def run_workload(workload: str, args, work: str) -> Dict:
    scale = spec.SMOKE if args.smoke else spec.FULL
    tally = Tally()
    repeats = 1 if args.trace else scale.setup_repeats
    setup_seconds: List[float] = []
    cold_starts: List[float] = []
    for repeat in range(repeats):
        last = repeat == repeats - 1
        seconds, built, holder = set_up(workload, args, scale, work, repeat,
                                        tally, measure=last)
        setup_seconds.append(seconds)
        cold_starts.append(holder.cold_start_ms)
        if not last:
            holder.close()

    metrics: Dict[str, float] = dict(built["facts"])
    metrics.update(built["times"])
    metrics["setup_s"] = median(setup_seconds)
    metrics["storage.cold_start_ms"] = median(cold_starts)
    digests = {"table": built["table_sha256"]}
    try:
        if isinstance(holder, ServeSession):
            metrics.update(measure_serve(holder, args.seconds))
            metrics["peak_rss_mb"] = peak_rss_mb(holder.server.process.pid)
            digests["requests"] = spec.digest(holder.main, holder.solo)
        else:
            result = holder.event("result")
            absorb(tally, result)
            # After the build's facts: mutate_mix reports the store it
            # saved at the end, not the one it started from.
            metrics.update(result["metrics"])
            metrics["peak_rss_mb"] = result["peak_rss_mb"]
            metrics.update({
                "storage.open_ms": holder.ready["open_ms"],
                "nn.compile_ms": holder.ready["compile_ms"],
                "storage.first_lookup_ms": holder.ready["first_lookup_ms"]})
            digests.update(result["digests"])
    finally:
        holder.close()
    if workload == "serve_point" and args.trace:
        # The worker measured the depths below the socket; now the socket.
        session = ServeSession(built["store"], scale, args.seed,
                               built["truth"], tally)
        try:
            metrics.update(serve_layer_rows(
                metrics, trace_serve(session, args.seconds)))
        finally:
            session.close()
    return {"workload": workload, "metrics": metrics,
            "attempted": tally.attempted, "failed": tally.failed,
            "notes": tally.notes, "digests": digests,
            "setup_samples": setup_seconds}


def serve_layer_rows(below: Dict, socket_metrics: Dict) -> Dict:
    """``serve_point``'s layer table is of the solo round trip: the rows
    below the serving tier come from the direct depth, the serving
    tier's row is batch wait + transport, both differences of medians."""
    rows = dict(socket_metrics)
    rows["serve.batch_wait_ms"] = (below["inproc_p50_ms"]
                                   - below["direct_p50_ms"])
    rows["serve.self_ms_per_op"] = (rows["serve.batch_wait_ms"]
                                    + rows["serve.transport_ms"])
    layers = sum(below[f"{layer}.self_ms_per_op"]
                 for layer in ("data", "nn", "core", "storage", "shard"))
    rows["unattributed_ms"] = (rows["traced_op_ms"] - layers
                               - rows["serve.self_ms_per_op"])
    return rows


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def contract_line(result: Dict, declared: List[Dict]) -> str:
    metrics = {}
    for entry in declared:
        value = float(result["metrics"].get(entry["name"], 0.0))
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return json.dumps({"correct": result["failed"] == 0,
                       "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def print_table(result: Dict, declared: List[Dict]) -> None:
    print(f"== {result['workload']}: {result['attempted']} operations "
          f"attempted, {result['failed']} failed")
    for note in result["notes"]:
        print(f"   ! {note}")
    for entry in declared:
        value = result["metrics"].get(entry["name"], 0.0)
        print(f"   {entry['name']:<34}{value:>16.6g} {entry['unit']}")
    extra = result["metrics"]
    if "samples" in extra:
        print(f"   (operations timed: {extra['samples']}, solo requests "
              f"timed: {extra['solo_samples']}, set-ups: "
              f"{len(result['setup_samples'])}; timings at the reference "
              f"speed, the box ran {extra['slowdown']:.2f}x slower)")


def describe_host(args) -> Dict:
    try:
        commit = subprocess.run(
            ["git", "-C", spec.ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    scale = spec.SMOKE if args.smoke else spec.FULL
    return {"commit": commit or "unknown", "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "seed": args.seed, "seconds": args.seconds,
            "trace": bool(args.trace), "scale": dataclasses.asdict(scale),
            "round": {"insert": spec.ROUND_INSERT,
                      "update": spec.ROUND_UPDATE,
                      "delete": spec.ROUND_DELETE, "read": spec.ROUND_READ,
                      "append_every": spec.APPEND_EVERY},
            "request_keys": spec.REQUEST_KEYS,
            "fanin": [spec.FANIN_CONNECTIONS, spec.FANIN_PIPELINE]}


def compare(path_a: str, path_b: str) -> int:
    """Do two result sets agree within the bounds of ``BENCHMARK.json``?
    ``B`` is judged against ``A``, metric by metric, workload by
    workload."""
    with open(path_a) as handle:
        a = json.load(handle)
    with open(path_b) as handle:
        b = json.load(handle)
    declared = spec.load_benchmark_json()["end_to_end"]
    worst = 0
    same_seed = a["meta"]["seed"] == b["meta"]["seed"]
    for workload, run_a in a["workloads"].items():
        run_b = b["workloads"].get(workload)
        if run_b is None:
            print(f"{workload}: missing from {path_b}")
            worst = 1
            continue
        if same_seed and run_a["digests"] != run_b["digests"]:
            print(f"{workload}: same seed, different generated inputs "
                  f"(has repro.data changed?)")
            worst = 1
        if run_a["failed"] or run_b["failed"]:
            print(f"{workload}: failed operations "
                  f"({run_a['failed']} / {run_b['failed']})")
            worst = 1
        for entry in declared:
            name = entry["name"]
            va, vb = run_a["metrics"][name], run_b["metrics"][name]
            worse = (vb - va) / va if entry["better"] == "lower" \
                else (va - vb) / va
            verdict = "ok" if worse <= entry["bound"] else "WORSE"
            if verdict != "ok":
                worst = 1
            print(f"{workload:<12}{name:<16}{va:>14.6g}{vb:>14.6g} "
                  f"{entry['unit']:<7}{worse * 100:>+8.2f}% of "
                  f"{entry['bound'] * 100:.0f}%  {verdict}")
    return worst


def main(argv: Optional[List[str]] = None) -> int:
    benchmark = spec.load_benchmark_json()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=spec.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=benchmark["run_seconds"])
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="20k rows, one set-up: seconds, not minutes")
    parser.add_argument("--out", help="keep results.json and the traces "
                                      "here (a directory)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)

    os.makedirs(spec.WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=spec.WORK_DIR)
    # The product keeps aux partitions in tempfile directories; keep them
    # (ours and every child process's) inside the checkout too.
    os.environ["TMPDIR"] = tempfile.tempdir = work
    keep = args.out
    args.out = os.path.abspath(args.out) if args.out else work
    os.makedirs(args.out, exist_ok=True)
    declared = benchmark["per_layer" if args.trace else "end_to_end"]
    results = []
    try:
        for workload in args.workload or spec.WORKLOADS:
            result = run_workload(workload, args, work)
            print_table(result, declared)
            results.append(result)
        if keep:
            with open(os.path.join(args.out, "results.json"), "w") as handle:
                json.dump({"meta": describe_host(args),
                           "workloads": {r["workload"]: r
                                         for r in results}}, handle,
                          indent=1)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for result in results:
        print(contract_line(result, declared))
    return 0 if all(r["failed"] == 0 for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
