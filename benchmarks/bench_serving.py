"""Coalescing serving benchmark: closed-loop latency/throughput vs load.

The serving tier (``repro.serve``) exists because many small concurrent
lookups are far cheaper fused into one batched call than executed one by
one — batched throughput scales with batch size (``keys_per_s`` @
``bulk_scan`` vs ``serve_point`` in ``bench/``), so a coalescer that
merges a 64-client burst into a few
store calls should beat 64 sequential per-request lookups by a wide
margin.  This benchmark measures that claim closed-loop:

- **baseline**: each request is one direct ``store.lookup`` of its own
  keys, issued back to back from a single caller — the "no server"
  sequential per-request path.
- **coalesced**: the same requests fan out from N concurrent clients
  through ``repro.serve.Client``; the admission window merges them into
  few fused-gather batches.

For each offered concurrency level the report records requests/s,
keys/s, p50/p99 request latency, coalesce ratio, and batches formed.
Acceptance gate (tracked in ``BENCH_serving.json`` at the repo root):
coalesced throughput must be **>= 2x** the sequential baseline at 64
concurrent clients.  Every response is asserted bit-identical to direct
lookup before any timing counts.  Run::

    PYTHONPATH=src python benchmarks/bench_serving.py           # full
    PYTHONPATH=src python benchmarks/bench_serving.py --smoke   # CI

Smoke mode shrinks the build and request volume to CI seconds, still
asserts parity everywhere, and gates on coalesced >= the sequential
baseline (noise floor) rather than the full 2x bar.  Smoke JSON goes
under ``benchmarks/results/``.
"""

import argparse
import json
import os
import threading
import time

import numpy as np

import repro
from repro.bench import format_table
from repro.core import DeepMappingConfig
from repro.resilience.hedging import HedgeController, HedgePolicy
from repro.serve import (AdmissionPolicy, LoadShedder, QueueFullError,
                         ServeStats, SheddingPolicy)
from repro.shard import ShardedDeepMapping, ShardingConfig
from repro.testing import break_shard

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "results")

ACCEPTANCE_SPEEDUP = 2.0   # coalesced vs sequential at 64 clients, full run
ACCEPTANCE_CLIENTS = 64
SMOKE_FLOOR = 1.0          # CI gate: coalesced must not lose to sequential
#: Healthy-path cost of the resilience layer: arming a (generous)
#: per-request deadline must not move p50 by more than this at the top
#: concurrency level.  Gated on full runs only — smoke runs record the
#: number but p50s there are too small/noisy for a 3% gate.
OVERHEAD_LIMIT_PCT = 3.0
OVERHEAD_DEADLINE_MS = 30_000.0
#: Interleaved plain/armed measurement pairs; each arm gates on its
#: best-of-N p50 so runner drift cannot land on one arm only.  The
#: per-run p50 is bimodal on small runners (batch-formation timing
#: splits runs into a fast and a slow mode ~40% apart), so N must be
#: large enough that both arms sample the fast mode.
OVERHEAD_PAIRS = 10
#: The overhead arms run a longer workload than the throughput levels:
#: more batch waves per run average out the mode split, tightening the
#: per-arm floor the gate compares.
OVERHEAD_REQUESTS_PER_CLIENT = 24

# --- overload / degradation gates (the ``--overload`` section) -------------
#: Light tenants' p99 under a 2x flood (one tenant at 80% of offered
#: load) vs the same light trickle uncontended.
OVERLOAD_P99_FACTOR = 3.0
#: Successfully served keys/s under the flood vs the tier's measured
#: uncontended capacity — overload must degrade to shed work early, not
#: collapse into wasted service.
OVERLOAD_GOODPUT_FLOOR = 0.70
#: Smoke runs keep structural gates (zero lost, light tenants served)
#: but relax the timing-sensitive ones for small shared runners.
OVERLOAD_SMOKE_P99_FACTOR = 6.0
OVERLOAD_SMOKE_GOODPUT_FLOOR = 0.50
#: Hedged reads: chaos-slowed shard's p99 vs the healthy p99 with
#: hedging on, and the healthy-path hedge rate bound.  Smoke stores are
#: tiny, so the fixed rescue cost (hedge delay + one retry) dwarfs the
#: per-shard work the ratio is meant to amortize against — smoke keeps
#: the structural check (hedged beats unhedged) but relaxes the ratio.
#: The healthy hedge rate is gated on full runs only, like the deadline
#: overhead: a smoke run's 80 healthy lookups are too few batches for a
#: rate (a handful of jitter hedges on a 2-vCPU runner reads 0.10-0.18),
#: so smoke reports it and does not gate on it.
HEDGE_TAIL_FACTOR = 2.0
HEDGE_SMOKE_TAIL_FACTOR = 4.0
HEDGE_RATE_LIMIT = 0.10


def bench_config(smoke: bool) -> DeepMappingConfig:
    return DeepMappingConfig(
        epochs=2 if smoke else 6,
        batch_size=4096,
        shared_sizes=(48,),
        private_sizes=(24,),
    )


def build_store(rows: int, shards: int, smoke: bool):
    from repro.data import synthetic

    table = synthetic.single_column(rows, "high", seed=11, domain_factor=2.0)
    store = ShardedDeepMapping.fit(table, bench_config(smoke),
                                   ShardingConfig(n_shards=shards))
    return table, store


def build_workload(table, n_clients: int, requests_per_client: int,
                   keys_per_request: int, seed: int):
    """Per-client request lists with a realistic mixed key profile:
    ~40% live keys, ~20% shared hot keys (cross-request dedup), the rest
    in-domain and out-of-domain misses."""
    rng = np.random.default_rng(seed)
    key_name = table.key[0]
    live = np.asarray(table.column(key_name), dtype=np.int64)
    hot = rng.choice(live, size=32, replace=False)
    lo, hi = int(live.min()), int(live.max())

    def one_request():
        n_live = int(keys_per_request * 0.4)
        n_hot = int(keys_per_request * 0.2)
        n_miss = keys_per_request - n_live - n_hot
        keys = np.concatenate([
            rng.choice(live, size=n_live, replace=True),
            rng.choice(hot, size=n_hot, replace=True),
            rng.integers(lo, hi + (hi - lo) // 2, size=n_miss,
                         dtype=np.int64),
        ])
        rng.shuffle(keys)
        return {key_name: keys}

    return [[one_request() for _ in range(requests_per_client)]
            for _ in range(n_clients)]


def assert_identical(result, reference, label):
    assert np.array_equal(result.found, reference.found), label
    for column, want in reference.values.items():
        assert np.array_equal(result.values[column], want), (label, column)


def run_sequential_baseline(store, workload):
    """All requests back to back, one direct lookup each (no server)."""
    flat = [query for client in workload for query in client]
    for query in flat[:2]:
        store.lookup(query)  # warm engines / pools outside the timer
    start = time.perf_counter()
    latencies = []
    for query in flat:
        t0 = time.perf_counter()
        store.lookup(query)
        latencies.append(time.perf_counter() - t0)
    elapsed = time.perf_counter() - start
    total_keys = sum(len(next(iter(q.values()))) for q in flat)
    return {
        "requests": len(flat),
        "seconds": elapsed,
        "requests_per_second": len(flat) / elapsed,
        "keys_per_second": total_keys / elapsed,
        "p50_ms": float(np.percentile(latencies, 50)) * 1e3,
        "p99_ms": float(np.percentile(latencies, 99)) * 1e3,
    }


def run_coalesced(store, workload, policy, deadline_ms=None):
    """The same workload offered by concurrent closed-loop clients
    through the coalescing server; parity asserted on every response.
    ``deadline_ms`` arms a per-request budget on every lookup (the
    resilience-overhead variant)."""
    stats = ServeStats()
    oracle = [[store.lookup(query) for query in client]
              for client in workload]
    errors = []
    latencies = []
    latency_lock = threading.Lock()
    barrier = threading.Barrier(len(workload) + 1)

    with repro.serving(store, policy=policy, stats=stats) as client:
        def drive(index):
            mine = []
            barrier.wait()
            for query, want in zip(workload[index], oracle[index]):
                t0 = time.perf_counter()
                got = client.lookup(query, deadline_ms=deadline_ms)
                mine.append(time.perf_counter() - t0)
                try:
                    assert_identical(got, want, f"client {index}")
                except AssertionError as exc:
                    errors.append(str(exc))
            with latency_lock:
                latencies.extend(mine)

        threads = [threading.Thread(target=drive, args=(i,), daemon=True)
                   for i in range(len(workload))]
        for thread in threads:
            thread.start()
        barrier.wait()
        start = time.perf_counter()
        for thread in threads:
            thread.join(timeout=300)
            assert not thread.is_alive(), "client thread hung"
        elapsed = time.perf_counter() - start
        snap = stats.snapshot()

    assert not errors, errors[0]
    n_requests = sum(len(client_queries) for client_queries in workload)
    total_keys = sum(len(next(iter(q.values())))
                     for client_queries in workload
                     for q in client_queries)
    return {
        "clients": len(workload),
        "requests": n_requests,
        "seconds": elapsed,
        "requests_per_second": n_requests / elapsed,
        "keys_per_second": total_keys / elapsed,
        "p50_ms": float(np.percentile(latencies, 50)) * 1e3,
        "p99_ms": float(np.percentile(latencies, 99)) * 1e3,
        "batches_formed": snap["batches_formed"],
        "coalesce_ratio": snap["coalesce_ratio"],
        "dedup_ratio": snap["dedup_ratio"],
    }


# ---------------------------------------------------------------------------
# Overload / graceful degradation (--overload)
# ---------------------------------------------------------------------------
def _request_maker(table, keys_per_request: int, seed: int):
    """Seeded factory of mixed hit/miss requests (thread-confined rng)."""
    rng = np.random.default_rng(seed)
    key_name = table.key[0]
    live = np.asarray(table.column(key_name), dtype=np.int64)
    lo, hi = int(live.min()), int(live.max())

    def one_request():
        n_live = int(keys_per_request * 0.6)
        keys = np.concatenate([
            rng.choice(live, size=n_live, replace=True),
            rng.integers(lo, hi + (hi - lo) // 2,
                         size=keys_per_request - n_live, dtype=np.int64),
        ])
        return {key_name: keys}

    return one_request


def _run_light_tenants(client, table, duration_s: float, pace_s: float,
                       keys_per_request: int, seed: int, n_tenants: int = 4):
    """Closed-loop light tenants, paced, retrying typed sheds with the
    server's retry-after hint.  Returns per-success latencies (seconds,
    final attempt only) and the count of requests that never got through.
    """
    latencies = []
    failures = [0]
    served_keys = [0]
    lock = threading.Lock()

    def drive(index):
        make = _request_maker(table, keys_per_request, seed + index)
        tenant = f"light-{index}"
        deadline = time.perf_counter() + duration_s
        mine = []
        while time.perf_counter() < deadline:
            query = make()
            for _attempt in range(50):
                t0 = time.perf_counter()
                try:
                    client.lookup(query, tenant=tenant)
                except QueueFullError as exc:
                    time.sleep(getattr(exc, "retry_after_s", None) or 0.005)
                    continue
                mine.append(time.perf_counter() - t0)
                break
            else:
                with lock:
                    failures[0] += 1
            time.sleep(pace_s)
        with lock:
            latencies.extend(mine)
            served_keys[0] += len(mine) * keys_per_request

    threads = [threading.Thread(target=drive, args=(i,), daemon=True)
               for i in range(n_tenants)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300)
        assert not thread.is_alive(), "light tenant thread hung"
    return latencies, failures[0], served_keys[0]


def run_overload(store, table, smoke: bool):
    """The degradation-ladder scenario: 2x offered load, 80% from one
    flooding tenant, light tenants trickling alongside.

    Three measured phases: (1) a saturating closed-loop probe pins the
    tier's uncontended capacity, (2) the light trickle alone pins the
    uncontended light p99, (3) the flood phase offers 2x capacity —
    80% open-loop from tenant ``flood``, the rest the same light
    trickle — through a quota + shedder policy.  A final wave is
    submitted and immediately drained to prove zero admitted work is
    lost to shutdown.
    """
    keys_per_request = 16
    flood_keys = 64
    duration_s = 2.0 if smoke else 5.0
    policy = AdmissionPolicy(max_batch_keys=4096, max_delay_ms=2.0,
                             tenant_quota_keys=4096)

    # Phase 1: capacity probe (8 unpaced closed-loop clients).
    probe_workload = build_workload(table, 8, 4 if smoke else 10,
                                    keys_per_request, seed=7_001)
    probe = run_coalesced(store, probe_workload, policy)
    capacity_kps = probe["keys_per_second"]

    # Phase 2: light trickle alone — the uncontended baseline.
    light_pace = keys_per_request / max(capacity_kps * 0.05, 1.0)
    with repro.serving(store, policy=policy, stats=ServeStats()) as client:
        baseline_lat, baseline_failures, _ = _run_light_tenants(
            client, table, duration_s, light_pace, keys_per_request,
            seed=7_100)
    assert baseline_failures == 0, "light tenants failed uncontended"
    p99_uncontended_ms = float(np.percentile(baseline_lat, 99)) * 1e3

    # Phase 3: the flood.  Offered load = 2x capacity; the flooding
    # tenant submits 80% of it open-loop.
    shedder = LoadShedder(SheddingPolicy(target_delay_ms=20.0,
                                         hard_delay_ms=200.0,
                                         min_observations=1))
    stats = ServeStats()
    client = repro.serving(store, policy=policy, stats=stats,
                           shedder=shedder)
    flood_futures = []
    flood_interval = flood_keys / (2.0 * capacity_kps * 0.8)
    stop_flood = threading.Event()

    def flood():
        make = _request_maker(table, flood_keys, seed=7_200)
        while not stop_flood.is_set():
            flood_futures.append(client.submit(make(), tenant="flood"))
            time.sleep(flood_interval)

    flooder = threading.Thread(target=flood, daemon=True)
    phase_start = time.perf_counter()
    flooder.start()
    light_lat, light_failures, light_served_keys = _run_light_tenants(
        client, table, duration_s, light_pace, keys_per_request, seed=7_300)
    stop_flood.set()
    flooder.join(timeout=60)

    flood_served = flood_shed = flood_errors = 0
    for future in flood_futures:
        try:
            future.result(timeout=60)
            flood_served += 1
        except QueueFullError:
            flood_shed += 1
        except Exception:
            flood_errors += 1
    phase_seconds = time.perf_counter() - phase_start
    served_kps = (flood_served * flood_keys + light_served_keys) \
        / phase_seconds
    goodput_ratio = served_kps / capacity_kps
    p99_flooded_ms = float(np.percentile(light_lat, 99)) * 1e3 \
        if light_lat else float("inf")
    p99_factor = p99_flooded_ms / max(p99_uncontended_ms, 1e-9)

    # Phase 4: drain under fire — a final wave, then drain(); every
    # admitted request must settle (served or typed-shed), none lost.
    make = _request_maker(table, flood_keys, seed=7_400)
    wave = [client.submit(make(), tenant="flood") for _ in range(16)]
    drain_report = client.drain(timeout=120)
    lost = 0
    for future in wave:
        try:
            future.result(timeout=60)
        except QueueFullError:
            pass
        except Exception:
            lost += 1
    snap = stats.snapshot()

    p99_limit = OVERLOAD_SMOKE_P99_FACTOR if smoke else OVERLOAD_P99_FACTOR
    goodput_floor = OVERLOAD_SMOKE_GOODPUT_FLOOR if smoke \
        else OVERLOAD_GOODPUT_FLOOR
    return {
        "duration_s": duration_s,
        "capacity_keys_per_second": capacity_kps,
        "offered_multiple": 2.0,
        "flood_share": 0.8,
        "light_p99_ms_uncontended": p99_uncontended_ms,
        "light_p99_ms_flooded": p99_flooded_ms,
        "light_p99_factor": p99_factor,
        "light_p99_factor_limit": p99_limit,
        "light_failures": light_failures,
        "flood_requests": len(flood_futures),
        "flood_served": flood_served,
        "flood_shed": flood_shed,
        "flood_errors": flood_errors,
        "served_keys_per_second": served_kps,
        "goodput_ratio": goodput_ratio,
        "goodput_floor": goodput_floor,
        "drain_report": drain_report,
        "drain_wave": len(wave),
        "drain_lost": lost,
        "stats": {"shed": snap["shed"], "rejected": snap["rejected"],
                  "max_queue_depth": snap["max_queue_depth"]},
        "passed": (light_failures == 0
                   and lost == 0
                   and flood_errors == 0
                   and p99_factor <= p99_limit
                   and goodput_ratio >= goodput_floor),
    }


def run_hedging(rows: int, smoke: bool):
    """Hedged-read tail bound: a chaos-stalled shard must not set the
    p99, and a healthy store must hedge (essentially) never.

    The chaos is *transient stalls* — every ``stall_every``-th lookup,
    shard 1's next attempt dawdles ``delay_s`` while a retry of the
    same work is fast (cold cache, GC pause, a dropped packet).  That
    is exactly the fault class hedging addresses: a *persistently*
    slow shard delays backups just as much and needs replication or
    shard rebuild instead (see ``docs/resilience.md``).
    """
    from repro.data import synthetic

    table = synthetic.single_column(rows, "high", seed=13, domain_factor=2.0)
    store = ShardedDeepMapping.fit(
        table, bench_config(smoke),
        ShardingConfig(n_shards=4, max_workers=4, hedged_reads=True))
    # A snappier hedge trigger than the library default: the bench's
    # per-shard attempts are milliseconds, so waiting 4x the median
    # before hedging would itself dominate the rescued tail.  Requests
    # are large (4096 keys) for the same reason — a rescue costs
    # roughly one hedge delay plus one retry, which must amortize
    # against real per-shard work for the p99 gate to measure the
    # mechanism rather than fixed scheduling overhead.  Phases are long
    # enough that the chaos p99 interpolates over several rescues
    # instead of riding on the single worst one.
    # max_fraction=0.5 gives a 4-shard batch two backup slots: with the
    # default budget of one, a jitter hedge on a merely-slowish healthy
    # ordinal can steal the batch's only slot and leave the genuinely
    # stalled shard unrescued for the full injected delay.
    hedge_policy = HedgePolicy(delay_factor=1.3, min_delay_ms=1.0,
                               max_fraction=0.5)
    hedger = HedgeController(hedge_policy)
    store.hedger = hedger
    make = _request_maker(table, 4096, seed=17)
    n_lookups = 40 if smoke else 150
    tail_limit = HEDGE_SMOKE_TAIL_FACTOR if smoke else HEDGE_TAIL_FACTOR
    delay_s = 0.1
    stall_every = 5  # 20% of lookups hit a stalled shard attempt

    def timed_phase(inject: bool):
        latencies = []
        for index in range(n_lookups):
            query = make()
            restore = None
            if inject and index % stall_every == 0:
                restore = break_shard(store, 1, delay_s=delay_s,
                                      slow_first=1)
            try:
                t0 = time.perf_counter()
                store.lookup(query)
                latencies.append(time.perf_counter() - t0)
            finally:
                if restore is not None:
                    restore()
                    # A won hedge returns the batch early but the
                    # stalled attempt keeps sleeping on its pool worker
                    # for the rest of ``delay_s``.  Back-to-back
                    # lookups here are microseconds apart — far denser
                    # than real traffic — so without this gap a few
                    # injections strand every worker behind retiring
                    # stragglers and starve healthy batches.
                    time.sleep(delay_s * 1.1)
        return latencies

    def launched():
        return store.stats.counters.get("hedges_launched", 0)

    # The healthy baseline *brackets* the chaos phases: ambient
    # scheduler noise on a shared runner drifts over seconds, and a
    # spike that lands only inside the chaos window would otherwise be
    # misread as a hedging regression.  Pooling a before- and an
    # after-phase exposes the denominator to the same conditions as the
    # numerator, and doubles the sample count behind the p99.
    store.lookup(make())  # warm pools/engines outside the timers
    before_first = launched()
    healthy_latencies = timed_phase(inject=False)
    healthy_launched = launched() - before_first

    # Chaos, hedging OFF: every stalled attempt sets its batch's tail.
    store.hedger = None
    p99_unhedged_ms = float(np.percentile(
        timed_phase(inject=True), 99)) * 1e3

    # Same chaos, hedging ON: backups reclaim the tail.
    store.hedger = hedger
    p99_hedged_ms = float(np.percentile(
        timed_phase(inject=True), 99)) * 1e3
    chaos_launched = launched()
    chaos_won = store.stats.counters.get("hedges_won", 0)

    before_second = launched()
    healthy_latencies += timed_phase(inject=False)
    healthy_launched += launched() - before_second
    p99_healthy_ms = float(np.percentile(healthy_latencies, 99)) * 1e3
    hedge_rate = healthy_launched / (2 * n_lookups * 4)
    store.close()

    return {
        "rows": rows,
        "lookups_per_phase": n_lookups,
        "injected_delay_ms": delay_s * 1e3,
        "stall_every": stall_every,
        "p99_ms_healthy": p99_healthy_ms,
        "p99_ms_chaos_unhedged": p99_unhedged_ms,
        "p99_ms_chaos_hedged": p99_hedged_ms,
        "tail_factor": p99_hedged_ms / max(p99_healthy_ms, 1e-9),
        "tail_factor_limit": tail_limit,
        "healthy_hedge_rate": hedge_rate,
        "hedge_rate_limit": HEDGE_RATE_LIMIT,
        "hedges_launched_total": chaos_launched,
        "hedges_won_total": chaos_won,
        "passed": (p99_hedged_ms <= tail_limit * p99_healthy_ms
                   and p99_hedged_ms < p99_unhedged_ms
                   and (smoke or hedge_rate < HEDGE_RATE_LIMIT)),
    }


def run_serving_benchmark(rows: int, shards: int, requests_per_client: int,
                          keys_per_request: int, levels, smoke: bool):
    table, store = build_store(rows, shards, smoke)
    policy = AdmissionPolicy(max_batch_keys=65_536, max_delay_ms=2.0)

    max_clients = max(levels)
    workload = build_workload(table, max_clients, requests_per_client,
                              keys_per_request, seed=20240808)
    baseline = run_sequential_baseline(store, workload)

    by_level = []
    for n_clients in levels:
        level = run_coalesced(store, workload[:n_clients], policy)
        by_level.append(level)

    top = by_level[-1]
    # Compare at equal request counts: throughput is rate-based, so the
    # sequential requests/s measured over the full workload is the fair
    # per-request baseline at any concurrency level.
    speedup = top["requests_per_second"] / baseline["requests_per_second"]

    # Resilience overhead: the same top-level run, plain vs with a
    # generous per-request deadline armed.  The arms are interleaved
    # and each takes its best-of-N p50 (timeit-style): a single A/B
    # pair puts any drift on a shared runner — page-cache state, CPU
    # frequency, a neighbour's burst — entirely on one arm, which on
    # this gate's 3% budget reads as a regression that isn't there.
    # The per-arm minimum estimates the noise-free cost of each path.
    n_top = top["clients"]
    overhead_workload = build_workload(
        table, n_top, OVERHEAD_REQUESTS_PER_CLIENT, keys_per_request,
        seed=20240809)
    plain_runs, armed_runs = [], []
    for pair in range(OVERHEAD_PAIRS):
        # ABBA ordering: the second run of a pair inherits a hotter
        # runner than the first, so a fixed order would tax one arm.
        first_is_plain = pair % 2 == 0
        for arm_is_plain in (first_is_plain, not first_is_plain):
            if arm_is_plain:
                plain_runs.append(
                    run_coalesced(store, overhead_workload, policy))
            else:
                armed_runs.append(
                    run_coalesced(store, overhead_workload, policy,
                                  deadline_ms=OVERHEAD_DEADLINE_MS))
    plain = min(plain_runs, key=lambda run: run["p50_ms"])
    armed = min(armed_runs, key=lambda run: run["p50_ms"])
    overhead_pct = (armed["p50_ms"] - plain["p50_ms"]) \
        / plain["p50_ms"] * 100.0
    overhead = {
        "metric": ("p50 request latency with a per-request deadline armed "
                   f"vs without, at {n_top} concurrent clients"),
        "deadline_ms": OVERHEAD_DEADLINE_MS,
        "clients": n_top,
        "p50_ms_plain": plain["p50_ms"],
        "p50_ms_with_deadline": armed["p50_ms"],
        "p99_ms_plain": plain["p99_ms"],
        "p99_ms_with_deadline": armed["p99_ms"],
        "p50_overhead_pct": overhead_pct,
        "limit_pct": OVERHEAD_LIMIT_PCT,
        # Gated on full runs; recorded-only on smoke (tiny p50s, noisy).
        "passed": smoke or overhead_pct <= OVERHEAD_LIMIT_PCT,
    }

    report = {
        "benchmark": "serving",
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "mode": "smoke" if smoke else "full",
        "rows": rows,
        "shards": shards,
        "requests_per_client": requests_per_client,
        "keys_per_request": keys_per_request,
        "policy": {
            "max_batch_keys": policy.max_batch_keys,
            "max_delay_ms": policy.max_delay_ms,
        },
        "sequential_baseline": baseline,
        "coalesced_by_level": by_level,
        "resilience_overhead": overhead,
        "acceptance": {
            "metric": ("coalesced serving throughput vs sequential "
                       f"per-request lookups at {top['clients']} "
                       "concurrent clients"),
            "target": ACCEPTANCE_SPEEDUP,
            "measured": speedup,
            "clients": top["clients"],
            "coalesce_ratio": top["coalesce_ratio"],
            "passed": (speedup >= ACCEPTANCE_SPEEDUP
                       and top["coalesce_ratio"] > 1.0
                       and top["clients"] >= (1 if smoke
                                              else ACCEPTANCE_CLIENTS)
                       and overhead["passed"]),
        },
    }

    rows_out = [["sequential", 1, int(baseline["requests_per_second"]),
                 f"{baseline['p50_ms']:.2f}", f"{baseline['p99_ms']:.2f}",
                 "-", "-"]]
    rows_out += [[f"coalesced x{lvl['clients']}", lvl["clients"],
                  int(lvl["requests_per_second"]),
                  f"{lvl['p50_ms']:.2f}", f"{lvl['p99_ms']:.2f}",
                  f"{lvl['coalesce_ratio']:.2f}", lvl["batches_formed"]]
                 for lvl in by_level]
    print(format_table(
        ["path", "clients", "req/s", "p50 ms", "p99 ms", "coalesce",
         "batches"],
        rows_out,
        title=(f"Closed-loop serving (rows={rows}, shards={shards}, "
               f"{keys_per_request} keys/request, "
               f"{requests_per_client} requests/client)"),
    ))
    print(f"coalesced vs sequential at {top['clients']} clients: "
          f"{speedup:.2f}x (coalesce ratio {top['coalesce_ratio']:.2f})")
    print(f"resilience overhead at {n_top} clients: p50 "
          f"{plain['p50_ms']:.3f} ms plain vs {armed['p50_ms']:.3f} ms "
          f"with deadline ({overhead_pct:+.2f}%, limit "
          f"{OVERHEAD_LIMIT_PCT:.0f}% on full runs)")

    store.close()
    return report


def write_json(report, out_path: str) -> None:
    os.makedirs(os.path.dirname(out_path) or ".", exist_ok=True)
    with open(out_path, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"[benchmark JSON saved to {out_path}]")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small CI config (results not tracked)")
    parser.add_argument("--overload", action="store_true",
                        help="also run the overload/degradation and "
                             "hedged-read sections (and gate on them)")
    parser.add_argument("--rows", type=int, default=None)
    parser.add_argument("--shards", type=int, default=None)
    parser.add_argument("--requests-per-client", type=int, default=None)
    parser.add_argument("--keys-per-request", type=int, default=None)
    args = parser.parse_args()

    if args.smoke:
        defaults = dict(rows=6_000, shards=4, requests_per_client=2,
                        keys_per_request=16)
        levels = [8, 16]
        out_path = os.path.join(RESULTS_DIR, "BENCH_serving.json")
    else:
        defaults = dict(rows=60_000, shards=4, requests_per_client=6,
                        keys_per_request=16)
        levels = [1, 8, 64]
        out_path = os.path.join(REPO_ROOT, "BENCH_serving.json")
    for name, value in defaults.items():
        if getattr(args, name) is None:
            setattr(args, name, value)

    report = run_serving_benchmark(
        rows=args.rows, shards=args.shards,
        requests_per_client=args.requests_per_client,
        keys_per_request=args.keys_per_request,
        levels=levels, smoke=args.smoke)

    if args.overload:
        table, store = build_store(args.rows, args.shards, args.smoke)
        try:
            report["overload"] = run_overload(store, table, args.smoke)
        finally:
            try:
                store.close()
            except RuntimeError:
                pass  # drained by the scenario
        report["hedging"] = run_hedging(min(args.rows, 20_000), args.smoke)
        overload, hedging = report["overload"], report["hedging"]
        print(format_table(
            ["scenario", "p99 ms", "vs baseline", "goodput", "lost"],
            [["light tenants, uncontended",
              f"{overload['light_p99_ms_uncontended']:.2f}", "1.00x",
              "-", "-"],
             ["light tenants, 2x flood",
              f"{overload['light_p99_ms_flooded']:.2f}",
              f"{overload['light_p99_factor']:.2f}x",
              f"{overload['goodput_ratio']:.2f}",
              overload["drain_lost"]]],
            title=(f"Overload degradation (flood {overload['flood_served']}"
                   f" served / {overload['flood_shed']} shed / "
                   f"{overload['flood_requests']} offered)")))
        print(format_table(
            ["phase", "p99 ms", "hedge rate"],
            [["healthy", f"{hedging['p99_ms_healthy']:.2f}",
              f"{hedging['healthy_hedge_rate']:.3f}"],
             ["chaos, unhedged", f"{hedging['p99_ms_chaos_unhedged']:.2f}",
              "-"],
             ["chaos, hedged", f"{hedging['p99_ms_chaos_hedged']:.2f}",
              f"won {hedging['hedges_won_total']}"]],
            title=(f"Hedged reads (shard 1 stalls "
                   f"{hedging['injected_delay_ms']:.0f} ms every "
                   f"{hedging['stall_every']}th lookup)")))
        if not args.smoke:
            report["acceptance"]["passed"] = (
                report["acceptance"]["passed"]
                and overload["passed"] and hedging["passed"])

    write_json(report, out_path)

    speedup = report["acceptance"]["measured"]
    ratio = report["acceptance"]["coalesce_ratio"]
    if args.overload:
        overload, hedging = report["overload"], report["hedging"]
        if not overload["passed"]:
            print(f"OVERLOAD GATE FAILED: light p99 "
                  f"{overload['light_p99_factor']:.2f}x uncontended (limit "
                  f"{overload['light_p99_factor_limit']:.1f}x), goodput "
                  f"{overload['goodput_ratio']:.2f} (floor "
                  f"{overload['goodput_floor']:.2f}), "
                  f"{overload['drain_lost']} lost in drain, "
                  f"{overload['light_failures']} light failures, "
                  f"{overload['flood_errors']} untyped flood errors")
            return 1
        if not hedging["passed"]:
            print(f"HEDGING GATE FAILED: chaos p99 "
                  f"{hedging['p99_ms_chaos_hedged']:.2f} ms vs healthy "
                  f"{hedging['p99_ms_healthy']:.2f} ms (limit "
                  f"{hedging['tail_factor_limit']:.1f}x), healthy hedge "
                  f"rate {hedging['healthy_hedge_rate']:.3f} (limit "
                  f"{hedging['hedge_rate_limit']:.2f} on full runs)")
            return 1
        print(f"overload gate: light p99 "
              f"{overload['light_p99_factor']:.2f}x uncontended, goodput "
              f"{overload['goodput_ratio']:.2f}, zero lost across drain; "
              f"hedged chaos p99 {hedging['tail_factor']:.2f}x healthy, "
              f"healthy hedge rate {hedging['healthy_hedge_rate']:.3f}")
    if args.smoke:
        # CI regression gate: coalesced serving must at least match the
        # sequential baseline and genuinely coalesce, even on small
        # shared runners; the full 2x bar is tracked in
        # BENCH_serving.json at the repo root.
        if speedup < SMOKE_FLOOR or ratio <= 1.0:
            print(f"SMOKE GATE FAILED: coalesced {speedup:.2f}x sequential "
                  f"(floor {SMOKE_FLOOR:.2f}), coalesce ratio {ratio:.2f}")
            return 1
        print(f"smoke gate: coalesced {speedup:.2f}x sequential "
              f"(floor {SMOKE_FLOOR:.2f}), coalesce ratio {ratio:.2f} — "
              "full acceptance tracked in BENCH_serving.json")
        return 0
    if not report["acceptance"]["passed"]:
        print(f"ACCEPTANCE FAILED: coalesced {speedup:.2f}x sequential "
              f"(target {ACCEPTANCE_SPEEDUP}x) at "
              f"{report['acceptance']['clients']} clients")
        return 1
    overhead = report["resilience_overhead"]
    if not overhead["passed"]:
        print(f"OVERHEAD GATE FAILED: deadline-armed p50 is "
              f"{overhead['p50_overhead_pct']:+.2f}% vs plain at "
              f"{overhead['clients']} clients "
              f"(limit {overhead['limit_pct']:.0f}%)")
        return 1
    print(f"acceptance: coalesced {speedup:.2f}x sequential "
          f"(target >= {ACCEPTANCE_SPEEDUP}x) at "
          f"{report['acceptance']['clients']} clients; resilience "
          f"overhead {overhead['p50_overhead_pct']:+.2f}% p50 "
          f"(limit {overhead['limit_pct']:.0f}%)")
    return 0


if __name__ == "__main__":
    import sys
    sys.exit(main())
