"""Remote lazy-hydration benchmark (the PR 9 tentpole).

Three claims are tracked, all against an in-process loopback range
server (``repro.testing.range_server``) so the numbers measure the
*read path* — request counts and bytes moved — rather than a network:

1. **Cold-open economy.** Opening a sharded store over ``http://``
   downloads only the manifest (router + schema), the model blob and
   the existence blob.  The cold-open download must stay a small fraction
   of the store's total bytes, and zero shard payload blobs may be
   touched.
2. **Skewed-workload hydration.** A workload routed into 2 of N shards
   hydrates only those shards: total bytes downloaded (open included)
   must be **<= 40%** of the store's on-disk size, with results
   bit-identical to the same store opened locally.
3. **Warm cached reopens.** With the ``cached+http://`` disk tier
   populated, a reopen revalidates with HEADs and serves every blob
   from the local cache — zero GETs — and a full open-plus-fanout-probe
   cycle must cost **<= 1.5x** the same cycle against the local
   directory's pure-mmap ``writable=False`` open.

Bit-identity is also asserted under injected 5xx range faults (the
resilience wrapper's retries must be invisible to results).

Writes ``BENCH_remote.json`` at the repo root (the tracked trajectory);
``docs/remote.md`` explains how to read it.  Run::

    PYTHONPATH=src python benchmarks/bench_remote.py           # full
    PYTHONPATH=src python benchmarks/bench_remote.py --smoke   # CI

Smoke mode shrinks the build to CI seconds and keeps the byte-fraction
gates (they are size-independent); the warm-reopen latency bar is
relaxed to absorb CI jitter, with the full 1.5x bar tracked in the
repo-root JSON.  Smoke JSON goes under ``benchmarks/results/``.
"""

import argparse
import json
import os
import shutil
import tempfile
import time

import numpy as np

import repro
from repro.bench import format_table
from repro.core import DeepMappingConfig
from repro.data import synthetic
from repro.shard import ShardedDeepMapping, ShardingConfig
from repro.storage import configure_hydration_cache, payload_cache
from repro.storage.backends import LocalDirBackend
from repro.storage.remote import _cache_config
from repro.testing import serve_backend
from repro.testing.oracles import barrier_lookup

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "results")

ACCEPTANCE_SKEW_BYTES_FRACTION = 0.40   # downloaded / store bytes, 2-of-N
ACCEPTANCE_WARM_REOPEN_RATIO = 1.5      # cached+http vs local mmap cycle
SMOKE_WARM_REOPEN_RATIO = 3.0           # CI bar: absorbs loopback jitter


def bench_config(smoke: bool) -> DeepMappingConfig:
    return DeepMappingConfig(
        epochs=2 if smoke else 6,
        batch_size=4096,
        shared_sizes=(64,) if smoke else (128, 64),
        private_sizes=(32,),
        aux_partition_bytes=32 * 1024,
    )


def interleaved_best(jobs, runs: int):
    """Best seconds per labelled thunk, passes interleaved (drift-fair)."""
    best = {label: float("inf") for label, _ in jobs}
    for _ in range(runs):
        for label, fn in jobs:
            start = time.perf_counter()
            fn()
            best[label] = min(best[label], time.perf_counter() - start)
    return best


def assert_identical(result, reference, value_names, label):
    assert np.array_equal(result.found, reference.found), label
    for column in value_names:
        assert np.array_equal(result.values[column],
                              reference.values[column]), (label, column)


def store_bytes(url: str) -> int:
    return sum(os.path.getsize(os.path.join(url, name))
               for name in os.listdir(url))


def shard_payload_bytes(url: str) -> int:
    return sum(os.path.getsize(os.path.join(url, name))
               for name in os.listdir(url) if name.endswith(".dm"))


def build_queries(table, shards: int, batch: int, rng):
    """A full-fanout batch and a skewed batch routed into ~2 of
    ``shards`` range shards (the lowest quarter of the key space)."""
    key_name = table.key[0]
    keys = np.sort(table.column(key_name))
    full = {key_name: rng.choice(keys, size=batch, replace=True)}
    low = keys[:max(1, (len(keys) * 2) // shards)]
    skew = {key_name: rng.choice(low, size=batch, replace=True)}
    return full, skew


def run_remote_benchmark(rows: int, batch: int, shards: int, runs: int,
                         smoke: bool):
    table = synthetic.single_column(rows, "high", seed=4, domain_factor=2.0)
    workdir = tempfile.mkdtemp(prefix="bench-remote-")
    previous_cache = dict(_cache_config)
    configure_hydration_cache(root=os.path.join(workdir, "cache"))
    try:
        report = _run(table, batch, shards, runs, workdir, smoke)
    finally:
        _cache_config.clear()
        _cache_config.update(previous_cache)
        payload_cache().clear()
        shutil.rmtree(workdir, ignore_errors=True)
    return report


def _run(table, batch: int, shards: int, runs: int, workdir: str,
         smoke: bool):
    store = ShardedDeepMapping.fit(
        table, bench_config(smoke),
        ShardingConfig(n_shards=shards, strategy="range"))
    url = os.path.join(workdir, "store")
    store.save(url)
    total_bytes = store_bytes(url)
    payload_bytes = shard_payload_bytes(url)

    rng = np.random.default_rng(0)
    full, skew = build_queries(table, shards, batch, rng)
    reference_full = barrier_lookup(store, full)
    reference_skew = barrier_lookup(store, skew)
    store.close()

    backend = LocalDirBackend(url, create=False)
    with serve_backend(backend) as server:
        # -- claim 1: cold-open economy --------------------------------
        payload_cache().clear()
        opened = repro.open(server.url)
        cold_bytes = int(opened.stats.counters.get("hydrated_bytes", 0))
        cold_shard_blobs = [name for name in server.blobs_fetched()
                            if name.endswith(".dm")]
        assert cold_shard_blobs == [], (
            f"cold open fetched shard payloads: {cold_shard_blobs}")

        # -- claim 2: skewed-workload hydration ------------------------
        result = opened.lookup(skew)
        assert_identical(result, reference_skew, opened.value_names,
                         "remote skewed")
        skew_bytes = int(opened.stats.counters.get("hydrated_bytes", 0))
        hydrated = int(opened.stats.counters.get("hydrated_shards", 0))
        opened.close()

        # Full-fanout parity on a fresh open (also prewarms the disk
        # cache tier for claim 3).
        payload_cache().clear()
        cached_url = "cached+" + server.url
        warm = repro.open(cached_url)
        assert_identical(warm.lookup(full), reference_full,
                         warm.value_names, "remote full fanout")
        warm.close()

        # -- claim 3: warm cached reopen vs local mmap -----------------
        def cycle(target):
            payload_cache().clear()
            opened = repro.open(target, writable=False)
            opened.lookup(full)
            opened.close()

        best = interleaved_best([
            ("local_mmap", lambda: cycle(url)),
            ("cached_warm", lambda: cycle(cached_url)),
        ], runs)

        payload_cache().clear()
        server.reset_requests()
        revalidated = repro.open(cached_url)
        assert_identical(revalidated.lookup(full), reference_full,
                         revalidated.value_names, "warm cached reopen")
        warm_gets = server.request_count(method="GET")
        warm_heads = server.request_count(method="HEAD")
        revalidated.close()
        assert warm_gets == 0, (
            f"warm cached reopen issued {warm_gets} GETs")

        # -- chaos: injected faults stay bit-identical -----------------
        payload_cache().clear()
        server.fail_next(2, status=503)
        chaotic = repro.open(server.url)
        assert_identical(chaotic.lookup(skew), reference_skew,
                         chaotic.value_names, "chaos skewed")
        faults_served = sum(1 for r in server.requests if r.status == 503)
        assert faults_served == 2
        chaotic.close()

    payload_cache().clear()
    skew_fraction = skew_bytes / total_bytes
    warm_ratio = best["cached_warm"] / best["local_mmap"]

    report = {
        "benchmark": "remote",
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "mode": "smoke" if smoke else "full",
        "rows": len(table),
        "batch": batch,
        "shards": shards,
        "store_bytes": total_bytes,
        "shard_payload_bytes": payload_bytes,
        "cold_open": {
            "downloaded_bytes": cold_bytes,
            "fraction_of_store": cold_bytes / total_bytes,
            "shard_blobs_fetched": 0,
        },
        "skewed_workload": {
            "downloaded_bytes": skew_bytes,
            "fraction_of_store": skew_fraction,
            "shards_hydrated": hydrated,
            "shards_total": shards,
        },
        "warm_reopen": {
            "cached_seconds": best["cached_warm"],
            "local_mmap_seconds": best["local_mmap"],
            "ratio": warm_ratio,
            "revalidation_gets": warm_gets,
            "revalidation_heads": warm_heads,
        },
        "chaos": {"faults_injected": 2, "bit_identical": True},
        "acceptance": {
            "metric": ("lazy hydration over HTTP: skewed-workload bytes "
                       "and warm cached-reopen latency"),
            "skew_fraction_limit": ACCEPTANCE_SKEW_BYTES_FRACTION,
            "skew_fraction_measured": skew_fraction,
            "warm_ratio_limit": ACCEPTANCE_WARM_REOPEN_RATIO,
            "warm_ratio_measured": warm_ratio,
            "warm_reopen_gets": warm_gets,
            "passed": (skew_fraction <= ACCEPTANCE_SKEW_BYTES_FRACTION
                       and warm_ratio <= ACCEPTANCE_WARM_REOPEN_RATIO
                       and warm_gets == 0),
        },
    }

    kib = 1 / 1024
    print(format_table(
        ["phase", "downloaded KiB", "store KiB", "fraction"],
        [["cold open", f"{cold_bytes * kib:.1f}",
          f"{total_bytes * kib:.1f}", f"{cold_bytes / total_bytes:.1%}"],
         ["skewed (2-of-%d)" % shards, f"{skew_bytes * kib:.1f}",
          f"{total_bytes * kib:.1f}", f"{skew_fraction:.1%}"]],
        title=(f"Remote hydration economy (rows={len(table)}, "
               f"shards={shards}, batch={batch})"),
    ))
    ms = 1e3
    print(f"warm cached reopen: {best['cached_warm'] * ms:.1f} ms vs local "
          f"mmap {best['local_mmap'] * ms:.1f} ms ({warm_ratio:.2f}x, "
          f"target <= {ACCEPTANCE_WARM_REOPEN_RATIO:.1f}x); revalidation "
          f"{warm_heads} HEADs, {warm_gets} GETs")
    print(f"skewed workload hydrated {hydrated} of {shards} shards; "
          f"chaos run (2x 503) bit-identical")
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
    parser.add_argument("--rows", type=int, default=None)
    parser.add_argument("--batch", type=int, default=None)
    parser.add_argument("--shards", type=int, default=None)
    parser.add_argument("--runs", type=int, default=None)
    args = parser.parse_args()

    if args.smoke:
        defaults = dict(rows=6_000, batch=2_000, shards=8, runs=3)
        out_path = os.path.join(RESULTS_DIR, "BENCH_remote.json")
    else:
        defaults = dict(rows=100_000, batch=20_000, shards=8, runs=5)
        out_path = os.path.join(REPO_ROOT, "BENCH_remote.json")
    for name, value in defaults.items():
        if getattr(args, name) is None:
            setattr(args, name, value)

    report = run_remote_benchmark(rows=args.rows, batch=args.batch,
                                  shards=args.shards, runs=args.runs,
                                  smoke=args.smoke)
    write_json(report, out_path)

    acc = report["acceptance"]
    warm_limit = SMOKE_WARM_REOPEN_RATIO if args.smoke \
        else ACCEPTANCE_WARM_REOPEN_RATIO
    if acc["skew_fraction_measured"] > acc["skew_fraction_limit"]:
        print(f"{'SMOKE ' if args.smoke else ''}GATE FAILED: skewed "
              f"workload downloaded {acc['skew_fraction_measured']:.1%} "
              f"of the store (limit {acc['skew_fraction_limit']:.0%})")
        return 1
    if acc["warm_ratio_measured"] > warm_limit:
        print(f"{'SMOKE ' if args.smoke else ''}GATE FAILED: warm cached "
              f"reopen {acc['warm_ratio_measured']:.2f}x local mmap "
              f"(limit {warm_limit:.1f}x)")
        return 1
    if acc["warm_reopen_gets"] != 0:
        print("GATE FAILED: warm cached reopen downloaded blob bytes")
        return 1
    print(f"{'smoke ' if args.smoke else ''}gate: skewed workload "
          f"{acc['skew_fraction_measured']:.1%} of store bytes (limit "
          f"{acc['skew_fraction_limit']:.0%}), warm cached reopen "
          f"{acc['warm_ratio_measured']:.2f}x local mmap (limit "
          f"{warm_limit:.1f}x), zero warm GETs")
    return 0


if __name__ == "__main__":
    import sys
    sys.exit(main())
