"""Miss-pruning + pure-mmap cold-open benchmark (the PR 8 tentpole).

Two claims are tracked:

1. **Router-level miss pruning.** The manifest carries one compact
   negative filter over the whole store's keys
   (``core/negative_filter.py``); the sharded lookup consults it
   *before* routing, the (shard, key) sort and shard dispatch, so miss
   keys skip the fan-out entirely.  On a 4-shard store the all-miss
   batch must be **>= 3x** faster than the same saved store opened from
   a copy whose manifest has no ``store_filter`` (such a store never
   prunes: the unpruned baseline), and the 50%-hit batch must not
   regress below **0.95x** — with bit-identical results on both.  The
   monolithic all-miss time rides along so the sharded-vs-monolithic
   miss gap (5.2x at PR 6) is tracked as it closes.
2. **Pure-mmap cold opens.** The payload exports model weights,
   existence bits and compressed ``T_aux`` partitions as first-class
   out-of-band container segments.  After a cold ``writable=False``
   open the shards' arrays must be read-only views into the payload
   mapping — zero bytes copied.  The open is timed for the record, not
   gated: ``storage.open_ms`` and ``storage.cold_start_ms`` of
   ``bench/run.py`` are the tracked numbers (``bench/README.md``).

Also gated: filter cost in the manifest stays **<= 2 bytes per stored
key** (manifest.json with the filter vs without, divided by rows).

Writes ``BENCH_prune.json`` at the repo root (the tracked trajectory);
``docs/performance.md`` explains how to read it.  Run::

    PYTHONPATH=src python benchmarks/bench_prune.py           # full
    PYTHONPATH=src python benchmarks/bench_prune.py --smoke   # CI

Smoke mode shrinks the build to CI seconds, still asserts parity and
copy-freedom everywhere, and gates on (a) the pruned all-miss path not
losing to the unpruned baseline and (b) zero-copy cold opens; the full
3x bar is tracked in the repo-root JSON.  Smoke JSON goes under
``benchmarks/results/``.
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
from repro.shard import ShardedDeepMapping, ShardingConfig, ShardManifest
from repro.storage import payload_cache
from repro.testing.oracles import barrier_lookup

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "results")

ACCEPTANCE_ALL_MISS_SPEEDUP = 3.0   # pruned vs unpruned, all-miss batch
ACCEPTANCE_HIT50_FLOOR = 0.95       # pruned vs unpruned, 50%-hit batch
ACCEPTANCE_MANIFEST_BYTES_PER_KEY = 2.0
SMOKE_ALL_MISS_FLOOR = 1.0          # CI gate: pruning must not lose


def bench_config(smoke: bool) -> DeepMappingConfig:
    return DeepMappingConfig(
        epochs=2 if smoke else 8,
        batch_size=4096,
        shared_sizes=(64,),
        private_sizes=(32,),
        aux_partition_bytes=32 * 1024,
    )


def cold_open_config(smoke: bool) -> DeepMappingConfig:
    """The cold-open store wants *big weight arrays*, not a good model:
    the claim under test is deserialization cost, so training is one
    epoch and the layers are sized to make the payload weight-heavy."""
    return DeepMappingConfig(
        epochs=1,
        batch_size=4096,
        shared_sizes=(64,) if smoke else (512, 256),
        private_sizes=(32,) if smoke else (64,),
        aux_partition_bytes=32 * 1024,
    )


def build_queries(table, batch: int, rng):
    """All-miss and 50%-hit batches; misses are in-domain gap keys (the
    ``domain_factor`` holes), so the filter — not domain validation —
    must reject them."""
    key_name = table.key[0]
    keys = table.column(key_name)
    domain = np.arange(keys.min(), keys.max() + 1, dtype=np.int64)
    absent = np.setdiff1d(domain, keys)
    all_miss = rng.choice(absent, size=batch, replace=True)
    half = np.concatenate([
        rng.choice(keys, size=batch // 2, replace=True),
        rng.choice(absent, size=batch - batch // 2, replace=True),
    ])
    rng.shuffle(half)
    return {key_name: all_miss}, {key_name: half}


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


# ----------------------------------------------------------------------
# Claim 1: router-level miss pruning
# ----------------------------------------------------------------------
def run_pruning_section(table, batch: int, shards: int, runs: int,
                        workdir: str, smoke: bool):
    config = bench_config(smoke)
    store = ShardedDeepMapping.fit(
        table, config, ShardingConfig(n_shards=shards, strategy="range"))
    url = os.path.join(workdir, "store")
    store.save(url)
    monolithic = repro.build(table, config)

    # The unpruned baseline: the same bytes, minus the manifest's filter.
    url_bare = os.path.join(workdir, "store-nofilter")
    shutil.copytree(url, url_bare)
    bare = ShardManifest.load(url_bare)
    bare.store_filter = None
    bare.save(url_bare)

    pruned = ShardedDeepMapping.load(url)
    unpruned = ShardedDeepMapping.load(url_bare)

    rng = np.random.default_rng(0)
    all_miss, half = build_queries(table, batch, rng)

    # Parity before any timing: the pruned path must be bit-identical to
    # the unpruned one on both batches (and to the barrier reference).
    for label, query in (("all-miss", all_miss), ("50%-hit", half)):
        reference = barrier_lookup(unpruned, query)
        assert_identical(pruned.lookup(query), reference,
                         pruned.value_names, f"pruned {label}")
        assert_identical(unpruned.lookup(query), reference,
                         pruned.value_names, f"unpruned {label}")

    best = interleaved_best([
        ("miss_pruned", lambda: pruned.lookup(all_miss)),
        ("miss_unpruned", lambda: unpruned.lookup(all_miss)),
        ("miss_monolithic", lambda: monolithic.lookup(all_miss)),
        ("half_pruned", lambda: pruned.lookup(half)),
        ("half_unpruned", lambda: unpruned.lookup(half)),
    ], runs)

    pruned.stats.counters.pop("pruned_keys", None)
    result = pruned.lookup(all_miss)
    assert int(result.found.sum()) == 0, "all-miss batch found keys"
    pruned_keys = int(pruned.stats.counters.get("pruned_keys", 0))

    assert not unpruned.stats.counters.get("pruned_keys", 0), \
        "baseline pruned keys"
    # Manifest cost of the filter: the two manifests' size delta per
    # stored key.
    with_filters = os.path.getsize(os.path.join(url, "manifest.json"))
    without = os.path.getsize(os.path.join(url_bare, "manifest.json"))
    bytes_per_key = (with_filters - without) / len(table)

    section = {
        "rows": len(table),
        "batch": batch,
        "shards": shards,
        "all_miss": {
            "pruned_seconds": best["miss_pruned"],
            "unpruned_seconds": best["miss_unpruned"],
            "monolithic_seconds": best["miss_monolithic"],
            "speedup": best["miss_unpruned"] / best["miss_pruned"],
            # The gap this tier closes: sharded all-miss time relative
            # to the monolithic store's (1.0 = parity; 5.2x at PR 6).
            "sharded_vs_monolithic": (best["miss_pruned"]
                                      / best["miss_monolithic"]),
            "unpruned_vs_monolithic": (best["miss_unpruned"]
                                       / best["miss_monolithic"]),
        },
        "hit50": {
            "pruned_seconds": best["half_pruned"],
            "unpruned_seconds": best["half_unpruned"],
            "ratio": best["half_unpruned"] / best["half_pruned"],
        },
        "pruned_keys_all_miss": pruned_keys,
        "prune_coverage": pruned_keys / batch,
        "manifest": {
            "with_filters_bytes": with_filters,
            "without_filters_bytes": without,
            "filter_bytes_per_key": bytes_per_key,
        },
    }
    store.close()
    pruned.close()
    unpruned.close()
    return section


# ----------------------------------------------------------------------
# Claim 2: pure-mmap cold opens
# ----------------------------------------------------------------------
def assert_zero_copy(opened) -> int:
    """The store's model weights must be read-only views into the model
    blob's mapping, and every live shard's exist bits and compressed
    auxiliary partitions into the shard's payload mapping.  Returns
    bytes verified shared."""
    session = opened.model.session
    pinned = [("model", opened.model._shared_bundle["payload_view"],
               [w for layer in session._shared for w in layer]
               + [w for chain in session._heads.values()
                  for layer in chain for w in layer])]
    for ordinal, shard in enumerate(opened.shards):
        if shard is None:
            continue
        exist = shard.exist
        arrays = [exist._bits.packed if hasattr(exist, "_bits")  # dense
                  else exist._keys]                               # sparse
        arrays += [np.frombuffer(meta.blob, np.uint8)
                   for meta in shard.aux._store.partitions]
        pinned.append((f"shard {ordinal}",
                       shard._shared_bundle["payload_view"], arrays))
    verified = 0
    for owner, view, arrays in pinned:
        base = np.frombuffer(view, dtype=np.uint8)
        for arr in arrays:
            arr = np.asarray(arr)
            assert not arr.flags.writeable, (
                f"{owner}: writable array in read-only open")
            assert np.shares_memory(base, arr), (
                f"{owner}: array copied out of the payload view")
            verified += arr.nbytes
    return verified


def run_cold_open_section(rows: int, shards: int, runs: int,
                          workdir: str, smoke: bool):
    table = synthetic.single_column(rows, "high", seed=3, domain_factor=8.0)
    store = ShardedDeepMapping.fit(
        table, cold_open_config(smoke),
        ShardingConfig(n_shards=shards, strategy="range"))
    url = os.path.join(workdir, "cold")
    store.save(url)

    rng = np.random.default_rng(1)
    query, _ = build_queries(table, min(rows, 10_000), rng)
    reference = barrier_lookup(store, query)

    def cold_open():
        payload_cache().clear()  # every timed open pays the cold path
        return repro.open(url, writable=False)

    # Parity + copy-freedom once, outside the timer.
    opened = cold_open()
    assert_identical(opened.lookup(query), reference,
                     store.value_names, "cold open")
    shared_bytes = assert_zero_copy(opened)
    opened.close()

    best = interleaved_best([("cold_v2", lambda: cold_open().close())],
                            runs)
    payload_cache().clear()

    payload_bytes = sum(
        os.path.getsize(os.path.join(url, name))
        for name in os.listdir(url) if name.endswith(".dm"))
    section = {
        "rows": rows,
        "shards": shards,
        "payload_bytes": payload_bytes,
        "cold_v2_seconds": best["cold_v2"],
        "zero_copy": True,       # assert_zero_copy raised otherwise
        "zero_copy_bytes_verified": shared_bytes,
    }
    store.close()
    return section


def run_prune_benchmark(rows: int, batch: int, shards: int, runs: int,
                        cold_rows: int, smoke: bool):
    table = synthetic.single_column(rows, "high", seed=1, domain_factor=2.0)
    workdir = tempfile.mkdtemp(prefix="bench-prune-")
    try:
        pruning = run_pruning_section(table, batch, shards, runs,
                                      workdir, smoke)
        cold = run_cold_open_section(cold_rows, shards, runs,
                                     workdir, smoke)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    all_miss_speedup = pruning["all_miss"]["speedup"]
    hit50_ratio = pruning["hit50"]["ratio"]
    bytes_per_key = pruning["manifest"]["filter_bytes_per_key"]

    report = {
        "benchmark": "prune",
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "mode": "smoke" if smoke else "full",
        "pruning": pruning,
        "cold_open": cold,
        "acceptance": {
            "metric": ("manifest-filter miss pruning and pure-mmap "
                       "cold opens on a 4-shard store"),
            "all_miss_target": ACCEPTANCE_ALL_MISS_SPEEDUP,
            "all_miss_measured": all_miss_speedup,
            "hit50_floor": ACCEPTANCE_HIT50_FLOOR,
            "hit50_measured": hit50_ratio,
            "manifest_bytes_per_key_limit": ACCEPTANCE_MANIFEST_BYTES_PER_KEY,
            "manifest_bytes_per_key_measured": bytes_per_key,
            "zero_copy": cold["zero_copy"],
            "passed": (all_miss_speedup >= ACCEPTANCE_ALL_MISS_SPEEDUP
                       and hit50_ratio >= ACCEPTANCE_HIT50_FLOOR
                       and bytes_per_key <= ACCEPTANCE_MANIFEST_BYTES_PER_KEY
                       and cold["zero_copy"]),
        },
    }

    ms = 1e3
    print(format_table(
        ["batch", "pruned ms", "unpruned ms", "monolithic ms", "speedup"],
        [["all-miss", f"{pruning['all_miss']['pruned_seconds'] * ms:.2f}",
          f"{pruning['all_miss']['unpruned_seconds'] * ms:.2f}",
          f"{pruning['all_miss']['monolithic_seconds'] * ms:.2f}",
          f"{all_miss_speedup:.2f}x"],
         ["50%-hit", f"{pruning['hit50']['pruned_seconds'] * ms:.2f}",
          f"{pruning['hit50']['unpruned_seconds'] * ms:.2f}", "-",
          f"{hit50_ratio:.2f}x"]],
        title=(f"Manifest-filter pruning (rows={rows}, batch={batch}, "
               f"shards={shards})"),
    ))
    print(f"prune coverage on the all-miss batch: "
          f"{pruning['prune_coverage']:.1%} "
          f"({pruning['pruned_keys_all_miss']} of {batch} keys); "
          f"filter cost {bytes_per_key:.2f} bytes/key "
          f"(limit {ACCEPTANCE_MANIFEST_BYTES_PER_KEY:.0f})")
    print(f"sharded all-miss vs monolithic: "
          f"{pruning['all_miss']['sharded_vs_monolithic']:.2f}x slower "
          f"pruned, {pruning['all_miss']['unpruned_vs_monolithic']:.2f}x "
          f"unpruned")
    print(f"cold read-only open: {cold['cold_v2_seconds'] * ms:.1f} ms; "
          f"{cold['zero_copy_bytes_verified']} bytes verified zero-copy")
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
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--runs", type=int, default=None)
    parser.add_argument("--cold-rows", type=int, default=None)
    args = parser.parse_args()

    if args.smoke:
        defaults = dict(rows=6_000, batch=4_000, runs=3, cold_rows=4_000)
        out_path = os.path.join(RESULTS_DIR, "BENCH_prune.json")
    else:
        defaults = dict(rows=120_000, batch=100_000, runs=7,
                        cold_rows=60_000)
        out_path = os.path.join(REPO_ROOT, "BENCH_prune.json")
    for name, value in defaults.items():
        if getattr(args, name) is None:
            setattr(args, name, value)

    report = run_prune_benchmark(rows=args.rows, batch=args.batch,
                                 shards=args.shards, runs=args.runs,
                                 cold_rows=args.cold_rows, smoke=args.smoke)
    write_json(report, out_path)

    acc = report["acceptance"]
    if args.smoke:
        # CI regression gate: the pruned all-miss path must not lose to
        # the unpruned baseline (the 3x bar needs full-size batches) and
        # cold opens must stay copy-free; full acceptance is tracked in
        # BENCH_prune.json at the repo root.
        if acc["all_miss_measured"] < SMOKE_ALL_MISS_FLOOR:
            print(f"SMOKE GATE FAILED: pruned all-miss "
                  f"{acc['all_miss_measured']:.2f}x unpruned "
                  f"(floor {SMOKE_ALL_MISS_FLOOR:.2f})")
            return 1
        if not acc["zero_copy"]:
            print("SMOKE GATE FAILED: cold open copied payload bytes")
            return 1
        print(f"smoke gate: pruned all-miss {acc['all_miss_measured']:.2f}x "
              f"unpruned (floor {SMOKE_ALL_MISS_FLOOR:.2f}), cold open "
              "zero-copy — full acceptance tracked in BENCH_prune.json")
        return 0
    if not acc["passed"]:
        print(f"ACCEPTANCE FAILED: all-miss {acc['all_miss_measured']:.2f}x "
              f"(target {acc['all_miss_target']}x), 50%-hit "
              f"{acc['hit50_measured']:.2f}x (floor {acc['hit50_floor']}), "
              f"manifest {acc['manifest_bytes_per_key_measured']:.2f} B/key "
              f"(limit {acc['manifest_bytes_per_key_limit']})")
        return 1
    print(f"acceptance: all-miss {acc['all_miss_measured']:.2f}x unpruned "
          f"(target >= {acc['all_miss_target']}x), 50%-hit "
          f"{acc['hit50_measured']:.2f}x (floor {acc['hit50_floor']}), "
          f"manifest {acc['manifest_bytes_per_key_measured']:.2f} B/key, "
          f"cold open zero-copy")
    return 0


if __name__ == "__main__":
    import sys
    sys.exit(main())
