"""Miss-pruning + pure-mmap cold-open benchmark.

Two claims are tracked:

1. **Misses are answered by the store's one ``V_exist``.** A sharded
   store tests every batch once against its one existence index
   (``exist.rzc`` on disk) before routing, the (shard, key) sort and
   shard dispatch; only live keys reach a shard.  Gated on a 4-shard
   store, with results bit-identical to the unpruned
   ``barrier_lookup`` oracle:

   - the all-miss batch counts ``pruned_keys == batch`` and runs **no**
     shard plan (counted);
   - the 50%-hit batch prunes exactly its misses;
   - the manifest, which no longer carries a key set, is **<= 3 KB**.

   The all-miss and 50%-hit times, and the monolithic all-miss time,
   ride along for the record (there is no unpruned store left to time
   against).
2. **Pure-mmap cold opens.** The payloads export model weights,
   existence bits and compressed ``T_aux`` partitions as first-class
   out-of-band container segments.  After a cold ``writable=False``
   open those arrays must be read-only views into their blob's mapping
   (``model.rzc``, ``exist.rzc``, each shard's) — zero bytes copied.
   The open is timed for the record, not gated: ``storage.open_ms`` and
   ``storage.cold_start_ms`` of ``bench/run.py`` are the tracked
   numbers (``bench/README.md``).

Writes ``BENCH_prune.json`` at the repo root (the tracked trajectory);
``docs/performance.md`` explains how to read it.  Run::

    PYTHONPATH=src python benchmarks/bench_prune.py           # full
    PYTHONPATH=src python benchmarks/bench_prune.py --smoke   # CI

Smoke mode shrinks the build to CI seconds; every gate is a count or a
size, so both modes gate the same way.  Smoke JSON goes under
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
from repro.shard import ShardedDeepMapping, ShardingConfig
from repro.storage import payload_cache
from repro.testing.oracles import barrier_lookup

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "results")

ACCEPTANCE_MANIFEST_BYTES = 3 * 1024


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
    ``domain_factor`` holes), so the existence index — not domain
    validation — must reject them."""
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
# Claim 1: misses are answered by the store's one V_exist
# ----------------------------------------------------------------------
def count_plans(store):
    """Count every shard plan the store's live shards build from here
    on; returns the one-element counter."""
    count = [0]
    for shard in store.shards:
        if shard is None:
            continue

        def counted(*args, _plan=shard.plan_lookup, **kwargs):
            count[0] += 1
            return _plan(*args, **kwargs)
        shard.plan_lookup = counted
    return count


def pruned_by(store, query):
    """``(result, pruned_keys, shard plans)`` of one lookup."""
    before = store.stats.counters.get("pruned_keys", 0)
    plans = count_plans(store)
    result = store.lookup(query)
    return (result, store.stats.counters.get("pruned_keys", 0) - before,
            plans[0])


def run_pruning_section(table, batch: int, shards: int, runs: int,
                        workdir: str, smoke: bool):
    config = bench_config(smoke)
    built = ShardedDeepMapping.fit(
        table, config, ShardingConfig(n_shards=shards, strategy="range"))
    url = os.path.join(workdir, "store")
    built.save(url)
    built.close()
    monolithic = repro.build(table, config)
    store = ShardedDeepMapping.load(url)

    rng = np.random.default_rng(0)
    all_miss, half = build_queries(table, batch, rng)

    # Parity before any timing: bit-identical to the unpruned barrier
    # reference on both batches.
    for label, query in (("all-miss", all_miss), ("50%-hit", half)):
        assert_identical(store.lookup(query), barrier_lookup(store, query),
                         store.value_names, label)

    best = interleaved_best([
        ("miss", lambda: store.lookup(all_miss)),
        ("miss_monolithic", lambda: monolithic.lookup(all_miss)),
        ("half", lambda: store.lookup(half)),
    ], runs)

    result, miss_pruned, miss_plans = pruned_by(store, all_miss)
    assert int(result.found.sum()) == 0, "all-miss batch found keys"
    result, half_pruned, half_plans = pruned_by(store, half)
    half_misses = int((~result.found).sum())

    section = {
        "rows": len(table),
        "batch": batch,
        "shards": shards,
        "all_miss": {
            "seconds": best["miss"],
            "monolithic_seconds": best["miss_monolithic"],
            "sharded_vs_monolithic": best["miss"] / best["miss_monolithic"],
            "pruned_keys": miss_pruned,
            "shard_plans": miss_plans,
        },
        "hit50": {
            "seconds": best["half"],
            "misses": half_misses,
            "pruned_keys": half_pruned,
            "shard_plans": half_plans,
        },
        "manifest_bytes": os.path.getsize(
            os.path.join(url, "manifest.json")),
        "exist_bytes": os.path.getsize(os.path.join(url, "exist.rzc")),
    }
    store.close()
    return section


# ----------------------------------------------------------------------
# Claim 2: pure-mmap cold opens
# ----------------------------------------------------------------------
def assert_zero_copy(opened) -> int:
    """The store's model weights must be read-only views into the model
    blob's mapping, its one index's array into ``exist.rzc``'s, and
    every live shard's compressed auxiliary partitions into the shard's
    payload mapping.  Returns bytes verified shared."""
    session = opened.model.session
    exist = opened.exist
    pinned = [("model", opened.model._shared_bundle["payload_view"],
               [w for layer in session._shared for w in layer]
               + [w for chain in session._heads.values()
                  for layer in chain for w in layer]),
              ("exist.rzc", exist._shared_bundle["payload_view"],
               [exist._bits.packed if hasattr(exist, "_bits")  # dense
                else exist._keys])]                             # sparse
    for ordinal, shard in enumerate(opened.shards):
        if shard is None:
            continue
        assert shard.exist is exist, f"shard {ordinal}: a copied index"
        pinned.append((f"shard {ordinal}",
                       shard._shared_bundle["payload_view"],
                       [np.frombuffer(meta.blob, np.uint8)
                        for meta in shard.aux._store.partitions]))
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
        for name in os.listdir(url) if name != "manifest.json")
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

    miss, half = pruning["all_miss"], pruning["hit50"]
    gates = {
        "all_miss_pruned_every_key": miss["pruned_keys"] == batch,
        "all_miss_ran_no_shard_plan": miss["shard_plans"] == 0,
        "hit50_pruned_exactly_its_misses":
            half["pruned_keys"] == half["misses"],
        "manifest_within_limit":
            pruning["manifest_bytes"] <= ACCEPTANCE_MANIFEST_BYTES,
        "zero_copy": cold["zero_copy"],
    }
    report = {
        "benchmark": "prune",
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "mode": "smoke" if smoke else "full",
        "pruning": pruning,
        "cold_open": cold,
        "acceptance": {
            "metric": ("misses answered by the store's one V_exist and "
                       "pure-mmap cold opens on a 4-shard store"),
            "manifest_bytes_limit": ACCEPTANCE_MANIFEST_BYTES,
            **gates,
            "passed": all(gates.values()),
        },
    }

    ms = 1e3
    print(format_table(
        ["batch", "ms", "monolithic ms", "pruned keys", "shard plans"],
        [["all-miss", f"{miss['seconds'] * ms:.2f}",
          f"{miss['monolithic_seconds'] * ms:.2f}",
          f"{miss['pruned_keys']} of {batch}", miss["shard_plans"]],
         ["50%-hit", f"{half['seconds'] * ms:.2f}", "-",
          f"{half['pruned_keys']} of {half['misses']} misses",
          half["shard_plans"]]],
        title=(f"Existence-stage pruning (rows={rows}, batch={batch}, "
               f"shards={shards})"),
    ))
    print(f"manifest {pruning['manifest_bytes']} B "
          f"(limit {ACCEPTANCE_MANIFEST_BYTES}); exist.rzc "
          f"{pruning['exist_bytes']} B; sharded all-miss vs monolithic: "
          f"{miss['sharded_vs_monolithic']:.2f}x")
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
    failed = [name for name, value in acc.items()
              if value is False and name != "passed"]
    if failed:
        print(f"ACCEPTANCE FAILED: {', '.join(failed)}")
        return 1
    print("acceptance: every miss pruned before dispatch (no shard plan on "
          "the all-miss batch), manifest "
          f"{report['pruning']['manifest_bytes']} B "
          f"(limit {acc['manifest_bytes_limit']}), cold open zero-copy")
    return 0


if __name__ == "__main__":
    import sys
    sys.exit(main())
