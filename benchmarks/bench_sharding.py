"""Shard-count scaling of batched lookup throughput and build time.

Builds the same table as a 1/2/4/8-shard :class:`DeepMapping`
(range strategy; one shard is the default store), then times a
100k-key batched lookup against each.  Reported per store:

- build seconds (one model fit over the table, then every shard's
  ``T_aux`` and ``V_exist`` materialized under it),
- storage bytes (aggregated hybrid footprint),
- batched-lookup throughput in keys/second (best of several runs).

Expected shape: every store answers through the same one model, so the
per-key work is the same at every shard count and build time and bytes
stay flat; throughput rises with shard count only through the thread
fan-out on multi-core hosts.

Run as a pytest benchmark or directly::

    PYTHONPATH=src python -m pytest benchmarks/bench_sharding.py -x -q -s
    PYTHONPATH=src python benchmarks/bench_sharding.py
"""

import time

import numpy as np

import repro
from repro.bench import format_table
from repro.core import DeepMappingConfig
from repro.data import synthetic
from repro.shard import ShardingConfig

from conftest import write_report

SHARD_COUNTS = [1, 2, 4, 8]
ROWS = 120_000
BATCH = 100_000
RUNS = 5


def bench_config() -> DeepMappingConfig:
    return DeepMappingConfig(
        epochs=8,
        batch_size=4096,
        shared_sizes=(64,),
        private_sizes=(32,),
        aux_partition_bytes=32 * 1024,
    )


def run_sharding_benchmark():
    table = synthetic.single_column(ROWS, "high", seed=1)
    key_name = table.key[0]
    rng = np.random.default_rng(0)
    query = {key_name: rng.choice(table.column(key_name), size=BATCH,
                                  replace=True)}
    config = bench_config()

    stores = []
    for n_shards in SHARD_COUNTS:
        start = time.perf_counter()
        store = repro.build(
            table, config,
            sharding=ShardingConfig(n_shards=n_shards))
        stores.append((f"sharded x{n_shards}", n_shards, store,
                       time.perf_counter() - start))

    # Interleave the timing passes so machine drift hits every store alike;
    # keep each store's best pass.
    best = {label: float("inf") for label, *_ in stores}
    for _ in range(RUNS):
        for label, _, store, _ in stores:
            start = time.perf_counter()
            result = store.lookup(query)
            best[label] = min(best[label], time.perf_counter() - start)
            assert result.found.all(), "benchmark queries only existing keys"

    rows = []
    throughput = {}
    for label, n_shards, store, build_seconds in stores:
        keys_per_second = BATCH / best[label]
        throughput[n_shards] = keys_per_second
        store.close()
        rows.append([label, build_seconds,
                     store.storage_bytes() / 1024.0, keys_per_second / 1e3])

    report = format_table(
        ["store", "build seconds", "storage KB", "lookup kkeys/s"],
        rows,
        title=(f"Batched-lookup throughput vs. shard count "
               f"(rows={ROWS}, batch={BATCH}, range strategy)"),
    )
    write_report("sharding", report)
    return throughput


def test_sharding_throughput():
    throughput = run_sharding_benchmark()
    # The acceptance bar: 4 shards beat 1 shard on a >=100k-key batch.
    assert throughput[4] > throughput[1], (
        f"4-shard throughput {throughput[4]:.0f} keys/s did not beat "
        f"1-shard {throughput[1]:.0f} keys/s"
    )


if __name__ == "__main__":
    result = run_sharding_benchmark()
    scale = result[4] / result[1]
    print(f"4-shard vs 1-shard throughput: {scale:.2f}x")
