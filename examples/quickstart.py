"""Quickstart: compress a table into a store with `repro.build`, reopen
it anywhere with `repro.open`.

Builds the hybrid structure over a scaled TPC-H ``orders`` table, runs
point lookups (hits and misses), inspects the storage breakdown, then
round-trips the store through three persistence backends — a directory,
a single zip archive (the single-file form, and the object-store
stand-in), and an in-memory container — and finishes with an async
batched lookup against a four-shard build.

Run:  python examples/quickstart.py
"""

import os
import tempfile

import numpy as np

import repro


def main() -> None:
    # 1. Get a table.  Any ColumnTable with discrete key/value columns works.
    orders = repro.data.tpch.generate("orders", scale=0.2, seed=42)
    print(f"dataset: {orders.name}, {orders.n_rows} rows, "
          f"{orders.uncompressed_bytes() // 1024} KB uncompressed")

    # 2. Build the store (model + aux table + V_exist + f_decode; one
    #    shard unless a ShardingConfig asks for more).
    config = repro.DeepMappingConfig(epochs=150, batch_size=256)
    dm = repro.build(orders, config)

    report = dm.size_report()
    print(f"hybrid size: {report.total_bytes // 1024} KB "
          f"(ratio {report.compression_ratio:.3f}); "
          f"model memorizes {report.memorized_fraction:.0%} of tuples")
    print("breakdown:", {k: f"{v:.1f}%" for k, v in report.breakdown().items()})

    # 3. Point lookups: an existing key and a key that never existed.
    first_key = int(orders.column("o_orderkey")[0])
    print(f"lookup({first_key}):", dm.lookup_one(o_orderkey=first_key))
    print("lookup(3):", dm.lookup_one(o_orderkey=3))  # TPC-H keys are sparse

    # 4. Batch lookups are the fast path (Algorithm 1 is batched).
    batch = {"o_orderkey": orders.column("o_orderkey")[:1000]}
    result = dm.lookup(batch)
    exact = all(
        np.array_equal(result.values[c], orders.column(c)[:1000])
        for c in orders.value_columns
    )
    print(f"batch of 1000: all found={result.found.all()}, lossless={exact}")

    # 5. Persistence: one URL per backend, same bits back from each.
    with tempfile.TemporaryDirectory() as workdir:
        targets = [
            os.path.join(workdir, "orders.dms"),     # directory
            f"zip://{workdir}/orders.zip",           # single file
            "mem://quickstart-orders",                # in-process scratch
        ]
        expected = dm.lookup_one(o_orderkey=first_key)
        for target in targets:
            nbytes = dm.save(target)
            with repro.open(target) as clone:
                assert clone.lookup_one(o_orderkey=first_key) == expected
            print(f"round-tripped {nbytes} bytes through {target}")

        # 6. Sharded build + async lookup through the same facade.
        with repro.build(orders, config, shards=4,
                         url=f"zip://{workdir}/orders-sharded.zip") as sharded:
            future = sharded.lookup_async(batch)
            async_result = future.result()
            assert np.array_equal(async_result.found, result.found)
            print(f"sharded x{sharded.n_shards}: async batch matches "
                  f"synchronous lookup ({int(async_result.found.sum())} "
                  "hits)")


if __name__ == "__main__":
    main()
