"""Edge retail scenario: an order/inventory store on a constrained device.

The paper's motivating use case (Sec. I): a self-serve retail edge device
must hold transaction data locally, answer random lookups fast, and absorb
new orders, cancellations and status changes — all inside a small memory
budget.  This example runs that lifecycle end to end and contrasts
DeepMapping against a compressed array store under the same memory pool.

Run:  python examples/edge_retail_orders.py
"""

import time

import numpy as np

from repro import DeepMapping, DeepMappingConfig, ShardingConfig
from repro.baselines import make_baseline
from repro.bench import key_batches, measure_lookup
from repro.data import tpch
from repro.storage import BufferPool


def main() -> None:
    orders = tpch.generate("orders", scale=0.4, seed=7)
    raw_kb = orders.uncompressed_bytes() // 1024
    budget = orders.uncompressed_bytes() // 4
    print(f"device dataset: {orders.n_rows} orders, {raw_kb} KB raw; "
          f"memory pool: {budget // 1024} KB\n")

    # --- build both representations under the same pool budget ----------
    config = DeepMappingConfig(epochs=200, batch_size=256,
                               shared_sizes=(128,), private_sizes=(64,),
                               key_headroom_fraction=1.0)
    dm = DeepMapping.fit(orders, config,
                         ShardingConfig(pool_budget_bytes=budget))
    abc = make_baseline("ABC-Z", target_partition_bytes=16 * 1024,
                        pool=BufferPool(budget)).build(orders)

    report = dm.size_report()
    print(f"DeepMapping: {report.total_bytes // 1024} KB "
          f"({report.compression_ratio:.1%} of raw), "
          f"{report.memorized_fraction:.0%} of orders served by the model")
    print(f"ABC-Z      : {abc.stored_bytes() // 1024} KB\n")

    # --- random lookups (the kiosk scanning order barcodes) -------------
    batches = key_batches(orders, 2000, repeats=3, seed=1)
    dm_ms = measure_lookup(dm, batches) * 1000
    abc_ms = measure_lookup(abc, batches) * 1000
    print(f"random lookups, B=2000: DeepMapping {dm_ms:.1f} ms/batch "
          f"vs ABC-Z {abc_ms:.1f} ms/batch\n")

    # --- day-to-day modifications ---------------------------------------
    # New orders arrive (insert), a shipment completes (update), and a
    # cancelled order is purged (delete) — no retraining needed.
    new_keys = np.arange(orders.column("o_orderkey").max() + 4,
                         orders.column("o_orderkey").max() + 4 + 3 * 4, 4)
    dm.insert({
        "o_orderkey": new_keys,
        "o_custkey": np.array([11, 12, 13]),
        "o_orderstatus": np.array(["O", "O", "O"]),
        "o_orderpriority": np.array(["1-URGENT", "3-MEDIUM", "5-LOW"]),
        "o_year": np.array([1998, 1998, 1998]),
    })
    print(f"inserted orders {new_keys.tolist()}:",
          [dm.lookup_one(o_orderkey=int(k))["o_orderstatus"]
           for k in new_keys])

    shipped = dm.lookup_one(o_orderkey=int(new_keys[0]))
    shipped["o_orderstatus"] = "F"
    dm.update({name: np.array([value]) for name, value in
               {"o_orderkey": new_keys[0], **{k: v for k, v in shipped.items()}}.items()})
    print(f"order {new_keys[0]} after shipping:",
          dm.lookup_one(o_orderkey=int(new_keys[0]))["o_orderstatus"])

    dm.delete({"o_orderkey": new_keys[2:3]})
    print(f"order {new_keys[2]} after cancellation:",
          dm.lookup_one(o_orderkey=int(new_keys[2])))

    # The hybrid stayed consistent for the original data throughout.
    probe = {"o_orderkey": orders.column("o_orderkey")[:500]}
    result = dm.lookup(probe)
    assert result.found.all()
    print("\noriginal orders still answer losslessly:", bool(result.found.all()))


if __name__ == "__main__":
    main()
