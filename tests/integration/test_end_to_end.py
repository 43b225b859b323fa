"""Integration tests: every representation agrees on every workload.

These cross-module tests treat DeepMapping and all baselines as black-box
key-value stores and require identical answers over shared workloads,
under generous and hostile memory budgets alike.
"""

import numpy as np
import pytest

from repro import DeepMapping, DeepMappingConfig, ShardingConfig
from repro.baselines import make_baseline
from repro.bench import key_batches
from repro.data import synthetic, tpcds, tpch
from repro.storage import BufferPool

FAST = DeepMappingConfig(epochs=15, batch_size=512, shared_sizes=(32,),
                         private_sizes=(16,), aux_partition_bytes=8192)

STORES = ["AB", "ABC-D", "ABC-G", "ABC-Z", "ABC-L", "HB", "HBC-Z", "HBC-L"]


@pytest.fixture(scope="module")
def orders():
    return tpch.generate("orders", scale=0.15, seed=21)


@pytest.fixture(scope="module")
def dm(orders):
    return DeepMapping.fit(orders, FAST)


class TestCrossSystemAgreement:
    @pytest.mark.parametrize("store_name", STORES)
    def test_baseline_agrees_with_deepmapping(self, orders, dm, store_name):
        store = make_baseline(store_name,
                              target_partition_bytes=8192).build(orders)
        batch = key_batches(orders, 400, repeats=1, seed=3)[0]
        a = dm.lookup(batch)
        b = store.lookup(batch)
        np.testing.assert_array_equal(a.found, b.found)
        for col in orders.value_columns:
            assert all(
                str(a.values[col][i]) == str(b.values[col][i])
                for i in range(400) if a.found[i]
            ), col

    def test_agreement_on_misses(self, orders, dm):
        probe = {"o_orderkey": orders.column("o_orderkey")[:100] + 1}
        store = make_baseline("ABC-Z").build(orders)
        assert not dm.lookup(probe).found.any()
        assert not store.lookup(probe).found.any()


class TestMemoryPressureInvariance:
    """Answers must not depend on the pool budget — only latency may."""

    @pytest.mark.parametrize("budget", [None, 64 * 1024, 4 * 1024, 256])
    def test_array_store_budget_invariance(self, orders, budget):
        pool = BufferPool(budget_bytes=budget)
        store = make_baseline("ABC-Z", target_partition_bytes=4096,
                              pool=pool).build(orders)
        batch = key_batches(orders, 300, repeats=1, seed=4)[0]
        result = store.lookup(batch)
        reference = make_baseline("AB").build(orders).lookup(batch)
        np.testing.assert_array_equal(result.found, reference.found)
        for col in orders.value_columns:
            assert all(str(x) == str(y) for x, y in
                       zip(result.values[col], reference.values[col]))

    @pytest.mark.parametrize("budget", [None, 16 * 1024, 512])
    def test_deepmapping_budget_invariance(self, orders, budget):
        dm = DeepMapping.fit(orders, FAST,
                             ShardingConfig(pool_budget_bytes=budget))
        batch = key_batches(orders, 300, repeats=1, seed=4)[0]
        result = dm.lookup(batch)
        assert result.found.all()
        idx = np.searchsorted(orders.column("o_orderkey"),
                              batch["o_orderkey"])
        for col in orders.value_columns:
            np.testing.assert_array_equal(result.values[col],
                                          orders.column(col)[idx])


class TestLifecycleRoundtrip:
    def test_modify_save_load_modify(self, tmp_path):
        table = synthetic.multi_column(600, "high")
        dm = DeepMapping.fit(table, DeepMappingConfig(
            epochs=30, batch_size=256, shared_sizes=(32,),
            private_sizes=(16,), key_headroom_fraction=1.0))
        dm.delete({"key": table.column("key")[:50]})
        batch = synthetic.insert_batch(table, 40, "high")
        dm.insert(batch)

        path = str(tmp_path / "m.dm")
        dm.save(path)
        clone = DeepMapping.load(path)

        # The clone carries the modifications...
        assert not clone.lookup({"key": table.column("key")[:50]}).found.any()
        assert clone.lookup({"key": batch.column("key")}).found.all()
        # ...and keeps accepting new ones.
        clone.delete({"key": batch.column("key")[:10]})
        assert not clone.lookup({"key": batch.column("key")[:10]}).found.any()

    def test_rebuild_preserves_equivalence_with_dict(self):
        table = synthetic.multi_column(500, "low")
        dm = DeepMapping.fit(table, DeepMappingConfig(
            epochs=10, batch_size=256, shared_sizes=(32,), private_sizes=(16,),
            key_headroom_fraction=1.0, retrain_threshold_bytes=1))
        model = {int(k): tuple(int(table.column(f"v{j}")[i]) for j in range(4))
                 for i, k in enumerate(table.column("key"))}
        batch = synthetic.insert_batch(table, 50, "low")
        dm.insert(batch)  # certainly triggers a retrain (1-byte threshold)
        for i, k in enumerate(batch.column("key")):
            model[int(k)] = tuple(int(batch.column(f"v{j}")[i])
                                  for j in range(4))
        assert dm.tracker.total_retrains >= 1
        probe = np.array(sorted(model), dtype=np.int64)
        result = dm.lookup({"key": probe})
        assert result.found.all()
        for j in range(4):
            want = np.array([model[int(k)][j] for k in probe])
            np.testing.assert_array_equal(result.values[f"v{j}"], want)


class TestTpcdsEndToEnd:
    def test_customer_demographics_flagship(self):
        """The paper's flagship result: the cross-product table collapses
        into a tiny structure while staying exactly queryable."""
        table = tpcds.generate("customer_demographics", scale=0.15)
        dm = DeepMapping.fit(table, DeepMappingConfig(
            epochs=120, batch_size=512))
        report = dm.size_report()
        assert report.compression_ratio < 0.5
        result = dm.lookup({"cd_demo_sk": table.column("cd_demo_sk")})
        assert result.found.all()
        for col in table.value_columns:
            np.testing.assert_array_equal(result.values[col],
                                          table.column(col))
