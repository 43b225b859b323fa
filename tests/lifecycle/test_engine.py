"""Tests for the maintenance engine on a live sharded store."""

import numpy as np
import pytest

from repro.data import synthetic
from repro.lifecycle import LifecycleConfig, MaintenanceEngine
from repro.shard import ShardedDeepMapping, ShardingConfig

from ..core.conftest import fast_config


def managed_store(table, lifecycle, n_shards=4, **cfg):
    config = fast_config(epochs=4, **cfg)
    return ShardedDeepMapping.fit(
        table, config,
        ShardingConfig(n_shards=n_shards, strategy="range",
                       lifecycle=lifecycle))


def insert_rows(store, table, keys, rng):
    rows = {"key": np.asarray(keys, dtype=np.int64)}
    for column in store.value_names:
        rows[column] = rng.choice(table.column(column), size=len(keys))
    store.insert(rows)
    return rows


@pytest.fixture
def small_table():
    return synthetic.multi_column(1200, "low", seed=3)


class TestAdoption:
    """The store owns the model, so no shard ever retrains inline —
    managed or not: a shard applies rows and counts nothing."""

    def test_managed_shards_never_retrain_inline(self, small_table):
        store = managed_store(small_table, LifecycleConfig(policy="never"),
                              key_headroom_fraction=1.0,
                              retrain_threshold_bytes=1)
        assert store.engine is not None
        model = store.model
        insert_rows(store, small_table,
                    [int(small_table.column("key").max()) + 1],
                    np.random.default_rng(0))
        assert store.model is model
        assert store.tracker.bytes_since_build > 0
        assert all(shard.tracker is None
                   for shard in store.shards if shard is not None)

    def test_unmanaged_store_has_no_engine(self, small_table):
        store = ShardedDeepMapping.fit(
            small_table, fast_config(epochs=3), ShardingConfig(n_shards=2))
        assert store.engine is None
        store.delete({"key": small_table.column("key")[:3]})
        assert store.tracker.bytes_since_build > 0
        assert all(shard.tracker is None
                   for shard in store.shards if shard is not None)

    def test_fresh_shard_from_insert_never_retrains_inline(self):
        """An insert materializing an empty shard makes a shard of the
        store's model, which counts nothing of its own."""
        grp = np.repeat(np.array([0, 1], dtype=np.int64), 100)
        sub = np.tile(np.arange(100, dtype=np.int64), 2)
        rng = np.random.default_rng(7)
        from repro.data import ColumnTable
        table = ColumnTable(
            {"grp": grp, "sub": sub,
             "status": rng.choice(np.array(["A", "B"]), size=grp.size)},
            key=("grp", "sub"), name="two-group")
        store = managed_store(table, LifecycleConfig(policy="never"),
                              n_shards=4, retrain_threshold_bytes=1)
        empty = store.shard_row_counts().index(0)
        target = next(
            g for g in range(-5, 50)
            if int(store.router.route({"grp": np.array([g]),
                                       "sub": np.array([0])})[0]) == empty)
        model = store.model
        store.insert({"grp": np.array([target], dtype=np.int64),
                      "sub": np.array([0], dtype=np.int64),
                      "status": np.array(["A"])})
        assert store.shards[empty].model is model is store.model
        assert store.shards[empty].tracker is None

    def test_a_shard_refuses_to_be_mutated_or_retrained_directly(
            self, small_table, tmp_path):
        """A shard's T_aux holds the rows the *store's* model loses, so a
        shard retrained on its own would be saved under the wrong
        model; its owner entry points refuse and nothing changes."""
        store = managed_store(small_table, LifecycleConfig(policy="never"),
                              retrain_threshold_bytes=1)
        shard = next(s for s in store.shards if s is not None)
        rows = {"key": small_table.column("key")[:1],
                **{name: small_table.column(name)[:1]
                   for name in store.value_names}}
        for call in (lambda: shard.insert(rows), lambda: shard.update(rows),
                     lambda: shard.delete({"key": rows["key"]}),
                     shard.rebuild, shard.to_table):
            with pytest.raises(PermissionError, match="shard"):
                call()
        assert shard.model is store.model
        store.save(str(tmp_path / "store"))
        reopened = ShardedDeepMapping.load(str(tmp_path / "store"))
        assert all(s.tracker is None for s in reopened.shards
                   if s is not None)
        with pytest.raises(PermissionError, match="shard"):
            next(s for s in reopened.shards if s is not None).rebuild()


class TestRetrains:
    def test_bytes_policy_rebuilds_dirty_shard(self, small_table):
        # Headroom keeps the fresh key in-domain: an out-of-domain insert
        # would rebuild (and reset) the shard before the engine looks.
        store = managed_store(
            small_table,
            LifecycleConfig(policy="bytes", retrain_bytes=1),
            key_headroom_fraction=1.0)
        rng = np.random.default_rng(0)
        new_key = int(small_table.column("key").max()) + 1
        insert_rows(store, small_table, [new_key], rng)
        assert store.engine.n_rebuilds >= 1
        assert store.lookup_one(key=new_key) is not None
        # The store's counters were reset by mark_rebuilt().
        assert store.tracker.bytes_since_build == 0
        assert store.tracker.total_retrains >= 1

    def test_never_policy_accumulates(self, small_table):
        store = managed_store(small_table, LifecycleConfig(policy="never"),
                              key_headroom_fraction=1.0)
        rng = np.random.default_rng(0)
        new_key = int(small_table.column("key").max()) + 1
        insert_rows(store, small_table, [new_key], rng)
        assert store.engine.n_rebuilds == 0

    def test_aux_ratio_policy_fires_on_a_flooded_store(self, small_table):
        # The store holds 1200 rows, above the one 64-row floor.
        store = managed_store(
            small_table,
            LifecycleConfig(policy="aux-ratio", aux_ratio=0.01),
            key_headroom_fraction=1.0)
        rng = np.random.default_rng(1)
        new_key = int(small_table.column("key").max()) + 1
        insert_rows(store, small_table, [new_key], rng)
        # Low-correlation data: essentially every row sits in aux, so the
        # 1% bound fires immediately.
        assert store.engine.n_rebuilds >= 1

    @pytest.mark.parametrize("bound", ["bytes", "aux-ratio"])
    def test_engine_and_inline_rule_retrain_the_same_times(
            self, small_table, bound):
        """One rule: an engine asking the store with its policy's bounds
        and an unmanaged store asking itself with its config's bounds
        retrain the same number of times over the same stream."""
        if bound == "bytes":
            cfg = dict(retrain_threshold_bytes=1500)
            lifecycle = LifecycleConfig(policy="bytes")
        else:
            cfg = dict(retrain_aux_ratio=0.995)
            lifecycle = LifecycleConfig(policy="aux-ratio", aux_ratio=0.995)

        def retrains(lifecycle):
            store = managed_store(small_table, lifecycle,
                                  key_headroom_fraction=1.0, **cfg)
            rng = np.random.default_rng(5)
            keys = rng.permutation(small_table.column("key"))
            for batch in range(4):
                updated = keys[batch * 100:(batch + 1) * 100]
                store.update({"key": updated, **{
                    c: rng.choice(small_table.column(c), size=updated.size)
                    for c in store.value_names}})
                store.delete({"key": keys[1000 + batch * 40:
                                          1000 + (batch + 1) * 40]})
            return store.tracker.total_retrains

        inline, managed = retrains(None), retrains(lifecycle)
        assert inline == managed
        assert inline > 0

    def test_events_recorded(self, small_table):
        store = managed_store(
            small_table, LifecycleConfig(policy="bytes", retrain_bytes=1),
            key_headroom_fraction=1.0)
        rng = np.random.default_rng(2)
        insert_rows(store, small_table,
                    [int(small_table.column("key").max()) + 1], rng)
        kinds = [event.kind for event in store.engine.events]
        assert "rebuild" in kinds


class TestRebalance:
    def test_split_fires_on_overfull_shard(self, small_table):
        lifecycle = LifecycleConfig(policy="never", rebalance=True,
                                    split_balance=1.5, split_min_rows=64,
                                    max_actions_per_run=8)
        store = managed_store(small_table, lifecycle)
        rng = np.random.default_rng(3)
        kmax = int(small_table.column("key").max())
        n_before = store.n_shards
        insert_rows(store, small_table,
                    np.arange(kmax + 1, kmax + 1201, dtype=np.int64), rng)
        assert store.engine.n_splits >= 1
        assert store.n_shards > n_before
        counts = np.asarray(store.shard_row_counts())
        assert counts.max() / counts.mean() <= 2.0

    def test_merge_fires_on_drained_shards(self, small_table):
        lifecycle = LifecycleConfig(policy="never", rebalance=True,
                                    merge_balance=0.6, min_shards=2,
                                    max_actions_per_run=8)
        store = managed_store(small_table, lifecycle)
        # Drain the first two shards almost entirely.
        keys = np.sort(small_table.column("key").astype(np.int64))
        store.delete({"key": keys[:580]})
        assert store.engine.n_merges >= 1
        assert store.n_shards < 4
        # Everything still there and found.
        remaining = keys[580:]
        assert store.lookup({"key": remaining}).found.all()

    def test_min_shards_respected(self, small_table):
        lifecycle = LifecycleConfig(policy="never", rebalance=True,
                                    merge_balance=0.99, min_shards=4)
        store = managed_store(small_table, lifecycle)
        keys = np.sort(small_table.column("key").astype(np.int64))
        store.delete({"key": keys[:900]})
        assert store.n_shards >= 4

    def test_max_shards_respected(self, small_table):
        lifecycle = LifecycleConfig(policy="never", rebalance=True,
                                    split_balance=1.1, split_min_rows=1,
                                    max_shards=6, max_actions_per_run=16)
        store = managed_store(small_table, lifecycle)
        rng = np.random.default_rng(4)
        kmax = int(small_table.column("key").max())
        insert_rows(store, small_table,
                    np.arange(kmax + 1, kmax + 2001, dtype=np.int64), rng)
        assert store.n_shards <= 6

    def test_hash_strategy_rejects_rebalance(self, small_table):
        with pytest.raises(ValueError, match="range"):
            ShardingConfig(n_shards=4, strategy="hash",
                           lifecycle=LifecycleConfig(rebalance=True))

    def test_engine_repr_and_summary(self, small_table):
        store = managed_store(small_table,
                              LifecycleConfig(policy="never", rebalance=True))
        summary = store.engine.summary()
        assert summary["policy"] == "never"
        assert summary["rebalance"] is True
        assert "MaintenanceEngine" in repr(store.engine)
