"""Store-level lifecycle tests: split/merge mechanics, losslessness,
persistence of the lifecycle state, compiled/reference parity."""

import dataclasses

import numpy as np
import pytest

from repro.data import ColumnTable, synthetic
from repro.lifecycle import LifecycleConfig
from repro.shard import DeepMapping, ShardingConfig, ShardManifest
from repro.storage import LocalDirBackend
from repro.testing.oracles import barrier_lookup, reference_lookup

from ..core.conftest import fast_config


def assert_lossless(store, table, extra_rows=None):
    """Every row of ``table`` (+ ``extra_rows`` dicts) answers exactly,
    through the store's read path and through the reference engine
    behind the barrier merge alike."""
    keys = [np.asarray(table.column(store.key_names[0]), dtype=np.int64)]
    expected = {c: [np.asarray(table.column(c))] for c in store.value_names}
    if extra_rows:
        for rows in extra_rows:
            keys.append(np.asarray(rows[store.key_names[0]], dtype=np.int64))
            for c in store.value_names:
                expected[c].append(np.asarray(rows[c]))
    query = {store.key_names[0]: np.concatenate(keys)}
    for engine, result in (
            ("compiled", store.lookup(query)),
            ("reference", barrier_lookup(store, query,
                                         shard_lookup=reference_lookup))):
        assert result.found.all(), f"misses with the {engine} engine"
        for column in store.value_names:
            np.testing.assert_array_equal(
                result.values[column], np.concatenate(expected[column]),
                err_msg=f"column {column} with the {engine} engine")


@pytest.fixture
def table():
    return synthetic.multi_column(1200, "low", seed=3)


@pytest.fixture
def store(table):
    return DeepMapping.fit(
        table, fast_config(epochs=4),
        ShardingConfig(n_shards=4))


class TestSplitMechanics:
    def test_split_preserves_rows_and_balance(self, store, table):
        before = store.shard_row_counts()
        cut = store.split_shard(1)
        after = store.shard_row_counts()
        assert store.n_shards == 5
        assert sum(after) == sum(before)
        # Both halves non-empty, roughly even.
        assert after[1] > 0 and after[2] > 0
        assert after[1] + after[2] == before[1]
        assert cut == int(store.router.cuts[1])

    def test_split_is_lossless_both_paths(self, store, table):
        store.split_shard(0)
        store.split_shard(store.n_shards - 1)
        assert_lossless(store, table)

    def test_split_respects_explicit_cut(self, store, table):
        counts_before = store.shard_row_counts()
        leading = np.sort(table.column("key").astype(np.int64))
        # Shard 0 owns the lowest quarter; cut it 10 rows in.
        cut = int(leading[10])
        store.split_shard(0, cut=cut)
        assert store.shard_row_counts()[0] == 10
        assert sum(store.shard_row_counts()) == sum(counts_before)

    def test_split_rejects_empty_half(self, store, table):
        lo = int(table.column("key").min())
        with pytest.raises(ValueError, match="empty half"):
            store.split_shard(0, cut=lo)  # keys < lo is empty

    def test_split_rejects_empty_shard(self, store):
        store.delete({"key": np.arange(0, 300, dtype=np.int64)})
        # shard 0 may not be fully drained depending on cuts; force a
        # genuinely empty shard via a single-key check instead.
        empty_candidates = [i for i, n in enumerate(store.shard_row_counts())
                            if n == 0]
        if empty_candidates:
            with pytest.raises(ValueError):
                store.split_shard(empty_candidates[0])

    def test_retired_aux_partitions_are_dropped(self, store):
        shard = store.shards[2]
        store.split_shard(2)
        # The retired table's partitions are gone from the shared pool;
        # the successors' partitions answer instead.
        assert shard.aux._store.pool is store.pool
        assert store.lookup_one(key=650) is not None


class TestMergeMechanics:
    def test_merge_preserves_rows(self, store, table):
        before = store.shard_row_counts()
        store.merge_shards(1)
        after = store.shard_row_counts()
        assert store.n_shards == 3
        assert sum(after) == sum(before)
        assert after[1] == before[1] + before[2]

    def test_merge_is_lossless_both_paths(self, store, table):
        store.merge_shards(0)
        store.merge_shards(store.n_shards - 2)
        assert_lossless(store, table)

    def test_merge_then_split_round_trip(self, store, table):
        """A merge followed by a split at the removed boundary restores
        the original partition."""
        boundary = int(store.router.cuts[1])
        counts = store.shard_row_counts()
        store.merge_shards(1)
        store.split_shard(1, cut=boundary)
        assert store.shard_row_counts() == counts
        assert_lossless(store, table)

    def test_merge_empty_pair_removes_boundary(self, table):
        from repro.data import ColumnTable

        grp = np.repeat(np.array([0, 1], dtype=np.int64), 100)
        sub = np.tile(np.arange(100, dtype=np.int64), 2)
        rng = np.random.default_rng(7)
        two_group = ColumnTable(
            {"grp": grp, "sub": sub,
             "status": rng.choice(np.array(["A", "B"]), size=grp.size)},
            key=("grp", "sub"), name="two-group")
        store = DeepMapping.fit(
            two_group, fast_config(epochs=3),
            ShardingConfig(n_shards=4))
        counts = store.shard_row_counts()
        assert counts[2] == 0 and counts[3] == 0
        store.merge_shards(2)  # both empty -> just drop the boundary
        assert store.n_shards == 3
        assert store.shards[2] is None
        result = store.lookup(two_group.key_columns_dict())
        assert result.found.all()

    def test_merge_validates_ordinal(self, store):
        with pytest.raises(ValueError):
            store.merge_shards(3)  # no right neighbour
        with pytest.raises(ValueError):
            store.merge_shards(-1)


class TestLifecyclePersistence:
    def test_lifecycle_round_trips_through_save_load(self, table, tmp_path):
        lifecycle = LifecycleConfig(policy="bytes", retrain_bytes=1 << 20,
                                    rebalance=True, split_min_rows=64)
        store = DeepMapping.fit(
            table, fast_config(epochs=3),
            ShardingConfig(n_shards=4, lifecycle=lifecycle))
        store.split_shard(0)
        store.engine.n_splits += 1  # as the engine would have recorded
        path = str(tmp_path / "store")
        store.save(path)

        manifest = ShardManifest.load_from(LocalDirBackend(path, create=False))
        assert manifest.lifecycle["config"]["rebalance"] is True
        assert manifest.lifecycle["counters"]["splits"] == 1

        loaded = DeepMapping.load(path)
        assert loaded.engine is not None
        assert loaded.engine.n_splits == 1
        assert loaded.sharding.lifecycle == lifecycle
        assert loaded.n_shards == 5
        assert all(shard.model is loaded.model for shard in loaded.shards
                   if shard is not None)
        assert_lossless(loaded, table)

    def test_post_split_store_round_trips(self, store, table, tmp_path):
        store.split_shard(2)
        store.merge_shards(0)
        path = str(tmp_path / "store")
        store.save(path)
        loaded = DeepMapping.load(path)
        assert loaded.n_shards == store.n_shards
        assert loaded.shard_row_counts() == store.shard_row_counts()
        assert_lossless(loaded, table)

    def test_unmanaged_manifest_has_empty_lifecycle(self, store, tmp_path):
        path = str(tmp_path / "store")
        store.save(path)
        manifest = ShardManifest.load_from(LocalDirBackend(path, create=False))
        assert manifest.lifecycle == {}
        assert DeepMapping.load(path).engine is None


class TestSkewedStream:
    def test_rebalancing_beats_baseline_and_stays_lossless(self, table):
        """The acceptance scenario at test scale: a hot-range insert
        stream into a 4-shard store.  Rebalancing keeps max/mean bounded
        where the baseline concentrates everything in one shard."""
        config = fast_config(epochs=3, key_headroom_fraction=4.0)
        lifecycle = LifecycleConfig(policy="never", rebalance=True,
                                    split_balance=1.6, split_min_rows=64,
                                    merge_balance=0.4,
                                    max_actions_per_run=8)
        managed = DeepMapping.fit(
            table, config, ShardingConfig(n_shards=4, lifecycle=lifecycle))
        baseline = DeepMapping.fit(
            table, config, ShardingConfig(n_shards=4))

        rng = np.random.default_rng(11)
        kmax = int(table.column("key").max())
        hot = np.arange(kmax + 1, kmax + 1 + 1800, dtype=np.int64)
        inserted = []
        for start in range(0, hot.size, 600):
            batch_keys = hot[start:start + 600]
            rows = {"key": batch_keys}
            for column in managed.value_names:
                rows[column] = rng.choice(table.column(column),
                                          size=batch_keys.size)
            managed.insert(rows)
            baseline.insert({k: v.copy() for k, v in rows.items()})
            inserted.append(rows)
            # Lossless *during* the stream, both read paths.
            assert_lossless(managed, table, extra_rows=inserted)

        managed_counts = np.asarray(managed.shard_row_counts())
        baseline_counts = np.asarray(baseline.shard_row_counts())
        managed_ratio = managed_counts.max() / managed_counts.mean()
        baseline_ratio = baseline_counts.max() / baseline_counts.mean()
        assert managed_ratio <= 2.0
        assert baseline_ratio > 2.0
        assert managed_ratio < baseline_ratio


class TestOneModel:
    """Every shard answers through the store's one model."""

    def test_engine_retrain_keeps_the_stores_rebuilt_config(self, table):
        # A retrain refits with the config the store was last rebuilt
        # with, and every shard answers through that one model.
        store = DeepMapping.fit(
            table, fast_config(epochs=2),
            ShardingConfig(n_shards=2, lifecycle=LifecycleConfig(
                policy="bytes", retrain_bytes=1)))
        custom = dataclasses.replace(store.config, shared_sizes=(16,),
                                     private_sizes=(8,))
        store.rebuild(config=custom)
        assert all(shard.model is store.model for shard in store.shards)
        assert store.config == custom

        row = {name: column[:1]
               for name, column in table.columns_dict().items()}
        store.update(row)
        assert store.engine.n_rebuilds >= 1
        assert all(shard.model is store.model for shard in store.shards)
        assert store.config == custom
