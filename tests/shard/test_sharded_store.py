"""Tests for DeepMapping: routing, parity, persistence, mutation."""

import os

import numpy as np
import pytest

from repro.core import select
from repro.data import ColumnTable
from repro.shard import DeepMapping, ShardingConfig

from ..core.conftest import fast_config


def query_keys(table, rng, n_miss=3):
    """Shuffled existing keys plus a few guaranteed misses, interleaved."""
    existing = rng.permutation(table.column("key"))[:400]
    missing = np.array([10**7 + i for i in range(n_miss)], dtype=np.int64)
    keys = np.concatenate([existing, missing])
    return keys[rng.permutation(keys.size)]


class TestLookupParity:
    def test_matches_one_shard_and_preserves_input_order(self, small_table):
        config = fast_config(epochs=5)
        mono = DeepMapping.fit(small_table, config)
        sharded = DeepMapping.fit(
            small_table, config, ShardingConfig(n_shards=4))
        rng = np.random.default_rng(11)
        keys = query_keys(small_table, rng)

        expected = mono.lookup({"key": keys})
        got = sharded.lookup({"key": keys})
        np.testing.assert_array_equal(got.found, expected.found)
        for column in sharded.value_names:
            np.testing.assert_array_equal(
                got.values[column][got.found],
                expected.values[column][expected.found],
            )

    def test_misses_reported_per_key(self, sharded, small_table):
        keys = np.array([int(small_table.column("key")[0]), 10**8,
                         int(small_table.column("key")[5]), -4], dtype=np.int64)
        result = sharded.lookup({"key": keys})
        np.testing.assert_array_equal(result.found,
                                      [True, False, True, False])
        rows = list(result.rows())
        assert rows[1] is None and rows[3] is None
        assert rows[0] is not None and rows[2] is not None

    def test_parallel_workers_match_serial(self, small_table):
        config = fast_config(epochs=5)
        serial = DeepMapping.fit(
            small_table, config,
            ShardingConfig(n_shards=4, executor="serial"))
        with DeepMapping.fit(
                small_table, config,
                ShardingConfig(n_shards=4)) as pooled:
            rng = np.random.default_rng(5)
            keys = query_keys(small_table, rng)
            a = serial.lookup_async({"key": keys}).result(timeout=30)
            b = pooled.lookup_async({"key": keys}).result(timeout=30)
        np.testing.assert_array_equal(a.found, b.found)
        for column in serial.value_names:
            np.testing.assert_array_equal(a.values[column][a.found],
                                          b.values[column][b.found])

    def test_concurrent_lookups_share_one_executor(self, small_table):
        import threading

        store = DeepMapping.fit(
            small_table, fast_config(epochs=3),
            ShardingConfig(n_shards=4))
        keys = {"key": small_table.column("key")[:50]}
        futures = []

        def submit():
            futures.append(store.lookup_async(keys))

        threads = [threading.Thread(target=submit) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(f.result(timeout=30).found.all() for f in futures)
        pool = store.executor._pool
        assert pool is not None and pool._max_workers == 2
        store.close()
        assert store.executor._pool is None

    def test_empty_batch(self, sharded):
        result = sharded.lookup({"key": np.empty(0, dtype=np.int64)})
        assert len(result) == 0
        assert set(result.values) == set(sharded.value_names)

    def test_single_shard_store_works(self, small_table):
        store = DeepMapping.fit(
            small_table, fast_config(epochs=5), ShardingConfig(n_shards=1))
        assert store.n_shards == 1
        key = int(small_table.column("key")[3])
        assert store.lookup_one(key=key) is not None

    def test_select_runs_transparently(self, sharded, small_table):
        key = int(small_table.column("key")[10])
        rows = select(sharded, ["*"], {"key": [key, 10**9]})
        assert rows[0] is not None and set(rows[0]) == set(sharded.value_names)
        assert rows[1] is None


class TestEmptyShards:
    def test_range_sharding_sparse_leading_column(self, two_group_table):
        store = DeepMapping.fit(
            two_group_table, fast_config(epochs=4),
            ShardingConfig(n_shards=4))
        counts = store.shard_row_counts()
        assert sum(counts) == two_group_table.n_rows
        assert 0 in counts  # two distinct leading keys cannot fill 4 shards
        result = store.lookup(two_group_table.key_columns_dict())
        assert result.found.all()

    def test_empty_shards_round_trip_save_load(self, two_group_table, tmp_path):
        store = DeepMapping.fit(
            two_group_table, fast_config(epochs=4),
            ShardingConfig(n_shards=4))
        path = str(tmp_path / "store")
        nbytes = store.save(path)
        assert nbytes > 0

        loaded = DeepMapping.load(path)
        assert loaded.shard_row_counts() == store.shard_row_counts()
        assert len(loaded) == len(store)
        # Keys owned by an empty shard are clean per-key misses.
        probe = {"grp": np.array([0, 1, 5], dtype=np.int64),
                 "sub": np.array([0, 149, 0], dtype=np.int64)}
        result = loaded.lookup(probe)
        np.testing.assert_array_equal(result.found, [True, True, False])

    def test_insert_materializes_empty_shard(self, two_group_table):
        store = DeepMapping.fit(
            two_group_table, fast_config(epochs=4),
            ShardingConfig(n_shards=4))
        empty = store.shard_row_counts().index(0)
        # Find a key the router sends to the empty shard: leading keys route
        # by range, so scan candidates on both sides of the observed domain.
        target = None
        for grp in range(-5, 50):
            ordinal = int(store.router.route(
                {"grp": np.array([grp]), "sub": np.array([0])})[0])
            if ordinal == empty:
                target = grp
                break
        assert target is not None, "no candidate key routed to the empty shard"
        landed = store.insert({
            "grp": np.array([target], dtype=np.int64),
            "sub": np.array([0], dtype=np.int64),
            "status": np.array(["A"]),
        })
        assert landed >= 0
        assert store.shard_row_counts()[empty] == 1
        assert store.lookup_one(grp=target, sub=0) is not None


class TestModifications:
    def test_insert_lands_in_owning_shard(self, sharded, small_table):
        new_key = int(small_table.column("key").max()) + 17
        owner = int(sharded.router.route({"key": np.array([new_key])})[0])
        before = sharded.shard_row_counts()
        sharded.insert({
            "key": np.array([new_key], dtype=np.int64),
            **{c: np.array([small_table.column(c)[0]])
               for c in sharded.value_names},
        })
        after = sharded.shard_row_counts()
        assert after[owner] == before[owner] + 1
        unchanged = [i for i in range(sharded.n_shards) if i != owner]
        assert all(after[i] == before[i] for i in unchanged)
        assert sharded.lookup_one(key=new_key) is not None

    def test_delete_routes_and_ignores_absent(self, sharded, small_table):
        victims = small_table.column("key")[:5].astype(np.int64)
        n_before = len(sharded)
        deleted = sharded.delete({"key": np.concatenate(
            [victims, np.array([10**9], dtype=np.int64)])})
        assert deleted == 5
        assert len(sharded) == n_before - 5
        assert not sharded.lookup({"key": victims}).found.any()

    def test_update_changes_values_in_place(self, sharded, small_table):
        key = int(small_table.column("key")[42])
        row = {c: np.array([small_table.column(c)[0]])
               for c in sharded.value_names}
        sharded.update({"key": np.array([key], dtype=np.int64), **row})
        got = sharded.lookup_one(key=key)
        for column in sharded.value_names:
            assert got[column] == row[column][0]

    def test_update_missing_key_raises(self, sharded):
        with pytest.raises(KeyError):
            sharded.update({
                "key": np.array([10**9], dtype=np.int64),
                **{c: np.array([0]) for c in sharded.value_names},
            })

    def test_insert_is_all_or_nothing(self, sharded, small_table):
        """A batch with one existing key must not mutate any shard."""
        fresh = int(small_table.column("key").max()) + 101
        existing = int(small_table.column("key")[0])
        before = sharded.shard_row_counts()
        with pytest.raises(ValueError, match="already exist"):
            sharded.insert({
                "key": np.array([fresh, existing], dtype=np.int64),
                **{c: np.repeat(small_table.column(c)[:1], 2)
                   for c in sharded.value_names},
            })
        assert sharded.shard_row_counts() == before
        assert sharded.lookup_one(key=fresh) is None

    def test_insert_rejects_intra_batch_duplicates(self, sharded,
                                                   small_table):
        """A duplicated new key would fail inside one shard after others
        were mutated; the facade must reject it before touching anything."""
        low = int(small_table.column("key").min()) - 5
        high = int(small_table.column("key").max()) * 6
        before = sharded.shard_row_counts()
        with pytest.raises(ValueError, match="duplicate"):
            sharded.insert({
                "key": np.array([low, high, high], dtype=np.int64),
                **{c: np.repeat(small_table.column(c)[:1], 3)
                   for c in sharded.value_names},
            })
        assert sharded.shard_row_counts() == before
        assert sharded.lookup_one(key=low) is None
        assert sharded.lookup_one(key=high) is None

    def test_update_is_all_or_nothing(self, sharded, small_table):
        """A batch with one missing key must not mutate any shard."""
        key_a = int(small_table.column("key")[3])
        original = sharded.lookup_one(key=key_a)
        new_row = {c: np.repeat(small_table.column(c)[7:8], 2)
                   for c in sharded.value_names}
        with pytest.raises(KeyError, match="do not exist"):
            sharded.update({
                "key": np.array([key_a, 10**9], dtype=np.int64), **new_row,
            })
        assert sharded.lookup_one(key=key_a) == original


class TestPersistence:
    def test_round_trip_preserves_lookups(self, sharded, small_table,
                                          tmp_path):
        path = str(tmp_path / "store")
        sharded.save(path)
        assert os.path.isfile(os.path.join(path, "manifest.json"))

        loaded = DeepMapping.load(path)
        rng = np.random.default_rng(9)
        keys = query_keys(small_table, rng)
        a, b = sharded.lookup({"key": keys}), loaded.lookup({"key": keys})
        np.testing.assert_array_equal(a.found, b.found)
        for column in sharded.value_names:
            np.testing.assert_array_equal(a.values[column][a.found],
                                          b.values[column][b.found])

    def test_load_overrides_executor_and_budget(self, sharded, tmp_path):
        path = str(tmp_path / "store")
        sharded.save(path)
        loaded = DeepMapping.load(path, executor="serial",
                                  pool_budget_bytes=1 << 20)
        assert loaded.executor.name == "serial"
        assert loaded.pool.budget_bytes == 1 << 20

    def test_a_manifest_carrying_max_workers_still_opens(self, sharded,
                                                         tmp_path):
        # Manifests written before the fan-out lane went name its width;
        # the key is ignored.
        import json
        path = tmp_path / "store"
        sharded.save(str(path))
        manifest = path / "manifest.json"
        state = json.loads(manifest.read_text())
        assert "max_workers" not in state["sharding"]
        state["sharding"]["max_workers"] = 4
        manifest.write_text(json.dumps(state))
        loaded = DeepMapping.load(str(path))
        assert not hasattr(loaded.sharding, "max_workers")
        keys = {"key": np.arange(-5, 200, dtype=np.int64)}
        a, b = sharded.lookup(keys), loaded.lookup(keys)
        np.testing.assert_array_equal(a.found, b.found)

    def test_size_report_aggregates_all_shards(self, sharded):
        report = sharded.size_report()
        per_shard = [shard.aux.stored_bytes() for shard in sharded.shards
                     if shard is not None]
        # One model, decode map and V_exist, counted once; T_aux summed
        # over shards.
        assert report.model_bytes == sharded.model.session.nbytes
        assert report.decode_bytes == sharded.model.fdecode.nbytes
        assert report.aux_bytes == sum(per_shard)
        assert report.exist_bytes == sharded.exist.stored_bytes()
        assert report.n_rows == len(sharded)
        assert report.total_bytes > 0

    def test_to_table_round_trips_content(self, two_group_table):
        store = DeepMapping.fit(
            two_group_table, fast_config(epochs=4),
            ShardingConfig(n_shards=4))
        table = store.to_table()
        assert table.n_rows == two_group_table.n_rows
        result = store.lookup(table.key_columns_dict())
        assert result.found.all()


class TestRebuildKeepsCoHosting:
    def test_out_of_domain_insert_keeps_the_shared_pool(self, small_table):
        """A shard rebuild (out-of-domain insert) must stay on the store's
        shared pool."""
        store = DeepMapping.fit(
            small_table, fast_config(epochs=4),
            ShardingConfig(n_shards=3))
        far_key = int(small_table.column("key").max()) * 10 + 7
        owner = int(store.router.route({"key": np.array([far_key])})[0])
        store.insert({
            "key": np.array([far_key], dtype=np.int64),
            **{c: np.array([small_table.column(c)[0]])
               for c in store.value_names},
        })
        rebuilt = store.shards[owner]
        assert rebuilt.aux.pool is store.pool
        assert store.lookup_one(key=far_key) is not None

    def test_explicit_rebuild_keeps_the_pool(self, small_table):
        dm = DeepMapping.fit(small_table, fast_config(epochs=3))
        pool = dm.pool
        dm.rebuild()
        assert dm.shards[0].aux.pool is pool


class TestConfigValidation:
    def test_bad_shard_count(self):
        with pytest.raises(ValueError):
            ShardingConfig(n_shards=0)

    @pytest.mark.parametrize("strategy", ["hash", "modulo"])
    def test_range_is_the_only_strategy(self, strategy):
        with pytest.raises(ValueError, match="range placement"):
            ShardingConfig(strategy=strategy)
