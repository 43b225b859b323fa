"""The sharded store's one existence index: the existence stage of every
read and write.

A sharded store keeps **one** ``V_exist`` over its model's whole key
domain (``store.exist``), and every shard reads that same object.  The
read path tests a batch against it once, routes only the live keys and
counts every other key in ``pruned_keys``; writes set and clear its bits,
so a deleted key is a miss at the existence stage alone.  These tests
hold that index to the store's content through both router strategies,
inserts (one that fails part-way too), deletes, updates, rebuild, split,
merge and save / reopen, and hold the read path to the unpruned
``barrier_lookup`` oracle.
"""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.core.exist_index import (ExistenceIndex,
                                    SparseExistenceIndex)
from repro.data import synthetic
from repro.shard import ShardedDeepMapping, ShardingConfig
from repro.shard.manifest import EXIST_NAME, MANIFEST_NAME
from repro.testing.oracles import barrier_lookup

from ..core.conftest import fast_config


def assert_bit_identical(actual, expected, value_names):
    np.testing.assert_array_equal(actual.found, expected.found)
    for column in value_names:
        np.testing.assert_array_equal(actual.values[column],
                                      expected.values[column])
        assert actual.values[column].dtype == expected.values[column].dtype


def assert_index_holds(store, live):
    """The store's index holds exactly ``live`` (flat keys of a
    single-column table), every shard reads it, and the shards' live
    counts add up to it."""
    codec = store.model.key_codec
    expected = np.sort(codec.flatten(
        {store.key_names[0]: np.asarray(sorted(live), dtype=np.int64)}))
    np.testing.assert_array_equal(store.exist.existing_keys(), expected)
    assert len(store) == len(live)
    assert all(shard.exist is store.exist
               for shard in store.shards if shard is not None)
    assert sum(store.shard_row_counts()) == len(live)


int64s = st.integers(min_value=-2**62, max_value=2**62)


@pytest.fixture(scope="module", params=["range", "hash"])
def routed_store(request):
    table = synthetic.multi_column(1000, "low", seed=9)
    store = ShardedDeepMapping.fit(
        table, fast_config(epochs=4),
        ShardingConfig(n_shards=4, strategy=request.param))
    return store, table


class TestExistenceStage:
    def test_index_holds_every_key_after_fit(self, routed_store):
        store, table = routed_store
        assert_index_holds(store, set(table.column("key").tolist()))
        assert store.contains_batch(
            {"key": table.column("key")}).all()

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_lookup_parity_random_batches(self, routed_store, data):
        store, table = routed_store
        live = table.column("key")
        lo, hi = int(live.min()) - 100, int(live.max()) + 100
        keys = data.draw(st.lists(
            st.one_of(st.sampled_from(list(live[:150])),
                      st.integers(lo, hi),
                      int64s),
            min_size=1, max_size=400))
        query = {"key": np.asarray(keys, dtype=np.int64)}
        before = store.stats.counters.get("pruned_keys", 0)
        result = store.lookup(query)
        assert_bit_identical(result, barrier_lookup(store, query),
                             store.value_names)
        np.testing.assert_array_equal(store.contains_batch(query),
                                      result.found)
        # Every miss is pruned, whatever the batch's hit share.
        assert store.stats.counters.get("pruned_keys", 0) - before == \
            int((~result.found).sum())


class TestIndexSelection:
    """The store's one index is picked by ``make_existence_index``'s rule
    over the model's whole key domain, whatever the router: a bitmap
    where the domain is dense, sorted keys where it is not."""

    @pytest.mark.parametrize("strategy", ["range", "hash"])
    def test_dense_domain_picks_a_bitmap(self, strategy):
        table = synthetic.single_column(600, "high", seed=2)
        store = ShardedDeepMapping.fit(
            table, fast_config(epochs=2),
            ShardingConfig(n_shards=3, strategy=strategy))
        assert isinstance(store.exist, ExistenceIndex)
        assert store.exist.domain_size == store.model.key_codec.domain_size
        assert_index_holds(store, set(table.column(table.key[0]).tolist()))
        store.close()

    @pytest.mark.parametrize("strategy", ["range", "hash"])
    def test_sparse_domain_picks_sorted_keys(self, strategy):
        # 600 keys over a 120 000-key domain: a bitmap would spend 200
        # bits per key.
        table = synthetic.single_column(600, "high", seed=2,
                                        domain_factor=200.0)
        store = ShardedDeepMapping.fit(
            table, fast_config(epochs=2),
            ShardingConfig(n_shards=3, strategy=strategy))
        assert isinstance(store.exist, SparseExistenceIndex)
        assert store.exist.domain_size == store.model.key_codec.domain_size
        live = table.column(table.key[0])
        assert_index_holds(store, set(live.tolist()))
        gaps = np.setdiff1d(np.arange(live.min(), live.max(),
                                      dtype=np.int64), live)[:300]
        assert not store.contains_batch({table.key[0]: gaps}).any()
        store.close()


class TestMutationInvariants:
    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_insert_delete_sequences(self, data):
        table = synthetic.multi_column(300, "low", seed=4)
        store = ShardedDeepMapping.fit(
            table, fast_config(epochs=2),
            ShardingConfig(n_shards=3, strategy=data.draw(
                st.sampled_from(["range", "hash"]))))
        live = set(int(k) for k in table.column("key"))
        hi = max(live)
        template = {c: np.array([table.column(c)[0]])
                    for c in store.value_names}
        for _ in range(data.draw(st.integers(1, 4))):
            if data.draw(st.booleans()) or not live:
                fresh = data.draw(st.integers(hi + 1, hi + 10**6))
                if fresh in live:
                    continue
                store.insert({
                    "key": np.array([fresh], dtype=np.int64), **template})
                live.add(fresh)
            else:
                victim = data.draw(st.sampled_from(sorted(live)))
                store.delete({"key": np.array([victim], dtype=np.int64)})
                live.remove(victim)
                assert not store.contains_batch(
                    {"key": np.array([victim], dtype=np.int64)}).any()
            assert_index_holds(store, live)
        probe = np.array(sorted(live), dtype=np.int64)
        assert store.lookup({"key": probe}).found.all()
        store.close()

    def test_insert_far_outside_the_dense_domain_goes_sparse(self):
        table = synthetic.single_column(600, "high", seed=6)
        store = ShardedDeepMapping.fit(
            table, fast_config(epochs=2),
            ShardingConfig(n_shards=3, strategy="range"))
        key_name = table.key[0]
        value = {c: np.array([table.column(c)[0]])
                 for c in store.value_names}
        far = int(table.column(key_name).max()) + 10**9
        store.insert({key_name: np.array([far], dtype=np.int64), **value})
        # One index, swapped in everywhere at once.
        assert isinstance(store.exist, SparseExistenceIndex)
        assert_index_holds(store, set(table.column(key_name).tolist())
                           | {far})
        assert store.lookup_one(**{key_name: far}) is not None
        miss = np.array([far + 1, far + 2], dtype=np.int64)
        assert not store.lookup({key_name: miss}).found.any()
        store.close()

    def test_update_and_rebuild_keep_invariant(self, routed_store):
        store, table = routed_store
        key = int(table.column("key")[10])
        row = {c: np.array([table.column(c)[3]]) for c in store.value_names}
        store.update({"key": np.array([key], dtype=np.int64), **row})
        live = set(table.column("key").tolist())
        assert_index_holds(store, live)
        before = store.exist
        store.rebuild(fast_config(epochs=2))
        assert store.exist is not before  # a retrain builds a new index
        assert_index_holds(store, live)
        got = store.lookup_one(key=key)
        for column in store.value_names:
            assert got[column] == row[column][0]


class TestLifecycleInvariants:
    def test_split_then_merge_keep_the_index(self):
        table = synthetic.single_column(800, "high", seed=8)
        store = ShardedDeepMapping.fit(
            table, fast_config(epochs=2),
            ShardingConfig(n_shards=2, strategy="range"))
        live = set(table.column(table.key[0]).tolist())
        query = {table.key[0]: np.concatenate([
            table.column(table.key[0])[:200],
            np.array([10**8, 10**8 + 1], dtype=np.int64)])}
        reference = barrier_lookup(store, query)
        index = store.exist
        store.split_shard(0)
        assert store.exist is index
        assert_index_holds(store, live)
        assert_bit_identical(store.lookup(query), reference,
                             store.value_names)
        store.merge_shards(0)
        assert store.exist is index
        assert_index_holds(store, live)
        assert_bit_identical(store.lookup(query), reference,
                             store.value_names)
        store.close()


class TestPartialInsertFailure:
    """A multi-shard insert that raises part-way leaves the index holding
    exactly the rows that landed."""

    def test_rows_that_landed_are_found(self, monkeypatch):
        table = synthetic.single_column(800, "high", seed=3,
                                        domain_factor=2.0)
        store = ShardedDeepMapping.fit(
            table, fast_config(epochs=2),
            ShardingConfig(n_shards=4, strategy="range"))
        key_name = table.key[0]
        live = np.asarray(table.column(key_name), dtype=np.int64)
        gaps = np.setdiff1d(
            np.arange(live.min(), live.max(), dtype=np.int64), live)
        owners = store.router.route({key_name: gaps})
        fresh = np.concatenate([gaps[owners == ordinal][:5]
                                for ordinal in range(4)])
        assert fresh.size == 20

        def refuse(flat, labels, lost):
            raise RuntimeError("injected shard failure")

        monkeypatch.setattr(store.shards[2], "hold", refuse)
        before = len(store)
        rows = {c: np.repeat(table.column(c)[:1], fresh.size)
                for c in store.value_names}
        with pytest.raises(RuntimeError, match="injected"):
            store.insert({key_name: fresh, **rows})
        landed, lost = fresh[:10], fresh[10:]   # shards 0-1 / shards 2-3
        assert store.contains_batch({key_name: landed}).all()
        assert not store.contains_batch({key_name: lost}).any()
        assert len(store) == before + landed.size
        assert sum(store.shard_row_counts()) == len(store)
        far = np.arange(10**8, 10**8 + 40, dtype=np.int64)
        query = {key_name: np.concatenate([landed, lost, far])}
        result = store.lookup(query)
        np.testing.assert_array_equal(
            result.found, np.arange(query[key_name].size) < landed.size)
        assert_bit_identical(result, barrier_lookup(store, query),
                             store.value_names)
        store.close()


class TestPersistence:
    def test_round_trip_parity(self, routed_store, tmp_path):
        """The index is saved once, as ``exist.rzc``; the manifest holds
        no key set, and every open answers as the unpruned oracle."""
        store, table = routed_store
        path = str(tmp_path / "store")
        store.save(path)
        with open(os.path.join(path, MANIFEST_NAME)) as handle:
            raw = json.load(handle)
        assert raw["version"] == 4
        assert "store_filter" not in raw
        assert isinstance(raw["exist_crc"], int)
        assert os.path.isfile(os.path.join(path, EXIST_NAME))

        rng = np.random.default_rng(5)
        live = table.column("key")
        query = {"key": np.concatenate([
            rng.choice(live, 300),
            rng.integers(live.min() - 50, live.max() + 10**6, 300)])}
        reference = barrier_lookup(store, query)
        for writable in (True, False):
            reopened = repro.open(path, writable=writable)
            assert_index_holds(reopened, set(live.tolist()))
            assert reopened.shard_row_counts() == store.shard_row_counts()
            assert_bit_identical(reopened.lookup(query), reference,
                                 store.value_names)
            reopened.close()


class TestPrunedKeysCounter:
    def test_every_miss_is_pruned_and_no_hit(self):
        table = synthetic.single_column(600, "high", seed=7,
                                        domain_factor=1.0)
        store = ShardedDeepMapping.fit(
            table, fast_config(epochs=2),
            ShardingConfig(n_shards=3, strategy="range"))
        key_name = table.key[0]
        hi = int(table.column(key_name).max())
        miss = np.arange(hi + 10, hi + 410, dtype=np.int64)
        assert not store.lookup({key_name: miss}).found.any()
        assert store.stats.counters.get("pruned_keys", 0) == miss.size

        # A pure-hit batch counts nothing.
        before = store.stats.counters.get("pruned_keys", 0)
        hits = table.column(key_name)[:400].astype(np.int64)
        assert store.lookup({key_name: hits}).found.all()
        assert store.stats.counters.get("pruned_keys", 0) == before

        # A hit-heavy batch prunes exactly its misses.
        mixed = np.concatenate([hits, miss[:4]])
        assert store.lookup({key_name: mixed}).found.sum() == hits.size
        assert store.stats.counters.get("pruned_keys", 0) == before + 4
        store.close()
