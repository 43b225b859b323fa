"""Negative-filter properties: the manifest miss-pruning tier.

The load-bearing invariant is **no false negatives, ever**: a filter
probe answering False must be a guaranteed miss, across both filter
structures (blocked Bloom and exact dense bitmap), both router
strategies, and every mutation the store supports (insert — also one
that fails part-way — delete, update, rebuild, split, merge).  A
violated invariant silently drops live rows from lookups, so most tests
here are property-based.

Also covered: structure selection (`build_store_filter`), dense
`try_add` declining out-of-domain inserts without corrupting state,
manifest persistence round-trips (manifests without a store filter, and
parent-shaped ones still carrying per-shard `filter` entries and the
`negative_filter` knob), the `pruned_keys` counter, and bit-identical
lookup parity against the unpruned `barrier_lookup` oracle.
"""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.negative_filter import (
    DENSE_MAX_BITS_PER_KEY,
    DenseNegativeFilter,
    NegativeFilter,
    build_store_filter,
    filter_from_json,
    hash_key_columns,
)
import repro
from repro.data import synthetic
from repro.shard import ShardedDeepMapping, ShardingConfig
from repro.shard.manifest import MANIFEST_NAME, ShardManifest
from repro.storage import LocalDirBackend
from repro.testing import serve_backend
from repro.testing.oracles import barrier_lookup

from ..core.conftest import fast_config


def assert_bit_identical(actual, expected, value_names):
    np.testing.assert_array_equal(actual.found, expected.found)
    for column in value_names:
        np.testing.assert_array_equal(actual.values[column],
                                      expected.values[column])
        assert actual.values[column].dtype == expected.values[column].dtype


int64s = st.integers(min_value=-2**62, max_value=2**62)


# ----------------------------------------------------------------------
# Filter-level properties (pure numpy, fast)
# ----------------------------------------------------------------------
class TestBloomFilter:
    @settings(max_examples=50, deadline=None)
    @given(keys=st.lists(int64s, min_size=0, max_size=300),
           probes=st.lists(int64s, min_size=1, max_size=100))
    def test_never_false_negative(self, keys, probes):
        hashes = np.array(keys, dtype=np.int64).view(np.uint64)
        filt = NegativeFilter.build(hashes)
        assert filt.might_contain(hashes).all()
        # Probes overlapping the inserted set must answer True there.
        probe = np.array(probes, dtype=np.int64).view(np.uint64)
        inserted = np.isin(np.asarray(probes, dtype=np.int64),
                           np.asarray(keys, dtype=np.int64))
        assert filt.might_contain(probe)[inserted].all()

    def test_incremental_add_keeps_invariant(self):
        rng = np.random.default_rng(0)
        filt = NegativeFilter.build(np.zeros(0, dtype=np.uint64))
        seen = []
        for _ in range(5):
            batch = rng.integers(-2**62, 2**62, 64).view(np.uint64)
            assert filt.try_add(batch)      # Bloom accepts any hash
            seen.append(batch)
            assert filt.might_contain(np.concatenate(seen)).all()

    def test_false_positive_rate_is_bounded(self):
        rng = np.random.default_rng(1)
        keys = rng.integers(-2**62, 2**62, 4096).view(np.uint64)
        filt = NegativeFilter.build(keys, bits_per_key=10)
        absent = rng.integers(-2**62, 2**62, 20_000).view(np.uint64)
        fpr = filt.might_contain(absent).mean()
        assert fpr < 0.05, f"blocked-Bloom FPR {fpr:.3f} at 10 bits/key"

    def test_k_bounds_enforced(self):
        with pytest.raises(ValueError):
            NegativeFilter(1, k=0)
        with pytest.raises(ValueError):
            NegativeFilter(1, k=7)
        with pytest.raises(ValueError):
            NegativeFilter(0)


class TestDenseFilter:
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_exact_membership(self, data):
        lo = data.draw(st.integers(-10**6, 10**6))
        span = data.draw(st.integers(1, 2000))
        keys = data.draw(st.lists(
            st.integers(lo, lo + span - 1), min_size=0, max_size=200))
        hashes = np.array(keys, dtype=np.int64).view(np.uint64)
        filt = DenseNegativeFilter.build(hashes, lo, span)
        probes = np.arange(lo - 10, lo + span + 10, dtype=np.int64)
        got = filt.might_contain(probes.view(np.uint64))
        expected = np.isin(probes, np.asarray(keys, dtype=np.int64))
        # Exact: equality in both directions, not just superset.
        np.testing.assert_array_equal(got, expected)

    def test_try_add_declines_out_of_domain_without_inserting(self):
        keys = np.arange(100, dtype=np.int64).view(np.uint64)
        filt = DenseNegativeFilter.build(keys, 0, 100)
        before = filt._words.copy()
        bad = np.array([50, 500], dtype=np.int64).view(np.uint64)
        assert not filt.try_add(bad)
        np.testing.assert_array_equal(filt._words, before)
        with pytest.raises(ValueError):
            filt.add(bad)
        np.testing.assert_array_equal(filt._words, before)
        assert filt.try_add(np.array([7], dtype=np.int64).view(np.uint64))

    def test_negative_domain_keys(self):
        keys = np.array([-5, -3, 0, 2], dtype=np.int64)
        filt = DenseNegativeFilter.build(keys.view(np.uint64), -5, 8)
        probes = np.arange(-8, 5, dtype=np.int64)
        np.testing.assert_array_equal(
            filt.might_contain(probes.view(np.uint64)),
            np.isin(probes, keys))


class TestStoreFilterSelection:
    def test_dense_domain_picks_exact_bitmap(self):
        keys = np.arange(1000, dtype=np.int64).view(np.uint64)
        filt = build_store_filter(keys)
        assert isinstance(filt, DenseNegativeFilter) and filt.exact

    def test_sparse_domain_falls_back_to_bloom(self):
        keys = (np.arange(1000, dtype=np.int64)
                * (20 * DENSE_MAX_BITS_PER_KEY)).view(np.uint64)
        filt = build_store_filter(keys)
        assert isinstance(filt, NegativeFilter) and not filt.exact

    def test_composite_fingerprints_fall_back_to_bloom(self):
        cols = {"a": np.arange(500, dtype=np.int64),
                "b": np.arange(500, dtype=np.int64) % 7}
        hashes = hash_key_columns(cols, ("a", "b"))
        filt = build_store_filter(hashes)
        assert isinstance(filt, NegativeFilter)
        assert filt.might_contain(hashes).all()

    def test_empty_key_set(self):
        filt = build_store_filter(np.zeros(0, dtype=np.uint64))
        probe = np.array([1, 2], dtype=np.int64).view(np.uint64)
        assert not filt.might_contain(probe).any()


class TestPersistenceRoundTrip:
    @pytest.mark.parametrize("make", [
        lambda h: NegativeFilter.build(h),
        lambda h: DenseNegativeFilter.build(
            h, int(h.view(np.int64).min()),
            int(h.view(np.int64).max() - h.view(np.int64).min()) + 1),
    ], ids=["bloom", "dense"])
    def test_json_round_trip(self, make):
        rng = np.random.default_rng(2)
        keys = np.unique(rng.integers(0, 5000, 800)).astype(np.int64)
        filt = make(keys.view(np.uint64))
        clone = filter_from_json(filt.to_json())
        assert type(clone) is type(filt)
        probes = rng.integers(-100, 6000, 3000).view(np.uint64)
        np.testing.assert_array_equal(clone.might_contain(probes),
                                      filt.might_contain(probes))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            filter_from_json({"kind": "martian"})
        with pytest.raises(ValueError, match="kind"):
            filter_from_json(["dense64"])


# ----------------------------------------------------------------------
# Store-level properties: both routers, mutations, lifecycle
# ----------------------------------------------------------------------
def assert_no_false_negative(store):
    """Every live key must survive the store filter."""
    parts = [shard.key_codec.unflatten(shard.exist.existing_keys())
             for shard in store.shards if shard is not None and len(shard)]
    if not parts:
        return
    key_cols = {name: np.concatenate([p[name] for p in parts])
                for name in store.key_names}
    hashes = hash_key_columns(key_cols, store.key_names)
    assert store._store_filter.might_contain(hashes).all()


@pytest.fixture(scope="module", params=["range", "hash"])
def routed_store(request):
    table = synthetic.multi_column(1000, "low", seed=9)
    store = ShardedDeepMapping.fit(
        table, fast_config(epochs=4),
        ShardingConfig(n_shards=4, strategy=request.param))
    return store, table


class TestStoreNoFalseNegative:
    def test_after_fit(self, routed_store):
        store, _ = routed_store
        assert_no_false_negative(store)

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
        assert_bit_identical(store.lookup(query),
                             barrier_lookup(store, query),
                             store.value_names)


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
            assert_no_false_negative(store)
        probe = np.array(sorted(live), dtype=np.int64)
        assert store.lookup({"key": probe}).found.all()
        store.close()

    def test_insert_outside_dense_domain_refreshes_store_filter(self):
        table = synthetic.single_column(600, "high", seed=6)
        store = ShardedDeepMapping.fit(
            table, fast_config(epochs=2),
            ShardingConfig(n_shards=3, strategy="range"))
        assert store._store_filter is not None and store._store_filter.exact
        key_name = table.key[0]
        value = {c: np.array([table.column(c)[0]])
                 for c in store.value_names}
        # Far outside the fitted dense domain: try_add must decline and
        # the store must rebuild its tier-1 filter, not lose the key.
        far = int(table.column(key_name).max()) + 10**9
        store.insert({key_name: np.array([far], dtype=np.int64), **value})
        assert_no_false_negative(store)
        assert store.lookup_one(**{key_name: far}) is not None
        # A fresh all-miss batch is still (correctly) prunable.
        miss = np.array([far + 1, far + 2], dtype=np.int64)
        assert not store.lookup({key_name: miss}).found.any()
        store.close()

    def test_update_and_rebuild_keep_invariant(self, routed_store):
        store, table = routed_store
        key = int(table.column("key")[10])
        row = {c: np.array([table.column(c)[3]]) for c in store.value_names}
        store.update({"key": np.array([key], dtype=np.int64), **row})
        assert_no_false_negative(store)
        store.rebuild(fast_config(epochs=2))
        assert_no_false_negative(store)
        got = store.lookup_one(key=key)
        for column in store.value_names:
            assert got[column] == row[column][0]


class TestLifecycleInvariants:
    def test_split_then_merge(self):
        table = synthetic.single_column(800, "high", seed=8)
        store = ShardedDeepMapping.fit(
            table, fast_config(epochs=2),
            ShardingConfig(n_shards=2, strategy="range"))
        query = {table.key[0]: np.concatenate([
            table.column(table.key[0])[:200],
            np.array([10**8, 10**8 + 1], dtype=np.int64)])}
        reference = barrier_lookup(store, query)
        store.split_shard(0)
        assert_no_false_negative(store)
        assert_bit_identical(store.lookup(query), reference,
                             store.value_names)
        store.merge_shards(0)
        assert_no_false_negative(store)
        assert_bit_identical(store.lookup(query), reference,
                             store.value_names)
        store.close()


class TestPartialInsertFailure:
    """A multi-shard insert that raises part-way must leave the store
    filter agreeing with what the shards hold."""

    @pytest.fixture
    def store_and_rows(self, monkeypatch):
        table = synthetic.single_column(800, "high", seed=3,
                                        domain_factor=2.0)
        store = ShardedDeepMapping.fit(
            table, fast_config(epochs=2),
            ShardingConfig(n_shards=4, strategy="range"))
        assert store._store_filter.exact
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

        monkeypatch.setattr(store.shards[2], "apply_insert", refuse)
        yield store, table, key_name, fresh
        store.close()

    def insert(self, store, table, key_name, keys):
        rows = {c: np.repeat(table.column(c)[:1], keys.size)
                for c in store.value_names}
        with pytest.raises(RuntimeError, match="injected"):
            store.insert({key_name: keys, **rows})

    def test_rows_that_landed_are_found(self, store_and_rows):
        store, table, key_name, fresh = store_and_rows
        before = len(store)
        self.insert(store, table, key_name, fresh)
        landed, lost = fresh[:10], fresh[10:]   # shards 0-1 / shards 2-3
        assert store.contains_batch({key_name: landed}).all()
        assert not store.contains_batch({key_name: lost}).any()
        assert len(store) == before + landed.size
        assert store.lookup({key_name: landed}).found.all()
        assert_no_false_negative(store)
        # ... and through the pruning lane: a miss-heavy batch around them.
        far = np.arange(10**8, 10**8 + 40, dtype=np.int64)
        query = {key_name: np.concatenate([landed, lost, far])}
        result = store.lookup(query)
        np.testing.assert_array_equal(
            result.found, np.arange(query[key_name].size) < landed.size)
        assert_bit_identical(result, barrier_lookup(store, query),
                             store.value_names)

    def test_declined_rows_are_recovered_on_the_error_path(
            self, store_and_rows, monkeypatch):
        store, table, key_name, fresh = store_and_rows
        # The dense filter declines the rows shards 0-1 take (as it does
        # keys past its domain), and shard 2 still raises afterwards.
        monkeypatch.setattr(type(store._store_filter), "try_add",
                            lambda self, hashes: False)
        self.insert(store, table, key_name, fresh)
        assert store.lookup({key_name: fresh[:10]}).found.all()
        assert not store.lookup({key_name: fresh[10:]}).found.any()
        assert_no_false_negative(store)


# ----------------------------------------------------------------------
# Persistence + parity vs the unpruned oracle, pruned_keys counter
# ----------------------------------------------------------------------
def read_manifest(path):
    with open(os.path.join(path, MANIFEST_NAME)) as handle:
        return json.load(handle)


class TestManifestPersistence:
    def test_round_trip_and_filter_disabled_parity(self, routed_store,
                                                   tmp_path):
        """"Filter disabled" is the unpruned oracle: ``barrier_lookup``
        never consults the store filter."""
        store, table = routed_store
        path = str(tmp_path / "store")
        store.save(path)

        manifest = ShardManifest.load(path)
        assert manifest.store_filter is not None
        live_cols = {"key": table.column("key").astype(np.int64)}
        assert manifest.store_filter.might_contain(
            hash_key_columns(live_cols, store.key_names)).all()
        # One existence summary above the shards: nothing per shard.
        raw = read_manifest(path)
        assert all("filter" not in entry for entry in raw["shards"])
        assert "negative_filter" not in raw["sharding"]

        rng = np.random.default_rng(5)
        live = table.column("key")
        query = {"key": np.concatenate([
            rng.choice(live, 300),
            rng.integers(live.min() - 50, live.max() + 10**6, 300)])}
        reopened = ShardedDeepMapping.load(path)
        assert reopened._store_filter is not None
        assert len(reopened._topology) == 3
        assert_bit_identical(reopened.lookup(query),
                             barrier_lookup(store, query), store.value_names)
        reopened.close()

    def test_parent_shaped_manifest_opens_everywhere(self, routed_store,
                                                     tmp_path):
        """Manifests saved before the per-shard tier was deleted carry a
        ``filter`` per shard entry and ``sharding.negative_filter``:
        both are ignored by every open and dropped by the next save."""
        store, table = routed_store
        path = str(tmp_path / "store")
        store.save(path)
        raw = read_manifest(path)
        some = np.arange(50, dtype=np.int64).view(np.uint64)
        for entry in raw["shards"]:
            if entry["file"] is not None:
                entry["filter"] = NegativeFilter.build(
                    some, bits_per_key=3).to_json()
        raw["sharding"]["negative_filter"] = True
        with open(os.path.join(path, MANIFEST_NAME), "w") as handle:
            json.dump(raw, handle)

        rng = np.random.default_rng(6)
        live = table.column("key")
        queries = [
            {"key": rng.choice(live, 300)},
            {"key": np.concatenate([
                rng.choice(live, 60),
                rng.integers(live.max() + 1, live.max() + 10**6, 240)])},
        ]
        expected = [barrier_lookup(store, query) for query in queries]

        def check(opened):
            for query, reference in zip(queries, expected):
                assert_bit_identical(opened.lookup(query), reference,
                                     store.value_names)

        writable = repro.open(path)
        check(writable)
        shared = repro.open(path, writable=False)
        check(shared)
        shared.close()
        with serve_backend(LocalDirBackend(path, create=False)) as server:
            remote = repro.open(server.url)
            check(remote)
            remote.close()

        resaved = str(tmp_path / "resaved")
        writable.save(resaved)
        writable.close()
        raw = read_manifest(resaved)
        assert all("filter" not in entry for entry in raw["shards"])
        assert "negative_filter" not in raw["sharding"]
        assert raw["store_filter"] is not None

    def test_legacy_manifest_without_store_filter_loads(self, routed_store,
                                                        tmp_path):
        store, table = routed_store
        path = str(tmp_path / "store")
        store.save(path)
        manifest = ShardManifest.load(path)
        obj = manifest.to_json()
        obj.pop("store_filter")
        legacy = ShardManifest.from_json(obj)
        assert legacy.store_filter is None
        legacy.save(path)
        reopened = ShardedDeepMapping.load(path)
        assert reopened._store_filter is None   # no filter...
        rng = np.random.default_rng(12)
        query = {"key": np.concatenate([
            rng.choice(table.column("key"), 100),
            rng.integers(0, 10**7, 100)])}
        before = reopened.stats.counters.get("pruned_keys", 0)
        assert_bit_identical(reopened.lookup(query),        # ...still exact
                             barrier_lookup(store, query), store.value_names)
        assert reopened.stats.counters.get("pruned_keys", 0) == before
        reopened.close()


class TestPrunedKeysCounter:
    def test_all_miss_batch_counts_every_key(self):
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

        # A pure-hit batch bails out of pruning and counts nothing.
        before = store.stats.counters.get("pruned_keys", 0)
        hits = table.column(key_name)[:400].astype(np.int64)
        assert store.lookup({key_name: hits}).found.all()
        assert store.stats.counters.get("pruned_keys", 0) == before
        store.close()
