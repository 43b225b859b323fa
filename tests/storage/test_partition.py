"""Tests for SortedPartitionStore (shared by T_aux and array baselines)."""

import dataclasses
import gc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.resilience.errors import StoreCorruptedError
from repro.storage import BufferPool, SortedPartitionStore, StoreStats
from repro.storage import partition as partition_module
from repro.storage.partition import (PartitionMeta, decode_partition,
                                     encode_partition)


def build_store(n=1000, codec="zstd", target=4096, dict_encode=False, pool=None):
    rng = np.random.default_rng(7)
    keys = rng.permutation(np.arange(0, n * 3, 3, dtype=np.int64))  # gaps of 3
    status = rng.choice(np.array(["P", "O", "F"], dtype=object), size=n)
    qty = rng.integers(0, 50, size=n).astype(np.int64)
    store = SortedPartitionStore(
        codec=codec, target_partition_bytes=target, dict_encode=dict_encode, pool=pool
    )
    store.build(keys, {"status": status, "qty": qty})
    return store, keys, status, qty


class TestBuild:
    def test_row_count_and_columns(self):
        store, keys, _, _ = build_store()
        assert len(store) == keys.size
        assert store.column_names == ("status", "qty")

    def test_multiple_partitions_created(self):
        store, _, _, _ = build_store(n=2000, target=2048)
        assert len(store.partitions) > 1

    def test_partitions_ordered_and_disjoint(self):
        store, _, _, _ = build_store(n=2000, target=2048)
        metas = store.partitions
        for left, right in zip(metas, metas[1:]):
            assert left.last_key < right.first_key

    def test_mismatched_column_length_rejected(self):
        store = SortedPartitionStore()
        with pytest.raises(ValueError, match="rows"):
            store.build(np.arange(5), {"x": np.arange(4)})

    def test_duplicate_keys_rejected(self):
        store = SortedPartitionStore()
        with pytest.raises(ValueError, match="unique"):
            store.build(np.array([1, 1, 2]), {"x": np.arange(3)})

    def test_empty_build(self):
        store = SortedPartitionStore()
        store.build(np.empty(0, dtype=np.int64), {"x": np.empty(0, dtype=np.int64)})
        found, values = store.lookup_batch([1, 2])
        assert not found.any()

    def test_rebuild_replaces_partitions(self):
        store, _, _, _ = build_store(n=500)
        old_bytes = store.stored_bytes()
        store.build(np.arange(10, dtype=np.int64), {
            "status": np.array(["A"] * 10, dtype=object),
            "qty": np.arange(10, dtype=np.int64),
        })
        assert len(store) == 10
        assert store.stored_bytes() < old_bytes


class TestLookup:
    def test_every_stored_key_found_exactly(self):
        store, keys, status, qty = build_store()
        found, values = store.lookup_batch(keys)
        assert found.all()
        assert np.array_equal(values["status"], status)
        assert np.array_equal(values["qty"], qty)

    def test_missing_keys_not_found(self):
        store, keys, _, _ = build_store()
        missing = keys + 1  # gaps of 3 guarantee these are absent
        found, _ = store.lookup_batch(missing)
        assert not found.any()

    def test_mixed_hit_miss_batch(self):
        store, keys, status, _ = build_store()
        batch = np.array([keys[0], keys[0] + 1, keys[-1]])
        found, values = store.lookup_batch(batch)
        assert found.tolist() == [True, False, True]
        assert values["status"][0] == status[0]

    def test_duplicate_query_keys(self):
        store, keys, status, _ = build_store()
        batch = np.array([keys[5], keys[5], keys[5]])
        found, values = store.lookup_batch(batch)
        assert found.all()
        assert (values["status"] == status[5]).all()

    def test_keys_below_and_above_range(self):
        store, keys, _, _ = build_store()
        found, _ = store.lookup_batch([-100, int(keys.max()) + 100])
        assert not found.any()

    def test_empty_batch(self):
        store, _, _, _ = build_store()
        found, values = store.lookup_batch(np.empty(0, dtype=np.int64))
        assert found.size == 0
        assert values["qty"].size == 0

    def test_fence_boundaries(self, monkeypatch):
        store, _, _, _ = build_store(n=2000, target=2048)
        metas = store.partitions
        loaded = []
        real = SortedPartitionStore.load_partition
        monkeypatch.setattr(SortedPartitionStore, "load_partition",
                            lambda self, pid: loaded.append(pid)
                            or real(self, pid))
        found, _ = store.lookup_batch([metas[0].first_key, metas[0].last_key,
                                       metas[1].first_key])
        assert found.all() and loaded == [0, 1]
        # Below the first fence, between two partitions, past the last:
        # no partition owns these keys, so none is faulted in.
        loaded.clear()
        found, _ = store.lookup_batch([metas[0].first_key - 1,
                                       metas[0].last_key + 1,
                                       metas[-1].last_key + 1])
        assert not found.any() and loaded == []


class TestCodecs:
    @pytest.mark.parametrize("codec", ["none", "gzip", "zstd", "lzma"])
    def test_lookup_correct_under_every_codec(self, codec):
        store, keys, status, qty = build_store(n=300, codec=codec)
        found, values = store.lookup_batch(keys[:50])
        assert found.all()
        assert np.array_equal(values["qty"], qty[:50])

    def test_compressed_store_smaller_than_uncompressed(self):
        plain, _, _, _ = build_store(n=3000, codec="none")
        packed, _, _, _ = build_store(n=3000, codec="lzma")
        assert packed.stored_bytes() < plain.stored_bytes()

    def test_dictionary_encoding_roundtrip(self):
        store, keys, status, qty = build_store(n=500, dict_encode=True)
        found, values = store.lookup_batch(keys)
        assert found.all()
        assert np.array_equal(values["status"], status)


class TestBufferPoolIntegration:
    def test_partition_decompressed_once_per_batch(self):
        pool = BufferPool(budget_bytes=None)
        store, keys, _, _ = build_store(n=2000, target=2048, pool=pool)
        store.lookup_batch(keys)  # touches every partition once
        assert pool.stats.counters["pool_misses"] == len(store.partitions)
        store.lookup_batch(keys)
        assert pool.stats.counters["pool_misses"] == len(store.partitions)

    def test_tiny_pool_forces_reloads(self):
        pool = BufferPool(budget_bytes=1)  # nothing fits
        store, keys, _, _ = build_store(n=2000, target=2048, pool=pool)
        store.lookup_batch(keys)
        store.lookup_batch(keys)
        assert pool.stats.counters.get("pool_hits", 0) == 0

    def test_stats_cover_io_and_decompress(self):
        stats = StoreStats()
        store = SortedPartitionStore(codec="zstd", stats=stats,
                                     target_partition_bytes=1024)
        keys = np.arange(500, dtype=np.int64)
        store.build(keys, {"v": keys * 2})
        store.lookup_batch(keys)
        assert stats.seconds("decompress") > 0.0
        assert stats.seconds("io") > 0.0
        assert stats.seconds("locate") > 0.0
        # Every fault reads one held blob, timed and counted.
        n_parts = len(store.partitions)
        assert n_parts > 1
        assert stats.timers["io"].calls == n_parts
        assert stats.counters["blobs_read"] == n_parts
        assert stats.counters["bytes_read"] == store.stored_bytes()
        store.lookup_batch(keys)                # pool hits read nothing
        assert stats.counters["blobs_read"] == n_parts


class TestScan:
    def test_scan_returns_all_rows_sorted(self):
        store, keys, status, qty = build_store(n=800, target=2048)
        got_keys, cols = store.scan()
        order = np.argsort(keys)
        assert np.array_equal(got_keys, keys[order])
        assert np.array_equal(cols["qty"], qty[order])

    def test_scan_empty_store(self):
        store = SortedPartitionStore()
        store.build(np.empty(0, dtype=np.int64), {"x": np.empty(0, dtype=np.int64)})
        got_keys, cols = store.scan()
        assert got_keys.size == 0


@settings(max_examples=60, deadline=None)
@given(
    keys=st.lists(st.integers(min_value=0, max_value=10_000), min_size=1,
                  max_size=150, unique=True),
    # Probes reach below the first fence and past the last one.
    probe=st.lists(st.integers(min_value=-50, max_value=10_050),
                   max_size=50),
    # 16 B is one row (an int64 key and an int64 value) per partition.
    target=st.sampled_from([16, 48, 512]),
)
@example(keys=[5], probe=[], target=16)
@example(keys=[0, 10, 20], probe=[-1, 5, 15, 25], target=16)
def test_partition_store_matches_dict_model(keys, probe, target):
    """Property: lookups agree with a plain dict over the same pairs;
    the sorted core writes only the rows of the keys it holds and
    faults in exactly the partitions whose fences hold a probed key."""
    keys_arr = np.array(keys, dtype=np.int64)
    vals = keys_arr * 7 + 1
    store = SortedPartitionStore(codec="zstd", target_partition_bytes=target)
    store.build(keys_arr, {"v": vals})
    model = dict(zip(keys, (vals).tolist()))

    found, values = store.lookup_batch(np.array(probe, dtype=np.int64))
    for i, key in enumerate(probe):
        if key in model:
            assert found[i]
            assert values["v"][i] == model[key]
        else:
            assert not found[i]

    window = np.unique(np.array(probe, dtype=np.int64))
    hit = np.zeros(window.size, dtype=bool)
    out = np.full(window.size, -1, dtype=np.int64)
    loaded = []
    real = store.load_partition
    store.load_partition = lambda pid: loaded.append(pid) or real(pid)
    store.probe(window, hit, {"v": out})
    assert hit.tolist() == [key in model for key in window.tolist()]
    assert out.tolist() == [model.get(key, -1) for key in window.tolist()]
    assert loaded == [pid for pid, meta in enumerate(store.partitions)
                      if ((window >= meta.first_key)
                          & (window <= meta.last_key)).any()]


# ---------------------------------------------------------------------------
# The partition codec: encode_partition / decode_partition
# ---------------------------------------------------------------------------
INT64_MIN, INT64_MAX = -2 ** 63, 2 ** 63 - 1

#: Every column kind a partition store accepts, built for ``n`` rows.
COLUMN_KINDS = {
    "codes_u8": lambda rng, n: rng.integers(0, 256, n).astype(np.uint8),
    "codes_u16": lambda rng, n: rng.integers(0, 2 ** 16, n).astype(np.uint16),
    "int64": lambda rng, n: rng.integers(INT64_MIN, INT64_MAX, n,
                                         dtype=np.int64, endpoint=True),
    "unicode": lambda rng, n: np.array(
        [f"v{x}" * int(x % 3) for x in rng.integers(0, 500, n)]),
    "object": lambda rng, n: np.array(
        [f"s{x}" for x in rng.integers(0, 40, n)], dtype=object),
}


def gap_width_of(keys) -> int:
    """Bytes the widest gap ``k[i+1] - k[i] - 1`` needs, by Python ints."""
    widest = max((b - a - 1 for a, b in zip(keys, keys[1:])), default=0)
    return next(w for w in (1, 2, 4, 8) if widest < 2 ** (8 * w))


def fence(keys: np.ndarray, gap_width: int) -> PartitionMeta:
    return PartitionMeta(first_key=int(keys[0]), last_key=int(keys[-1]),
                         n_rows=int(keys.size), gap_width=gap_width,
                         blob=memoryview(b""))


# Key sets whose widest gap sits just below or just above each width.
key_sets = st.one_of(
    st.lists(st.integers(0, 300), min_size=1, max_size=60, unique=True),
    st.lists(st.integers(0, 70_000), min_size=1, max_size=60, unique=True),
    st.lists(st.integers(-2 ** 33, 2 ** 33), min_size=1, max_size=60,
             unique=True),
    st.lists(st.integers(INT64_MIN, INT64_MAX), min_size=1, max_size=60,
             unique=True),
).map(sorted)


@settings(max_examples=200, deadline=None)
@given(keys=key_sets,
       kinds=st.lists(st.sampled_from(sorted(COLUMN_KINDS)), min_size=1,
                      max_size=3, unique=True),
       dict_encode=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
@example(keys=[7], kinds=["codes_u8"], dict_encode=False, seed=0)
@example(keys=[0, 256], kinds=["codes_u8"], dict_encode=False, seed=0)
@example(keys=[0, 257], kinds=["codes_u8"], dict_encode=False, seed=0)
@example(keys=[0, 2 ** 16], kinds=["int64"], dict_encode=False, seed=0)
@example(keys=[0, 2 ** 16 + 1], kinds=["int64"], dict_encode=False, seed=0)
@example(keys=[0, 2 ** 32], kinds=["unicode"], dict_encode=False, seed=0)
@example(keys=[0, 2 ** 32 + 1], kinds=["unicode"], dict_encode=False, seed=0)
@example(keys=[INT64_MIN, 0, INT64_MAX], kinds=["codes_u8"],
         dict_encode=False, seed=0)
@example(keys=[INT64_MIN, INT64_MAX], kinds=["object"], dict_encode=True,
         seed=0)
def test_codec_round_trips_bit_identically(keys, kinds, dict_encode, seed):
    rng = np.random.default_rng(seed)
    columns = {kind: COLUMN_KINDS[kind](rng, len(keys)) for kind in kinds}
    key_array = np.array(keys, dtype=np.int64)
    raw, gap_width = encode_partition(key_array, columns, dict_encode)
    assert gap_width == gap_width_of(keys)
    # What a reader holds: the dtypes as export() records them.
    dtypes = {name: np.dtype(col.dtype.str) for name, col in columns.items()}
    block = decode_partition(raw, fence(key_array, gap_width), dtypes,
                             dict_encode)
    assert list(block) == ["keys", *columns]
    assert block["keys"].dtype == np.int64
    assert block["keys"].tolist() == keys
    for name, col in columns.items():
        assert block[name].dtype == dtypes[name]
        if col.dtype.hasobject:
            assert block[name].tolist() == col.tolist()
        else:
            assert block[name].tobytes() == col.tobytes()


def test_fixed_width_partitions_are_gaps_then_raw_columns():
    """No pickle framing: the bytes are exactly the gaps and the columns."""
    keys = np.array([10, 11, 15, 265], dtype=np.int64)
    codes = np.array([1, 2, 3, 4], dtype=np.uint8)
    raw, gap_width = encode_partition(keys, {"c": codes})
    assert gap_width == 1
    assert raw == bytes([0, 3, 249, 1, 2, 3, 4])
    raw, gap_width = encode_partition(keys + [0, 0, 0, 7], {"c": codes})
    assert gap_width == 2   # the last gap is 256
    assert raw == bytes([0, 0, 3, 0, 0, 1, 1, 2, 3, 4])


def test_fixed_width_store_never_pickles(monkeypatch):
    def refuse(*_):
        raise AssertionError("a fixed-width partition went through pickle")

    monkeypatch.setattr(partition_module, "serialize_block", refuse)
    monkeypatch.setattr(partition_module, "deserialize_block", refuse)
    keys = np.arange(0, 3000, 3, dtype=np.int64)
    store = SortedPartitionStore(codec="zstd", target_partition_bytes=512)
    store.build(keys, {"a": (keys % 7).astype(np.uint8),
                       "b": np.array([f"x{k % 5}" for k in keys])})
    found, values = store.lookup_batch(keys)
    assert found.all()
    np.testing.assert_array_equal(values["a"], keys % 7)


class TestDecodeRefusesBytesThatDisagreeWithTheFence:
    @pytest.fixture
    def encoded(self):
        keys = np.arange(0, 200, 2, dtype=np.int64)
        columns = {"c": (keys % 11).astype(np.uint8)}
        raw, gap_width = encode_partition(keys, columns)
        return raw, fence(keys, gap_width), {"c": np.dtype(np.uint8)}

    @pytest.mark.parametrize("raw_edit, fence_edit", [
        (lambda raw: raw[:-1], {}),
        (lambda raw: raw + b"\0", {}),
        (None, {"gap_width": 2}),
        (None, {"gap_width": 3}),
        (None, {"n_rows": 101}),
        (None, {"n_rows": 0}),
        (None, {"first_key": -1}),
    ], ids=["truncated", "trailing byte", "wider gaps", "gap width 3",
            "row count", "no rows", "first key"])
    def test_value_error(self, encoded, raw_edit, fence_edit):
        raw, meta, dtypes = encoded
        with pytest.raises(ValueError):
            decode_partition(raw_edit(raw) if raw_edit else raw,
                             dataclasses.replace(meta, **fence_edit), dtypes)


class TestAppend:
    def test_append_adds_one_partition_past_the_range(self):
        store, keys, status, qty = build_store(n=300)
        before = len(store.partitions)
        new = np.array([10_000, 9_000, 9_500], dtype=np.int64)
        store.append(new, {"status": np.array(["A", "B", "C"], dtype=object),
                           "qty": np.array([1, 2, 3])})
        assert len(store.partitions) == before + 1
        assert len(store) == keys.size + 3
        found, values = store.lookup_batch(np.concatenate([keys, new]))
        assert found.all()
        assert values["qty"][-3:].tolist() == [1, 2, 3]
        assert values["status"][-3:].tolist() == ["A", "B", "C"]

    def test_append_inside_the_range_is_refused(self):
        store, keys, _, _ = build_store(n=300)
        with pytest.raises(ValueError, match="beyond the range"):
            store.append(np.array([int(keys.max())]),
                         {"status": np.array(["A"], dtype=object),
                          "qty": np.array([1])})

    def test_append_that_widens_a_column_is_refused(self):
        store = SortedPartitionStore()
        store.build(np.arange(5, dtype=np.int64),
                    {"c": np.arange(5, dtype=np.uint8)})
        with pytest.raises(ValueError, match="does not fit"):
            store.append(np.array([9]), {"c": np.array([300])})

    def test_append_to_an_empty_store_builds_it(self):
        store = SortedPartitionStore()
        store.append(np.array([3, 1], dtype=np.int64),
                     {"c": np.array([30, 10])})
        found, values = store.lookup_batch([1, 3])
        assert found.all() and values["c"].tolist() == [10, 30]


def test_keys_spanning_the_int64_range_round_trip_through_a_store():
    keys = np.array([INT64_MIN, -1, 0, INT64_MAX], dtype=np.int64)
    store = SortedPartitionStore(codec="zstd")
    store.build(keys, {"v": np.arange(4, dtype=np.uint8)})
    assert store.partitions[0].gap_width == 8
    found, values = store.lookup_batch(keys)
    assert found.all() and values["v"].tolist() == [0, 1, 2, 3]
    assert not store.lookup_batch([INT64_MIN + 1, 1])[0].any()


class TestHeldBlobs:
    """A partition's compressed bytes live in one read-only buffer the
    store holds: the codec's output, or the buffer it was attached from."""

    def test_built_blobs_are_read_only_and_exported_as_held(self):
        store, _, _, _ = build_store(n=600, target=1024)
        state = store.export()
        for meta, exported in zip(store.partitions, state["partitions"]):
            assert meta.blob.readonly
            assert meta.stored_bytes == meta.blob.nbytes
            view = exported.raw()
            assert np.shares_memory(np.frombuffer(view, np.uint8),
                                    np.frombuffer(meta.blob, np.uint8))

    def test_exported_state_in_cyclic_garbage_with_its_store(self):
        # The collector may clear the store's held blobs before the
        # exported buffers that reference them: that must neither raise
        # nor crash.
        for _ in range(5):
            store, _, _, _ = build_store(n=300, target=512)
            cycle = [store, store.export()]
            cycle.append(cycle)
            del store, cycle
            gc.collect()

    def test_attached_blob_is_served_from_the_callers_buffer(self):
        source, keys, _, qty = build_store(n=600, target=1024)
        state = source.export()
        buffers = [bytearray(blob.raw()) for blob in state["partitions"]]
        state["partitions"] = [memoryview(buf) for buf in buffers]
        stats = StoreStats()
        clone = SortedPartitionStore(codec="zstd", stats=stats)
        clone.attach(state)
        for meta, buf in zip(clone.partitions, buffers):
            assert meta.blob.readonly
            assert np.shares_memory(np.frombuffer(meta.blob, np.uint8),
                                    np.frombuffer(buf, np.uint8))
        found, values = clone.lookup_batch(keys)
        assert found.all()
        np.testing.assert_array_equal(values["qty"], qty)
        assert stats.counters["blobs_read"] == len(buffers)
        assert stats.counters["bytes_read"] == sum(map(len, buffers))
        assert stats.timers["io"].calls == len(buffers)
        buffers[0][:] = b"\0" * len(buffers[0])   # a view, not a copy
        clone.pool.clear()
        with pytest.raises(StoreCorruptedError, match="partition 0 "):
            clone.lookup_batch([clone.partitions[0].first_key])


def test_stores_sharing_one_small_pool_never_serve_each_others_blocks():
    """Two partition stores and a hash store over the same keys share a
    pool that holds only a few blocks; each store's pool keys are its
    own, so every answer is its own — also after a compaction rebuilds
    one store in place."""
    from repro.baselines import HashStore
    from repro.data import ColumnTable

    pool = BufferPool(budget_bytes=4096)
    keys = np.arange(600, dtype=np.int64)
    first = SortedPartitionStore(pool=pool, target_partition_bytes=512)
    second = SortedPartitionStore(pool=pool, target_partition_bytes=512)
    first.build(keys, {"v": keys % 7})
    second.build(keys, {"v": keys % 5 + 100})
    hashed = HashStore(target_partition_bytes=512, pool=pool).build(
        ColumnTable({"k": keys, "v": keys % 3 + 200}, key=("k",)))
    expected = {"first": keys % 7, "second": keys % 5 + 100,
                "hashed": keys % 3 + 200}

    def assert_own_answers():
        for probe in (keys[::3], keys[1::3], keys[::-7]):
            for name, store in (("first", first), ("second", second)):
                found, values = store.lookup_batch(probe)
                assert found.all()
                np.testing.assert_array_equal(values["v"],
                                              expected[name][probe])
            result = hashed.lookup({"k": probe})
            assert result.found.all()
            assert result.values["v"].tolist() == \
                expected["hashed"][probe].tolist()

    assert_own_answers()
    assert pool.stats.counters["pool_evictions"] > 0
    own = [{meta.pool_key for meta in store.partitions}
           for store in (first, second)]
    assert not own[0] & own[1]

    retired = own[1]
    second.build(keys, {"v": keys % 11 + 300})     # a compaction
    expected["second"] = keys % 11 + 300
    assert not retired & {meta.pool_key for meta in second.partitions}
    assert not retired & set(pool.cached_keys())
    assert_own_answers()


def test_rebuild_preserves_cohosted_pool_entries():
    """build() must only invalidate its own partitions: the sharded store
    co-hosts many stores' partitions in one shared pool."""
    pool = BufferPool()
    pool.put("foreign-partition", {"keys": np.arange(3)}, 24)

    store = SortedPartitionStore(pool=pool)
    keys = np.arange(50, dtype=np.int64)
    store.build(keys, {"v": keys % 7})
    store.lookup_batch(keys[:5])  # fault own partitions into the pool
    assert "foreign-partition" in pool

    store.build(keys, {"v": keys % 3})  # rebuild (e.g. a compaction)
    assert "foreign-partition" in pool
    found, values = store.lookup_batch(np.array([9]))
    assert found[0] and values["v"][0] == 0


class TestAccounting:
    def test_stored_bytes_is_the_sum_of_the_held_blobs(self):
        store, _, _, _ = build_store(n=600, target=1024)
        assert len(store.partitions) > 1
        assert store.stored_bytes() == sum(
            meta.blob.nbytes for meta in store.partitions)

    def test_read_blob_hands_out_the_held_view_as_one_read(self):
        stats = StoreStats()
        source = bytearray(b"0123456789")
        blob = memoryview(source)[2:6].toreadonly()
        payload = partition_module.read_blob(blob, stats)
        assert bytes(payload) == b"2345"
        source[2] = ord("x")               # a view, not a copy
        assert bytes(payload) == b"x345"
        assert stats.counters["blobs_read"] == 1
        assert stats.counters["bytes_read"] == 4
        assert stats.seconds("io") >= 0.0
        assert stats.timers["io"].calls == 1


class TestLifecycle:
    def test_nothing_enters_the_pool_until_the_first_lookup(self):
        pool = BufferPool()
        source, _, _, _ = build_store(n=600, target=1024, pool=pool)
        clone = SortedPartitionStore(codec="zstd", pool=pool)
        clone.attach(source.export())
        assert len(pool) == 0
        clone.lookup_batch([clone.partitions[0].first_key])
        assert set(pool.cached_keys()) == {clone.partitions[0].pool_key}

    def test_drop_storage_purges_only_its_own_pool_entries(self):
        pool = BufferPool()
        kept, keys, _, _ = build_store(n=600, target=1024, pool=pool)
        dropped, _, _, _ = build_store(n=600, target=1024, pool=pool)
        kept.lookup_batch(keys)
        dropped.lookup_batch(keys)
        kept_keys = {meta.pool_key for meta in kept.partitions}
        dropped.drop_storage()
        assert set(pool.cached_keys()) == kept_keys

    def test_a_dropped_store_answers_as_before_and_caches_nothing(self):
        pool = BufferPool()
        store, keys, status, qty = build_store(n=600, target=1024, pool=pool)
        probe = np.concatenate([keys, [-1, 1, int(keys.max()) + 3]])
        found, values = store.lookup_batch(probe)
        store.drop_storage()
        for _ in range(2):
            again, again_values = store.lookup_batch(probe)
            np.testing.assert_array_equal(again, found)
            for name in ("status", "qty"):
                np.testing.assert_array_equal(again_values[name][again],
                                              values[name][found])
            assert len(pool) == 0
        assert found[:keys.size].all() and not found[keys.size:].any()
        np.testing.assert_array_equal(values["qty"][:keys.size], qty)
        np.testing.assert_array_equal(values["status"][:keys.size], status)
