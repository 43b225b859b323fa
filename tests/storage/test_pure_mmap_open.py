"""Read and write accounting for opens of a saved store.

The pure-mmap claim (``docs/performance.md``): a cold read-only open of
an array-first (v2) payload issues exactly one ``read_view`` per shard
blob — never a materializing ``read_bytes`` — and its weights, existence
bits *and compressed auxiliary partitions* come up as read-only views
into that mapping.  ``T_aux`` is attached, not built: no open and no
lookup, read-only or writable, compresses or writes a partition or
creates a file, what is saved is byte for byte what
``AuxiliaryTable.stored_bytes()`` counts, and a store reopened writable
saves back the identical files.
"""

import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core import AuxiliaryTable, Shard
from repro.core.model import Model
from repro.data import synthetic
from repro.shard import DeepMapping, ShardingConfig
from repro.shard.manifest import EXIST_NAME, MODEL_NAME
from repro.storage import (InMemoryBackend, LocalDirBackend, StoreStats,
                           zerocopy)
from repro.storage.blob_cache import payload_cache
from repro.storage.partition import SortedPartitionStore
from repro.testing import serve_backend
from repro.testing.oracles import barrier_lookup

from ..core.conftest import fast_config


@pytest.fixture
def saved_store(tmp_path):
    table = synthetic.single_column(400, "high", seed=2)
    store = DeepMapping.fit(
        table, fast_config(epochs=2),
        ShardingConfig(n_shards=2))
    url = str(tmp_path / "store")
    store.save(url)
    yield store, table, url
    store.close()


@pytest.fixture
def read_calls(monkeypatch):
    """Record every blob name LocalDirBackend reads, by access kind."""
    calls = {"read_bytes": [], "read_view": []}
    orig_bytes = LocalDirBackend.read_bytes
    orig_view = LocalDirBackend.read_view

    def counting_bytes(self, name):
        calls["read_bytes"].append(name)
        return orig_bytes(self, name)

    def counting_view(self, name):
        calls["read_view"].append(name)
        return orig_view(self, name)

    monkeypatch.setattr(LocalDirBackend, "read_bytes", counting_bytes)
    monkeypatch.setattr(LocalDirBackend, "read_view", counting_view)
    return calls


@pytest.fixture
def partition_writes(monkeypatch):
    """Count partition compressions (aux-partition materialization)."""
    count = [0]
    orig = SortedPartitionStore._write_partition

    def counting(self, *args, **kwargs):
        count[0] += 1
        return orig(self, *args, **kwargs)

    monkeypatch.setattr(SortedPartitionStore, "_write_partition", counting)
    return count


def payload_blobs(names):
    return [n for n in names
            if n.endswith(".dm") or n in (MODEL_NAME, EXIST_NAME)]


def full_query(table):
    """Keys spanning both shards plus a guaranteed miss."""
    return {table.key[0]: np.concatenate([
        table.column(table.key[0])[:100],
        np.array([10**8], dtype=np.int64)])}


def assert_identical(result, reference, store):
    np.testing.assert_array_equal(result.found, reference.found)
    for column in store.value_names:
        np.testing.assert_array_equal(result.values[column],
                                      reference.values[column])


def partition_blobs(aux):
    """The compressed partitions of ``aux``, as its store holds them."""
    return [meta.blob for meta in aux._store.partitions]


class TestPureMmapColdOpen:
    def test_no_materializing_payload_reads(self, saved_store, read_calls):
        _, _, url = saved_store
        payload_cache().clear()
        read_calls["read_bytes"].clear()
        read_calls["read_view"].clear()
        opened = repro.open(url, writable=False)
        # The model, existence and shard payloads are mapped, never
        # copied out as bytes; the (small, JSON) manifest may use
        # whichever access it likes.
        assert payload_blobs(read_calls["read_bytes"]) == []
        assert len(payload_blobs(read_calls["read_view"])) == 4
        opened.close()

    def test_exist_and_weights_are_views_into_the_payload(self, saved_store):
        _, _, url = saved_store
        payload_cache().clear()
        opened = repro.open(url, writable=False)
        session = opened.model.session
        exist = opened.exist
        pinned = [(opened.model._shared_bundle["payload_view"],
                   [w for layer in session._shared for w in layer]
                   + [w for chain in session._heads.values()
                      for layer in chain for w in layer]),
                  (exist._shared_bundle["payload_view"],
                   [exist._bits.packed if hasattr(exist, "_bits")
                    else exist._keys])]
        assert all(shard.exist is exist
                   for shard in opened.shards if shard is not None)
        for view, arrays in pinned:
            base = np.frombuffer(view, dtype=np.uint8)
            for arr in arrays:
                arr = np.asarray(arr)
                assert not arr.flags.writeable
                assert np.shares_memory(base, arr)
        opened.close()

    def check_open_writes_nothing(self, saved_store, partition_writes,
                                  temp_root, writable):
        store, table, url = saved_store
        query = full_query(table)
        reference = barrier_lookup(store, query)
        payload_cache().clear()
        partition_writes[0] = 0
        opened = repro.open(url, writable=writable)
        assert_identical(opened.lookup(query), reference, store)
        assert partition_writes[0] == 0, (
            "an open / first lookup compressed aux partitions")
        assert os.listdir(temp_root) == [], "an open created temporary files"
        for shard, source in zip(opened.shards, store.shards):
            assert shard.aux.partition_count == source.aux.partition_count
            assert shard.aux.stored_bytes() == source.aux.stored_bytes()
        opened.close()

    def test_read_only_open_writes_no_partition(self, saved_store,
                                                partition_writes, temp_root):
        self.check_open_writes_nothing(saved_store, partition_writes,
                                       temp_root, writable=False)

    def test_writable_open_writes_no_partition(self, saved_store,
                                               partition_writes, temp_root):
        self.check_open_writes_nothing(saved_store, partition_writes,
                                       temp_root, writable=True)

    def test_partition_blobs_are_views_into_the_payload(self, saved_store):
        _, _, url = saved_store
        payload_cache().clear()
        opened = repro.open(url, writable=False)
        for shard in opened.shards:
            base = np.frombuffer(shard._shared_bundle["payload_view"],
                                 dtype=np.uint8)
            blobs = partition_blobs(shard.aux)
            assert blobs, "fixture should leave rows in T_aux"
            for blob in blobs:
                assert blob.readonly
                assert np.shares_memory(base, np.frombuffer(blob, np.uint8))
        opened.close()

    def test_saved_partition_segments_are_what_the_paper_counts(
            self, saved_store):
        store, _, url = saved_store
        backend = LocalDirBackend(url, create=False)
        for ordinal, shard in enumerate(store.shards):
            state = zerocopy.unpack(
                backend.read_bytes(f"shard-{ordinal:04d}.dm"))
            segments = state["aux_v2"]["store"]["partitions"]
            assert "aux_keys" not in state
            assert sum(len(seg) for seg in segments) \
                == shard.aux.stored_bytes()

    def test_writable_reopen_saves_identical_files(self, saved_store,
                                                   tmp_path):
        _, _, url = saved_store
        again = str(tmp_path / "again")
        opened = repro.open(url, writable=True)
        opened.save(again)
        opened.close()
        assert sorted(os.listdir(again)) == sorted(os.listdir(url))
        for name in os.listdir(url):
            with open(os.path.join(url, name), "rb") as first, \
                    open(os.path.join(again, name), "rb") as second:
                assert first.read() == second.read(), name

    def test_read_only_reopen_saves_the_same_sizes_and_answers(
            self, saved_store, tmp_path):
        # Protocol 5 marks buffers that were read-only when pickled, so
        # the head of a payload saved from a mapped open may differ by
        # those one-byte opcodes; everything else may not.
        store, table, url = saved_store
        again = str(tmp_path / "again")
        payload_cache().clear()
        opened = repro.open(url, writable=False)
        opened.save(again)
        opened.close()
        for name in os.listdir(url):
            first = os.path.getsize(os.path.join(url, name))
            second = os.path.getsize(os.path.join(again, name))
            assert abs(first - second) <= 64, name
        query = full_query(table)
        resaved = repro.open(again, writable=False)
        assert_identical(resaved.lookup(query),
                         barrier_lookup(store, query), store)
        resaved.close()


# ---------------------------------------------------------------------------
# Round trip of arbitrary auxiliary tables through every way to open
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def template():
    """One trained structure whose ``T_aux`` the property test swaps."""
    table = synthetic.single_column(300, "high", seed=5)
    return DeepMapping.fit(table, fast_config(epochs=2))


def with_aux(template, codec, partition_bytes, rows, overlay, dead):
    """``template`` over a hand-made auxiliary table: ``rows`` in
    partitions, then ``overlay`` rows added and ``dead`` keys removed."""
    base = template.model
    config = replace(base.config, aux_codec=codec,
                     aux_partition_bytes=partition_bytes)
    aux = AuxiliaryTable(template.value_names, codec=codec,
                         target_partition_bytes=partition_bytes,
                         auto_compact_rows=10_000)

    def columns(pairs):
        keys = np.array([k for k, _ in pairs], dtype=np.int64)
        return keys, {task: np.array([c for _, c in pairs], dtype=np.int64)
                      for task in template.value_names}

    aux.build(*columns(rows))
    if overlay:
        aux.add_batch(*columns(overlay))
    aux.remove_batch(np.array(dead, dtype=np.int64))
    model = Model(config, base.key_codec, base.key_encoder, base.session,
                  base.fdecode, base.dataset_bytes)
    shard = Shard(model, aux, template.exist, StoreStats(), len(template))
    return DeepMapping(template.router, model, [shard], template.exist,
                       ShardingConfig(), value_names=template.value_names,
                       value_dtypes={c: template.value_dtype(c)
                                     for c in template.value_names})


def assert_same_store(opened, source, query):
    result, reference = opened.lookup(query), source.lookup(query)
    np.testing.assert_array_equal(result.found, reference.found)
    for column in source.value_names:
        np.testing.assert_array_equal(result.values[column],
                                      reference.values[column])
    opened_aux, source_aux = opened.shards[0].aux, source.shards[0].aux
    assert len(opened_aux) == len(source_aux)
    assert opened_aux.stored_bytes() == source_aux.stored_bytes()
    assert opened_aux.partition_count == source_aux.partition_count
    got_keys, got_codes = opened_aux.scan()
    keys, codes = source_aux.scan()
    np.testing.assert_array_equal(got_keys, keys)
    for task in codes:
        assert got_codes[task].dtype == codes[task].dtype
        np.testing.assert_array_equal(got_codes[task], codes[task])


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_any_aux_table_round_trips_through_every_open(template, data):
    """Property: save → open (read-only, writable, over HTTP ranges)
    reproduces lookups, ``len(aux)``, ``stored_bytes()``,
    ``partition_count`` and ``scan()``, and the writable reopen saves
    back the identical bytes — for any codec, partition sizes down to
    one row, an empty table, and a live overlay and tombstones."""
    n_keys = template.model.key_codec.domain_size
    cardinality = min(template.model.fdecode.cardinalities().values())
    key = st.integers(min_value=0, max_value=n_keys - 1)
    row = st.tuples(key, st.integers(min_value=0, max_value=cardinality - 1))
    unique_rows = dict(unique_by=lambda pair: pair[0])

    codec = data.draw(st.sampled_from(["none", "zstd", "gzip", "lzma"]))
    partition_bytes = data.draw(st.sampled_from([1, 64, 4096]))
    rows = data.draw(st.lists(row, max_size=40, **unique_rows))
    overlay = data.draw(st.lists(row, max_size=8, **unique_rows))
    dead = data.draw(st.lists(key, max_size=8))
    source = with_aux(template, codec, partition_bytes, rows, overlay, dead)
    if partition_bytes == 1:
        assert source.shards[0].aux.partition_count == len(rows)
    query = template.model.key_codec.unflatten(
        np.arange(n_keys, dtype=np.int64))

    name = f"aux-round-trip-{os.urandom(6).hex()}"
    url = f"mem://{name}"
    try:
        source.save(url)
        backend = InMemoryBackend.named(name)
        first = {blob: bytes(backend.read_bytes(blob))
                 for blob in backend.list()}

        read_only = repro.open(url, writable=False)
        assert_same_store(read_only, source, query)
        writable = repro.open(url, writable=True)
        assert_same_store(writable, source, query)
        with serve_backend(backend) as server:
            assert_same_store(repro.open(server.url), source, query)

        writable.save(url)
        assert {blob: bytes(backend.read_bytes(blob))
                for blob in backend.list()} == first
        # Still mutable after attaching: fold the overlay in and compare.
        writable.shards[0].aux.compact()
        source.shards[0].aux.compact()
        assert_same_store(writable, source, query)
    finally:
        payload_cache().clear()
        InMemoryBackend.discard(name)
