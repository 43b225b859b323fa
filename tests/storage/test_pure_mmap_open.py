"""Read accounting for ``writable=False`` cold opens.

The pure-mmap claim (``docs/performance.md``): a cold read-only open of
an array-first (v2) payload issues exactly one ``read_view`` per shard
blob — never a materializing ``read_bytes`` — its weights and existence
bits come up as read-only views into that mapping, and no auxiliary
partition is compressed or written until the table is first probed.
Legacy nested-pickled payloads must still load (eagerly, as before).
"""

import numpy as np
import pytest

import repro
from repro.data import synthetic
from repro.shard import ShardedDeepMapping, ShardingConfig
from repro.storage import LocalDirBackend
from repro.storage.blob_cache import payload_cache
from repro.storage.disk import DiskStore
from repro.testing.oracles import barrier_lookup

from ..core.conftest import fast_config


@pytest.fixture
def saved_store(tmp_path):
    table = synthetic.single_column(400, "high", seed=2)
    store = ShardedDeepMapping.fit(
        table, fast_config(epochs=2),
        ShardingConfig(n_shards=2, strategy="range"))
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
    """Count DiskStore blob writes (aux-partition materialization)."""
    count = [0]
    orig = DiskStore.write

    def counting(self, *args, **kwargs):
        count[0] += 1
        return orig(self, *args, **kwargs)

    monkeypatch.setattr(DiskStore, "write", counting)
    return count


def payload_blobs(names):
    return [n for n in names if n.endswith(".dm")]


class TestPureMmapColdOpen:
    def test_no_materializing_payload_reads(self, saved_store, read_calls):
        _, _, url = saved_store
        payload_cache().clear()
        read_calls["read_bytes"].clear()
        read_calls["read_view"].clear()
        opened = repro.open(url, writable=False)
        # Shard payloads are mapped, never copied out as bytes; the
        # (small, JSON) manifest may use whichever access it likes.
        assert payload_blobs(read_calls["read_bytes"]) == []
        assert len(payload_blobs(read_calls["read_view"])) == 2
        opened.close()

    def test_exist_and_weights_are_views_into_the_payload(self, saved_store):
        _, _, url = saved_store
        payload_cache().clear()
        opened = repro.open(url, writable=False)
        for shard in opened.shards:
            if shard is None:
                continue
            base = np.frombuffer(shard._shared_bundle["payload_view"],
                                 dtype=np.uint8)
            arrays = [w for layer in shard.session._shared for w in layer]
            arrays += [w for chain in shard.session._heads.values()
                       for layer in chain for w in layer]
            exist = shard.exist
            arrays.append(exist._bits.packed if hasattr(exist, "_bits")
                          else exist._keys)
            for arr in arrays:
                arr = np.asarray(arr)
                assert not arr.flags.writeable
                assert np.shares_memory(base, arr)
        opened.close()

    def test_aux_partitions_deferred_until_first_probe(self, saved_store,
                                                       partition_writes):
        store, table, url = saved_store
        query = {table.key[0]: np.concatenate([
            table.column(table.key[0])[:100],
            np.array([10**8], dtype=np.int64)])}
        reference = barrier_lookup(store, query)

        payload_cache().clear()
        partition_writes[0] = 0
        opened = repro.open(url, writable=False)
        assert partition_writes[0] == 0, (
            "cold read-only open materialized aux partitions")
        # First probe builds the partitions — results are identical to
        # the eagerly-built writable store's.
        result = opened.lookup(query)
        np.testing.assert_array_equal(result.found, reference.found)
        for column in store.value_names:
            np.testing.assert_array_equal(result.values[column],
                                          reference.values[column])
        opened.close()

    def test_writable_open_stays_eager(self, saved_store, partition_writes):
        _, _, url = saved_store
        partition_writes[0] = 0
        opened = repro.open(url, writable=True)
        assert partition_writes[0] > 0
        opened.close()


class TestLegacyPayloadCompat:
    def test_legacy_nested_bytes_payload_still_loads(self, saved_store,
                                                     partition_writes):
        store, table, url = saved_store
        backend = LocalDirBackend(url)
        for ordinal, shard in enumerate(store.shards):
            if shard is not None:
                backend.write_bytes(f"shard-{ordinal:04d}.dm",
                                    shard._to_payload_legacy())
        query = {table.key[0]: np.concatenate([
            table.column(table.key[0])[:100],
            np.array([10**8], dtype=np.int64)])}
        reference = barrier_lookup(store, query)

        payload_cache().clear()
        partition_writes[0] = 0
        opened = repro.open(url, writable=False)
        # The compatibility path keeps its historical eager aux build.
        assert partition_writes[0] > 0
        result = opened.lookup(query)
        np.testing.assert_array_equal(result.found, reference.found)
        for column in store.value_names:
            np.testing.assert_array_equal(result.values[column],
                                          reference.values[column])
        opened.close()
