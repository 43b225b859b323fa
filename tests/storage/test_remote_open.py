"""Read accounting for remote (``http://`` / ``cached+http://``) opens.

The lazy-hydration claim (``docs/remote.md``): opening a sharded store
over HTTP downloads only the manifest (which carries router, filter and
value dtypes) plus the config blob — **zero shard payload bytes**.
Shards hydrate on first routed touch: an all-miss batch that the
manifest filters prune answers without any new download, a batch routed
into one shard downloads exactly that shard, and every result is
bit-identical to the same store opened from the local directory.  The
``cached+http://`` tier makes a warm reopen revalidate with HEADs and
serve every blob from the local disk cache — zero GETs.  All of it is
asserted against the in-process range server's request log, including
under injected 5xx faults (retried transparently by the resilience
wrapper).
"""

import numpy as np
import pytest

import repro
from repro import DeepMapping
from repro.data import ColumnTable, synthetic
from repro.shard import ShardedDeepMapping, ShardingConfig
from repro.storage import (MONOLITHIC_BLOB, LocalDirBackend,
                           configure_hydration_cache)
from repro.storage.blob_cache import payload_cache
from repro.storage.remote import _cache_config
from repro.testing import serve_backend
from repro.testing.oracles import barrier_lookup

from ..core.conftest import fast_config


def key_correlated_table():
    """Each range shard's smallest value differs: 0 in one, 4 in the
    other."""
    keys = np.arange(400, dtype=np.int64)
    return ColumnTable({"key": keys, "v": keys // 50}, key=("key",))


@pytest.fixture
def saved_store(tmp_path, request):
    table = (key_correlated_table()
             if getattr(request, "param", None) == "key-correlated"
             else synthetic.single_column(400, "high", seed=2))
    # Managed: the engine adopts every shard at open, proxies included.
    store = ShardedDeepMapping.fit(
        table, fast_config(epochs=2),
        ShardingConfig(n_shards=2, strategy="range",
                       lifecycle=repro.LifecycleConfig(policy="never")))
    url = str(tmp_path / "store")
    store.save(url)
    yield store, table, url
    store.close()


@pytest.fixture
def served(saved_store):
    """The saved store behind an in-process range server, cold caches."""
    store, table, url = saved_store
    payload_cache().clear()
    with serve_backend(LocalDirBackend(url, create=False)) as server:
        yield store, table, server
    payload_cache().clear()


@pytest.fixture
def cache_dir(tmp_path):
    """Point the hydration cache at a private, empty directory."""
    previous = dict(_cache_config)
    configure_hydration_cache(root=str(tmp_path / "hydration-cache"))
    yield
    _cache_config.clear()
    _cache_config.update(previous)


def shard_blob_gets(server):
    return [name for name in server.blobs_fetched() if name.endswith(".dm")]


def full_query(store, table):
    """Keys spanning both shards plus a guaranteed miss."""
    return {table.key[0]: np.concatenate([
        table.column(table.key[0])[::4],
        np.array([10 ** 8], dtype=np.int64)])}


def assert_identical(reference, result, store):
    np.testing.assert_array_equal(result.found, reference.found)
    for column in store.value_names:
        np.testing.assert_array_equal(result.values[column],
                                      reference.values[column])


class TestLazyHydration:
    def test_cold_open_downloads_no_shard_bytes(self, served):
        _, _, server = served
        opened = repro.open(server.url)
        assert shard_blob_gets(server) == [], (
            "cold remote open fetched shard payload bytes")
        assert len(opened) == 400  # answered from the manifest
        assert all(not shard.hydrated for shard in opened.shards
                   if shard is not None)
        opened.close()

    @pytest.mark.parametrize("saved_store", ["synthetic", "key-correlated"],
                             indirect=True)
    def test_all_miss_batch_stays_download_free(self, served):
        store, table, server = served
        misses = {table.key[0]: np.array([10 ** 8, 10 ** 8 + 1, -12345,
                                          -1, 400, 10 ** 6],
                                         dtype=np.int64)}
        reference = barrier_lookup(store, misses)
        opened = repro.open(server.url)
        result = opened.lookup(misses)
        assert_identical(reference, result, store)
        assert not result.found.any()
        assert shard_blob_gets(server) == [], (
            "manifest filters should have pruned the batch before any "
            "shard download")
        opened.close()

    def test_single_shard_batch_hydrates_only_that_shard(self, served):
        store, table, server = served
        # The smallest keys route to exactly one range shard.
        keys = np.sort(table.column(table.key[0]))[:5]
        query = {table.key[0]: keys}
        reference = barrier_lookup(store, query)
        opened = repro.open(server.url)
        result = opened.lookup(query)
        assert_identical(reference, result, store)
        assert len(shard_blob_gets(server)) == 1
        assert sum(1 for shard in opened.shards
                   if shard is not None and shard.hydrated) == 1
        opened.close()

    def test_full_fanout_is_bit_identical(self, served):
        store, table, server = served
        query = full_query(store, table)
        reference = barrier_lookup(store, query)
        opened = repro.open(server.url)
        assert_identical(reference, opened.lookup(query), store)
        assert len(shard_blob_gets(server)) == 2
        counters = opened.stats.counters
        assert counters["hydrated_shards"] == 2
        assert counters["range_requests"] > 0
        assert counters["hydrated_bytes"] > 0
        opened.close()

    def test_remote_opens_are_read_only(self, served):
        store, table, server = served
        opened = repro.open(server.url)
        row = {table.key[0]: np.array([10 ** 8], dtype=np.int64)}
        for column in store.value_names:
            row[column] = np.array([0], dtype=np.int64)
        with pytest.raises(PermissionError):
            opened.insert(row)
        opened.close()


@pytest.fixture
def saved_mono(tmp_path):
    """A monolithic store saved into a directory container."""
    table = synthetic.single_column(400, "high", seed=2)
    store = DeepMapping.fit(table, fast_config(epochs=2))
    directory = tmp_path / "mono"
    directory.mkdir()
    store.save(str(directory / MONOLITHIC_BLOB))
    payload_cache().clear()
    yield table, directory
    payload_cache().clear()


def insert_refused(opened, table):
    key = table.key[0]
    row = {key: np.array([10 ** 8], dtype=np.int64)}
    for column in opened.value_names:
        row[column] = table.column(column)[:1]
    with pytest.raises(PermissionError):
        opened.insert(row)


class TestOneOpenRule:
    """``DeepMapping.open`` and ``repro.open`` open a payload by one rule
    (``repro.core.persistence.open_payload``)."""

    @pytest.mark.parametrize("scheme", ["", "cached+"])
    @pytest.mark.parametrize("entry", [repro.open, DeepMapping.open],
                             ids=["repro.open", "DeepMapping.open"])
    def test_remote_monolithic_opens_are_read_only(self, saved_mono, scheme,
                                                   entry, cache_dir):
        table, directory = saved_mono
        with serve_backend(LocalDirBackend(str(directory),
                                           create=False)) as server:
            for writable in (True, False):
                opened = entry(scheme + server.url, writable=writable)
                assert opened.writable is False
                insert_refused(opened, table)
                assert opened.lookup(table).found.all()
                opened.close()

    def test_both_entry_points_agree_on_every_scheme(self, saved_mono,
                                                     cache_dir, tmp_path):
        table, directory = saved_mono
        payload = (directory / MONOLITHIC_BLOB).read_bytes()
        mem = repro.storage.InMemoryBackend.named("one-open-rule")
        mem.write_bytes(MONOLITHIC_BLOB, payload)
        zip_url = f"zip://{tmp_path / 'store.zip'}"
        repro.storage.backend_for_url(zip_url).write_bytes(MONOLITHIC_BLOB,
                                                           payload)
        try:
            with serve_backend(LocalDirBackend(str(directory),
                                               create=False)) as server:
                urls = {str(directory / MONOLITHIC_BLOB): True,
                        mem.url: True, zip_url: True,
                        server.url: False, "cached+" + server.url: False}
                for url, can_write in urls.items():
                    for writable in (True, False):
                        opens = [entry(url, writable=writable)
                                 for entry in (repro.open, DeepMapping.open)]
                        assert [store.writable for store in opens] == \
                            [writable and can_write] * 2, (url, writable)
                        for store in opens:
                            store.close()
        finally:
            repro.storage.InMemoryBackend.discard(mem.name)


class TestCachedTier:
    def test_warm_reopen_is_head_only(self, served, cache_dir):
        store, table, server = served
        query = full_query(store, table)
        reference = barrier_lookup(store, query)
        cached_url = "cached+" + server.url

        first = repro.open(cached_url)
        assert_identical(reference, first.lookup(query), store)
        assert first.stats.counters["cache_misses"] > 0
        first.close()

        payload_cache().clear()  # kill in-process sharing: disk must carry
        server.reset_requests()
        second = repro.open(cached_url)
        assert_identical(reference, second.lookup(query), store)
        assert server.request_count(method="GET") == 0, (
            "warm cached reopen should revalidate with HEADs only: "
            f"{server.requests}")
        # The payload cache's stamp serves the read too: one HEAD each.
        for blob in server.backend.list():
            if blob.endswith(".dm"):
                assert server.request_count(name=blob, method="HEAD") <= 1, (
                    blob, server.requests)
        assert second.stats.counters["cache_hits"] > 0
        second.close()

    def test_republished_blob_misses_to_fresh_bytes(self, served, cache_dir):
        store, table, server = served
        cached_url = "cached+" + server.url
        opened = repro.open(cached_url)
        opened.lookup(full_query(store, table))
        opened.close()
        payload_cache().clear()
        # Re-publish: rewrite every blob (new mtime => new version) the
        # way an updated store upload would.
        backend = server.backend
        for name in backend.list():
            payload = bytes(backend.read_bytes(name))
            backend.write_bytes(name, payload)
        server.reset_requests()
        reopened = repro.open(cached_url)
        reference = barrier_lookup(store, full_query(store, table))
        assert_identical(reference,
                         reopened.lookup(full_query(store, table)), store)
        assert server.request_count(method="GET") > 0, (
            "stale cache entries must not mask a re-published store")
        reopened.close()


class TestRemoteChaos:
    def test_injected_faults_are_retried_bit_identically(self, served):
        store, table, server = served
        query = full_query(store, table)
        reference = barrier_lookup(store, query)
        server.fail_next(2, status=503)
        opened = repro.open(server.url)
        assert_identical(reference, opened.lookup(query), store)
        statuses = [r.status for r in server.requests]
        assert statuses.count(503) == 2
        opened.close()

    def test_faults_mid_hydration_are_retried(self, served):
        store, table, server = served
        query = full_query(store, table)
        reference = barrier_lookup(store, query)
        opened = repro.open(server.url)  # clean open...
        server.fail_next(1, status=502)  # ...then the first fetch breaks
        assert_identical(reference, opened.lookup(query), store)
        opened.close()

    def test_missing_store_raises_typed_error(self, tmp_path):
        from repro.resilience.errors import StoreNotFoundError
        empty = LocalDirBackend(str(tmp_path / "empty"), create=True)
        with serve_backend(empty) as server:
            with pytest.raises(StoreNotFoundError):
                repro.open(server.url)
