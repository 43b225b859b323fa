"""BlobCache lifetime rules: LRU byte budget, version stamps, invalidation."""

import threading

import numpy as np
import pytest

from repro.storage import (BlobCache, InMemoryBackend, LocalDirBackend,
                           ZipBackend, blob_version, configure_payload_cache,
                           payload_cache)


def loader_of(obj, size, counter=None):
    def loader(version):
        if counter is not None:
            counter.append(1)
        return obj, size
    return loader


class TestReadThrough:
    def test_miss_then_hit(self):
        backend = InMemoryBackend()
        backend.write_bytes("a", b"x" * 10)
        cache = BlobCache(budget_bytes=1000)
        calls = []
        assert cache.get(backend, "a", loader_of("obj", 10, calls)) == "obj"
        assert cache.get(backend, "a", loader_of("other", 10, calls)) == "obj"
        assert calls == [1]
        assert cache.hits == 1 and cache.misses == 1

    def test_rewrite_misses_naturally(self):
        """A re-saved blob changes its version stamp: no explicit
        invalidation needed for freshness."""
        backend = InMemoryBackend()
        backend.write_bytes("a", b"v1")
        cache = BlobCache(budget_bytes=1000)
        assert cache.get(backend, "a", loader_of("one", 5)) == "one"
        backend.write_bytes("a", b"v2")
        assert cache.get(backend, "a", loader_of("two", 5)) == "two"
        assert cache.get(backend, "a", loader_of("three", 5)) == "two"

    def test_unversionable_backend_never_cached(self):
        class Plain:
            def read_bytes(self, name):
                return b"data"
        backend = Plain()
        cache = BlobCache(budget_bytes=1000)
        calls = []
        cache.get(backend, "a", loader_of("x", 5, calls))
        cache.get(backend, "a", loader_of("x", 5, calls))
        assert calls == [1, 1]
        assert len(cache) == 0

    def test_distinct_backends_distinct_entries(self):
        a, b = InMemoryBackend("ca"), InMemoryBackend("cb")
        a.write_bytes("blob", b"1")
        b.write_bytes("blob", b"2")
        cache = BlobCache(budget_bytes=1000)
        assert cache.get(a, "blob", loader_of("A", 1)) == "A"
        assert cache.get(b, "blob", loader_of("B", 1)) == "B"
        assert cache.get(a, "blob", loader_of("zzz", 1)) == "A"

    def test_shared_identity_across_instances(self):
        """Two LocalDirBackend objects over one directory share entries."""
        import tempfile
        root = tempfile.mkdtemp()
        one = LocalDirBackend(root)
        one.write_bytes("a", b"payload")
        two = LocalDirBackend(root)
        cache = BlobCache(budget_bytes=1000)
        assert cache.get(one, "a", loader_of("obj", 5)) == "obj"
        assert cache.get(two, "a", loader_of("fresh", 5)) == "obj"


class TestBudget:
    def test_lru_eviction_under_byte_budget(self):
        backend = InMemoryBackend()
        cache = BlobCache(budget_bytes=100)
        for name in ("a", "b", "c"):
            backend.write_bytes(name, b"x")
            cache.get(backend, name, loader_of(name.upper(), 40))
        # 3 * 40 > 100: the least recently used entry (a) was evicted.
        assert cache.used_bytes <= 100
        assert cache.evictions == 1
        keys = [k[1] for k in cache.cached_keys()]
        assert keys == ["b", "c"]

    def test_hit_refreshes_lru_position(self):
        backend = InMemoryBackend()
        cache = BlobCache(budget_bytes=100)
        for name in ("a", "b"):
            backend.write_bytes(name, b"x")
            cache.get(backend, name, loader_of(name, 40))
        cache.get(backend, "a", loader_of("ignored", 40))  # touch a
        backend.write_bytes("c", b"x")
        cache.get(backend, "c", loader_of("c", 40))
        keys = [k[1] for k in cache.cached_keys()]
        assert keys == ["a", "c"]  # b evicted, not a

    def test_oversized_entry_not_cached(self):
        backend = InMemoryBackend()
        backend.write_bytes("big", b"x")
        cache = BlobCache(budget_bytes=10)
        assert cache.get(backend, "big", loader_of("obj", 1000)) == "obj"
        assert len(cache) == 0

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError):
            BlobCache(budget_bytes=0)


class TestInvalidation:
    def test_invalidate_one_blob(self):
        backend = InMemoryBackend()
        backend.write_bytes("a", b"x")
        cache = BlobCache()
        cache.get(backend, "a", loader_of("one", 5))
        cache.invalidate(backend, "a")
        assert len(cache) == 0
        assert cache.used_bytes == 0

    def test_invalidate_backend_drops_only_its_entries(self):
        a, b = InMemoryBackend("inva"), InMemoryBackend("invb")
        cache = BlobCache()
        for backend, name in ((a, "x"), (a, "y"), (b, "x")):
            backend.write_bytes(name, b"p")
            cache.get(backend, name, loader_of(name, 5))
        cache.invalidate_backend(a)
        assert [k[1] for k in cache.cached_keys()] == ["x"]

    def test_clear(self):
        backend = InMemoryBackend()
        backend.write_bytes("a", b"x")
        cache = BlobCache()
        cache.get(backend, "a", loader_of("one", 5))
        cache.clear()
        assert len(cache) == 0 and cache.used_bytes == 0


class TestGlobalCache:
    def test_payload_cache_is_shared(self):
        assert payload_cache() is payload_cache()

    def test_configure_budget_evicts_to_new_bound(self):
        cache = BlobCache(budget_bytes=1000)
        backend = InMemoryBackend()
        for name in ("a", "b", "c"):
            backend.write_bytes(name, b"x")
            cache.get(backend, name, loader_of(name, 300))
        # Shrink the shared-path machinery via the same code path the
        # public helper uses (operate on a private cache to avoid
        # cross-test interference with the real global).
        import repro.storage.blob_cache as mod
        original = mod._payload_cache
        mod._payload_cache = cache
        try:
            configure_payload_cache(400)
            assert cache.used_bytes <= 400
        finally:
            mod._payload_cache = original

    def test_configure_rejects_invalid(self):
        with pytest.raises(ValueError):
            configure_payload_cache(-1)


class TestVersionStamps:
    def test_local_dir_version_tracks_replacement(self, tmp_path):
        backend = LocalDirBackend(str(tmp_path))
        assert blob_version(backend, "a") is None
        backend.write_bytes("a", b"one")
        first = blob_version(backend, "a")
        assert first is not None
        backend.write_bytes("a", b"two!")
        assert blob_version(backend, "a") != first

    def test_mem_version_counts_writes(self):
        backend = InMemoryBackend()
        backend.write_bytes("a", b"one")
        v1 = blob_version(backend, "a")
        backend.write_bytes("a", b"two")
        assert blob_version(backend, "a") != v1
        backend.delete("a")
        assert blob_version(backend, "a") is None

    def test_zip_version_moves_on_any_write(self, tmp_path):
        backend = ZipBackend(str(tmp_path / "c.zip"))
        backend.write_bytes("a", b"one")
        v1 = blob_version(backend, "a")
        backend.write_bytes("b", b"unrelated")
        assert blob_version(backend, "a") != v1


class TestConcurrency:
    def test_concurrent_gets_are_consistent(self):
        backend = InMemoryBackend()
        backend.write_bytes("a", b"x")
        cache = BlobCache(budget_bytes=10_000)
        results, errors = [], []

        def worker():
            try:
                for _ in range(50):
                    results.append(cache.get(backend, "a",
                                             loader_of("obj", 10)))
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert set(results) == {"obj"}
