"""Unit tests for the lazy-hydration layer (``storage/hydration.py``).

``RangeReader`` must reassemble a zero-copy container from ranged reads
bit-for-bit — checksums verifying — while fetching the index once and
coalescing adjacent extents into few requests.  ``LazyShard`` must load
exactly once, answer ``len()`` from the manifest before hydration, and
account contention.
"""

import struct
import threading
import time

import numpy as np
import pytest

from repro.resilience import StoreCorruptedError
from repro.storage import InMemoryBackend, LocalDirBackend, StoreStats
from repro.storage.hydration import (COALESCE_GAP, SNIFF_BYTES, LazyShard,
                                     RangeReader)
from repro.storage.remote import HttpBackend
from repro.storage.zerocopy import MAGIC, pack, unpack
from repro.testing import serve_backend


def packed_blob(n_arrays=4, rows=5000, seed=0):
    rng = np.random.default_rng(seed)
    obj = {f"arr{i}": rng.integers(0, 1 << 30, rows).astype(np.int64)
           for i in range(n_arrays)}
    obj["meta"] = {"n": rows, "names": [f"arr{i}" for i in range(n_arrays)]}
    return obj, bytes(pack(obj))


@pytest.fixture
def backend():
    return InMemoryBackend("hydration-test")


class TestRangeReader:
    def test_round_trips_bit_identically(self, backend):
        obj, blob = packed_blob()
        backend.write_bytes("shard.dm", blob)
        reader = RangeReader(backend, "shard.dm")
        assert reader.packed
        assert reader.total_size == len(blob)
        image = reader.fetch()
        assert bytes(image) == blob
        # Checksums verify on the assembled image, like a whole read.
        loaded = unpack(image)
        for name in obj["meta"]["names"]:
            np.testing.assert_array_equal(loaded[name], obj[name])

    def test_small_blob_arrives_whole_in_the_sniff(self, backend):
        blob = b"tiny json-ish blob"
        backend.write_bytes("manifest.json", blob)
        reader = RangeReader(backend, "manifest.json")
        assert reader.whole == blob
        assert not reader.packed
        assert bytes(reader.fetch()) == blob
        # One request total: the sniff covered everything.
        assert len(reader.ranges_fetched) == 1

    def test_unrecognized_large_blob_refuses_fetch(self, backend):
        backend.write_bytes("legacy.bin", bytes(SNIFF_BYTES * 2))
        reader = RangeReader(backend, "legacy.bin")
        assert reader.whole is None and not reader.packed
        with pytest.raises(ValueError, match="not a zero-copy container"):
            reader.fetch()

    def test_requests_are_coalesced(self, backend):
        _, blob = packed_blob(n_arrays=6)
        backend.write_bytes("shard.dm", blob)
        reader = RangeReader(backend, "shard.dm")
        reader.fetch()
        # Sniff + the coalesced tail; segments sit within COALESCE_GAP
        # of each other (64-byte alignment), so the whole remainder
        # merges into one request.
        assert len(reader.ranges_fetched) == 2
        # The accounting adds up to at least the blob (gap bytes may
        # ride along inside merged ranges).
        assert reader.bytes_fetched >= len(blob) - SNIFF_BYTES

    def test_giant_slot_table_fetches_index_remainder(self, backend):
        # 300 buffers * 16 bytes of slots > the 4 KiB sniff: the reader
        # must complete the index with a follow-up request, then still
        # reassemble bit-identically.
        obj = {f"a{i}": np.full(7, i, dtype=np.int64) for i in range(300)}
        blob = bytes(pack(obj))
        backend.write_bytes("wide.dm", blob)
        reader = RangeReader(backend, "wide.dm")
        assert reader.packed
        assert reader.index.head[0] > SNIFF_BYTES
        assert bytes(reader.fetch()) == blob
        unpack(memoryview(bytes(blob)))  # sanity: source container valid

    def test_partial_fetch_covers_chosen_segments(self, backend):
        obj, blob = packed_blob(n_arrays=4)
        backend.write_bytes("shard.dm", blob)
        reader = RangeReader(backend, "shard.dm")
        image = reader.fetch(segments=[0, 1])
        for idx in (0, 1):
            start, end = reader.index.segments[idx]
            assert bytes(image[start:end]) == blob[start:end]
        full = RangeReader(backend, "shard.dm")
        assert full.fetch(segments=None).nbytes == len(blob)
        # The sparse plan fetched strictly less than the full plan.
        assert reader.bytes_fetched < full.bytes_fetched

    def test_coalesce_merges_within_gap(self):
        extents = [(0, 10), (12, 20), (20 + COALESCE_GAP + 1, 30000)]
        merged = RangeReader.coalesce(extents, gap=COALESCE_GAP)
        assert merged == [(0, 20), (20 + COALESCE_GAP + 1, 30000)]
        assert RangeReader.coalesce([], gap=1) == []

    def test_works_over_local_dir_backend(self, tmp_path):
        _, blob = packed_blob()
        backend = LocalDirBackend(str(tmp_path))
        backend.write_bytes("shard.dm", blob)
        reader = RangeReader(backend, "shard.dm")
        assert bytes(reader.fetch()) == blob

    def test_damaged_slot_length_over_http_names_the_blob(self, backend,
                                                          monkeypatch):
        # A slot length of 1 << 42 used to reach ``bytearray(1 << 42)`` in
        # fetch().  The index is checked against the length Content-Range
        # states: refused before a byte is allocated or another asked for.
        _, blob = packed_blob()
        damaged = bytearray(blob)
        struct.pack_into("<Q", damaged, len(MAGIC) + 16 + 8, 1 << 42)
        backend.write_bytes("shard.dm", bytes(damaged))
        monkeypatch.setattr(
            RangeReader, "fetch",
            lambda *a, **k: pytest.fail("fetch() reached: would allocate"))
        with serve_backend(backend) as server:
            with pytest.raises(StoreCorruptedError,
                               match=r"'shard.dm' in http://127.0.0.1"):
                HttpBackend(server.url).read_view("shard.dm")
            assert server.request_count("shard.dm", method="GET") == 1
            assert server.request_count(method="HEAD") == 0


class TestLazyShard:
    def test_loads_once_on_first_touch(self):
        calls = []

        class Target:
            attribute = "value"

            def __len__(self):
                return 123

        def loader():
            calls.append(1)
            return Target()

        proxy = LazyShard(loader, n_rows=42, label="shard-0000.dm")
        assert not proxy.hydrated
        assert len(proxy) == 42          # manifest row count, no load
        assert not calls
        assert proxy.attribute == "value"  # first touch hydrates
        assert proxy.hydrated
        assert len(proxy) == 123         # now answered by the target
        proxy.hydrate()
        assert len(calls) == 1

    def test_stats_account_hydrations(self):
        stats = StoreStats()
        proxy = LazyShard(lambda: object(), stats=stats)
        proxy.hydrate()
        proxy.hydrate()
        assert stats.counters["hydrated_shards"] == 1

    def test_contended_hydration_counts_waits(self):
        stats = StoreStats()
        release = threading.Event()
        entered = threading.Event()

        def slow_loader():
            entered.set()
            release.wait(timeout=5.0)
            return object()

        proxy = LazyShard(slow_loader, stats=stats)
        first = threading.Thread(target=proxy.hydrate)
        first.start()
        assert entered.wait(timeout=5.0)
        second = threading.Thread(target=proxy.hydrate)
        second.start()
        # The wait counter bumps *before* the second thread blocks on
        # the held lock — observe it, then let the loader finish.
        deadline = time.monotonic() + 5.0
        while stats.counters.get("hydration_waits", 0) == 0 \
                and time.monotonic() < deadline:
            time.sleep(0.005)
        release.set()
        first.join(timeout=5.0)
        second.join(timeout=5.0)
        assert proxy.hydrated
        assert stats.counters["hydration_waits"] == 1
        assert stats.counters["hydrated_shards"] == 1
