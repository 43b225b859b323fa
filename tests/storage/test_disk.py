"""Tests for DiskStore."""

import gc
import os

import pytest

from repro.storage import DiskStore, StoreStats


class TestReadWrite:
    def test_write_then_read(self, tmp_store_dir):
        with DiskStore(tmp_store_dir) as store:
            store.write("p0", b"hello")
            assert store.read("p0") == b"hello"

    def test_missing_blob_raises_keyerror(self, tmp_store_dir):
        with DiskStore(tmp_store_dir) as store:
            with pytest.raises(KeyError):
                store.read("nope")

    def test_overwrite(self, tmp_store_dir):
        with DiskStore(tmp_store_dir) as store:
            store.write("p0", b"one")
            store.write("p0", b"two!")
            assert store.read("p0") == b"two!"
            assert store.size("p0") == 4

    def test_delete(self, tmp_store_dir):
        with DiskStore(tmp_store_dir) as store:
            store.write("p0", b"x")
            store.delete("p0")
            assert not store.exists("p0")
            store.delete("p0")  # idempotent

    def test_names_sorted(self, tmp_store_dir):
        with DiskStore(tmp_store_dir) as store:
            store.write("b", b"2")
            store.write("a", b"1")
            assert list(store.names()) == ["a", "b"]


class TestAccounting:
    def test_total_bytes(self, tmp_store_dir):
        with DiskStore(tmp_store_dir) as store:
            store.write("a", b"12345")
            store.write("b", b"123")
            assert store.total_bytes() == 8

    def test_io_stats_recorded(self, tmp_store_dir):
        stats = StoreStats()
        with DiskStore(tmp_store_dir, stats=stats) as store:
            store.write("a", b"12345")
            store.read("a")
        assert stats.counters["blobs_read"] == 1
        assert stats.counters["bytes_read"] == 5
        assert stats.seconds("io") >= 0.0
        assert stats.timers["io"].calls == 1


class TestAttach:
    def test_attached_blob_is_served_from_the_callers_buffer(self):
        stats = StoreStats()
        store = DiskStore(stats=stats)
        source = bytearray(b"0123456789")
        assert store.attach("p0", memoryview(source)[2:6]) == 4
        blob = store.read("p0")
        assert bytes(blob) == b"2345"
        source[2] = ord("x")               # a view, not a copy
        assert bytes(store.read("p0")) == b"x345"
        assert stats.counters["blobs_read"] == 2
        assert stats.counters["bytes_read"] == 8
        assert stats.timers["io"].calls == 2

    def test_attached_blobs_are_listed_and_sized(self, tmp_store_dir):
        with DiskStore(tmp_store_dir) as store:
            store.write("b", b"12")
            store.attach("a", b"123")
            assert list(store.names()) == ["a", "b"]
            assert store.exists("a") and store.size("a") == 3
            assert store.total_bytes() == 5

    def test_write_replaces_and_delete_forgets_an_attachment(
            self, tmp_store_dir):
        source = b"attached"
        with DiskStore(tmp_store_dir) as store:
            store.attach("p0", source)
            store.write("p0", b"written")
            assert store.read("p0") == b"written"
            store.attach("p1", source)
            store.delete("p1")
            assert not store.exists("p1")
            with pytest.raises(KeyError):
                store.read("p1")
        assert source == b"attached"


class TestLifecycle:
    def test_no_directory_until_the_first_write(self, temp_root):
        store = DiskStore()
        store.attach("a", b"1")
        assert bytes(store.read("a")) == b"1"
        assert not store.exists("b") and list(store.names()) == ["a"]
        store.delete("b")
        with pytest.raises(KeyError):
            store.read("b")
        assert os.listdir(temp_root) == []
        store.write("b", b"2")
        assert len(os.listdir(temp_root)) == 1

    def test_owned_directory_removed_when_collected(self, temp_root):
        store = DiskStore()
        store.write("a", b"1")
        assert len(os.listdir(temp_root)) == 1
        del store
        gc.collect()
        assert os.listdir(temp_root) == []

    def test_usable_again_after_close(self, temp_root):
        store = DiskStore()
        store.write("a", b"1")
        store.close()
        assert os.listdir(temp_root) == []
        assert not store.exists("a")
        store.write("a", b"22")
        assert store.read("a") == b"22" and store.size("a") == 2
        store.close()
        assert os.listdir(temp_root) == []

    def test_temporary_directory_removed_on_close(self):
        store = DiskStore()
        directory = store.directory
        store.write("a", b"1")
        assert os.path.isdir(directory)
        store.close()
        assert not os.path.isdir(directory)

    def test_user_directory_preserved_on_close(self, tmp_store_dir):
        store = DiskStore(tmp_store_dir)
        store.write("a", b"1")
        store.close()
        assert os.path.isdir(tmp_store_dir)

    def test_blob_name_with_separator_is_sanitized(self, tmp_store_dir):
        with DiskStore(tmp_store_dir) as store:
            store.write("a/b", b"1")
            assert store.read("a/b") == b"1"
