"""Unit tests for the pluggable persistence backends."""

import os
import threading
import zipfile

import pytest

from repro.storage.backends import (URL_SCHEMES, InMemoryBackend,
                                    LocalDirBackend, StorageBackend,
                                    ZipBackend, backend_for_url, parse_url)


@pytest.fixture(params=["local", "mem", "zip"])
def backend(request, tmp_path):
    if request.param == "local":
        return LocalDirBackend(str(tmp_path / "blobs"))
    if request.param == "mem":
        return InMemoryBackend()
    return ZipBackend(str(tmp_path / "blobs.zip"))


class TestBackendContract:
    """Every implementation satisfies the same observable contract."""

    def test_satisfies_protocol(self, backend):
        assert isinstance(backend, StorageBackend)

    def test_write_read_round_trip(self, backend):
        payload = b"\x00\x01binary\xff" * 100
        assert backend.write_bytes("a.bin", payload) == len(payload)
        assert backend.read_bytes("a.bin") == payload

    def test_overwrite_replaces(self, backend):
        backend.write_bytes("x", b"old")
        backend.write_bytes("x", b"new")
        assert backend.read_bytes("x") == b"new"

    def test_missing_blob_raises_keyerror(self, backend):
        with pytest.raises(KeyError, match="nope"):
            backend.read_bytes("nope")

    def test_list_is_sorted_names(self, backend):
        for name in ("c", "a", "b"):
            backend.write_bytes(name, b"!")
        assert backend.list() == ["a", "b", "c"]

    def test_exists_and_delete(self, backend):
        backend.write_bytes("gone", b"!")
        assert backend.exists("gone")
        backend.delete("gone")
        assert not backend.exists("gone")
        backend.delete("gone")  # absent delete is a no-op

    def test_rejects_path_traversal_names(self, backend):
        for bad in ("../escape", "a/b", "", "."):
            with pytest.raises(ValueError):
                backend.write_bytes(bad, b"!")

    def test_concurrent_writers_leave_whole_blobs(self, backend):
        payloads = [bytes([i]) * 4096 for i in range(8)]

        def write(i):
            for _ in range(5):
                backend.write_bytes("contested", payloads[i])

        threads = [threading.Thread(target=write, args=(i,))
                   for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        final = backend.read_bytes("contested")
        assert final in payloads  # one complete payload, never a tear


class TestLocalDirBackend:
    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        backend = LocalDirBackend(str(tmp_path))
        backend.write_bytes("blob", b"payload")
        assert backend.list() == ["blob"]
        assert sorted(os.listdir(tmp_path)) == ["blob"]

    def test_url(self, tmp_path):
        backend = LocalDirBackend(str(tmp_path))
        assert backend.url == f"file://{tmp_path}"


class TestInMemoryRegistry:
    def test_named_returns_same_container(self):
        a = InMemoryBackend.named("registry-test")
        b = InMemoryBackend.named("registry-test")
        assert a is b
        a.write_bytes("k", b"v")
        assert b.read_bytes("k") == b"v"
        InMemoryBackend.discard("registry-test")

    def test_discard_forgets(self):
        a = InMemoryBackend.named("registry-drop")
        a.write_bytes("k", b"v")
        InMemoryBackend.discard("registry-drop")
        assert not InMemoryBackend.named("registry-drop").exists("k")
        InMemoryBackend.discard("registry-drop")

    def test_anonymous_instances_are_private(self):
        assert InMemoryBackend()._blobs is not InMemoryBackend()._blobs


class TestZipBackend:
    def test_archive_is_a_real_zipfile(self, tmp_path):
        path = str(tmp_path / "store.zip")
        backend = ZipBackend(path)
        backend.write_bytes("one", b"1")
        backend.write_bytes("two", b"2")
        with zipfile.ZipFile(path) as archive:
            assert sorted(archive.namelist()) == ["one", "two"]
            assert archive.read("one") == b"1"

    def test_fresh_instance_sees_previous_writes(self, tmp_path):
        path = str(tmp_path / "store.zip")
        ZipBackend(path).write_bytes("k", b"v")
        assert ZipBackend(path).read_bytes("k") == b"v"

    def test_detects_external_rewrite(self, tmp_path):
        path = str(tmp_path / "store.zip")
        backend = ZipBackend(path)
        backend.write_bytes("k", b"old")
        other = ZipBackend(path)
        other.write_bytes("k", b"new")
        # Force a distinguishable stamp even on coarse mtime filesystems.
        os.utime(path, (1, 1))
        assert backend.read_bytes("k") == b"new"

    def test_batch_defers_to_one_flush(self, tmp_path, monkeypatch):
        path = str(tmp_path / "store.zip")
        backend = ZipBackend(path)
        flushes = []
        real_flush = ZipBackend._flush

        def counting_flush(self):
            flushes.append(1)
            real_flush(self)

        monkeypatch.setattr(ZipBackend, "_flush", counting_flush)
        with backend.batch():
            for i in range(10):
                backend.write_bytes(f"blob-{i}", bytes([i]))
            backend.delete("blob-0")
        assert len(flushes) == 1
        assert ZipBackend(path).list() == [f"blob-{i}" for i in range(1, 10)]

    def test_batch_abandons_staged_writes_on_error(self, tmp_path):
        path = str(tmp_path / "store.zip")
        backend = ZipBackend(path)
        backend.write_bytes("committed", b"1")
        with pytest.raises(RuntimeError):
            with backend.batch():
                backend.write_bytes("staged", b"2")
                raise RuntimeError("save failed")
        assert backend.list() == ["committed"]
        assert ZipBackend(path).list() == ["committed"]

    def test_delete_rewrites_archive(self, tmp_path):
        path = str(tmp_path / "store.zip")
        backend = ZipBackend(path)
        backend.write_bytes("keep", b"1")
        backend.write_bytes("drop", b"2")
        backend.delete("drop")
        with zipfile.ZipFile(path) as archive:
            assert archive.namelist() == ["keep"]


class TestUrlResolution:
    def test_schemes_constant(self):
        assert URL_SCHEMES == ("file", "mem", "zip", "http", "https",
                               "cached+http", "cached+https")

    @pytest.mark.parametrize("url,expected", [
        ("plain/path.dm", ("file", "plain/path.dm")),
        ("file:///abs/dir", ("file", "/abs/dir")),
        ("mem://scratch", ("mem", "scratch")),
        ("zip:///data/a.zip", ("zip", "/data/a.zip")),
    ])
    def test_parse(self, url, expected):
        assert parse_url(url) == expected

    def test_unknown_scheme_names_accepted(self):
        with pytest.raises(ValueError) as excinfo:
            parse_url("s3://bucket")
        message = str(excinfo.value)
        for scheme in ("file://", "mem://", "zip://"):
            assert scheme in message

    def test_backend_for_url_dispatch(self, tmp_path):
        assert isinstance(backend_for_url(str(tmp_path)), LocalDirBackend)
        assert isinstance(backend_for_url("mem://x"), InMemoryBackend)
        assert isinstance(backend_for_url(f"zip://{tmp_path}/a.zip"),
                          ZipBackend)

