"""End-to-end corruption detection: a flipped byte anywhere in a
persisted store must surface as a typed :class:`StoreCorruptedError` —
never a silent wrong answer, never a raw ``struct.error`` — and absent
blobs must surface as :class:`StoreNotFoundError` naming blob and URL.
"""

import json
import os
import pickle
import struct

import numpy as np
import pytest

import repro
from repro.resilience import StoreCorruptedError, StoreNotFoundError
from repro.storage import zerocopy
from repro.storage.backends import (InMemoryBackend, LocalDirBackend,
                                    ZipBackend)
from repro.storage.blob_cache import BlobCache
from repro.storage.hydration import SNIFF_BYTES, RangeReader
from repro.testing import FaultInjectingBackend


@pytest.fixture
def table():
    keys = np.arange(256, dtype=np.int64)
    return repro.ColumnTable(
        {"sku": keys, "price": (keys * 7) % 101}, key=("sku",))


def build_monolithic(table, path: str) -> None:
    repro.build(table, repro.DeepMappingConfig(epochs=1, seed=0),
                url=path).close()


def flip_file_byte(path, position: int) -> None:
    payload = bytearray(path.read_bytes())
    payload[position] ^= 0xFF
    path.write_bytes(bytes(payload))


def flip_blob_byte(backend, name: str, position: int) -> None:
    payload = bytearray(backend.read_bytes(name))
    payload[position] ^= 0xFF
    backend.write_bytes(name, bytes(payload))


class TestMonolithicCorruption:
    @pytest.mark.parametrize("where", ["head", "middle", "tail"])
    def test_single_flipped_byte_is_caught(self, tmp_path, table, where):
        path = tmp_path / "store.dm"
        build_monolithic(table, str(path))
        size = len(path.read_bytes())
        position = {"head": len(zerocopy.MAGIC) + 1,
                    "middle": size // 2,
                    "tail": size - 9}[where]
        flip_file_byte(path, position)
        with pytest.raises(StoreCorruptedError):
            repro.open(str(path))

    def test_truncated_payload_is_caught(self, tmp_path, table):
        path = tmp_path / "store.dm"
        build_monolithic(table, str(path))
        payload = path.read_bytes()
        path.write_bytes(payload[:len(payload) // 2])
        with pytest.raises(StoreCorruptedError):
            repro.open(str(path))

    def test_error_is_still_an_unpickling_error(self, tmp_path, table):
        # The pre-resilience facade caught pickle.UnpicklingError; the
        # typed error must remain catchable there.
        import pickle
        path = tmp_path / "store.dm"
        build_monolithic(table, str(path))
        flip_file_byte(path, len(path.read_bytes()) // 2)
        with pytest.raises(pickle.UnpicklingError):
            repro.open(str(path))

    @pytest.mark.parametrize("writable", [False, True])
    def test_flipped_byte_in_an_aux_partition_names_its_segment(
            self, tmp_path, table, writable):
        # T_aux is saved as compressed partitions, one container segment
        # each; damage inside one must be caught by that segment's CRC at
        # open, not by a decompressor at some later lookup.
        path = tmp_path / "store.dm"
        build_monolithic(table, str(path))
        payload = path.read_bytes()
        with repro.open(str(path)) as store:
            blob = bytes(store.aux._store.partitions[-1].blob)
        start = payload.find(blob)
        assert start > 0 and payload.count(blob) == 1
        segments = zerocopy.parse_index(payload, len(payload)).segments
        n_segments = len(segments)
        segment = segments.index((start, start + len(blob)))
        flip_file_byte(path, start + len(blob) // 2)
        with pytest.raises(
                StoreCorruptedError,
                match=f"segment {segment} of {n_segments} failed checksum"):
            repro.open(str(path), writable=writable)

    @pytest.mark.parametrize("writable", [False, True])
    def test_flipped_byte_in_a_packed_weight_segment_names_its_segment(
            self, tmp_path, table, writable):
        # Bit-packed weights have no redundancy of their own — any byte
        # is a valid run of k-bit levels — so the segment CRC is what
        # stands between a flipped bit and a silently different model.
        path = tmp_path / "store.dm"
        build_monolithic(table, str(path))
        payload = path.read_bytes()
        with repro.open(str(path)) as store:
            assert store.session.bits is not None
            packed = max((layer[0] for layer in store.session._shared),
                         key=lambda array: array.nbytes)
            assert packed.dtype == np.uint8 and packed.ndim == 1
            blob = packed.tobytes()
        start = payload.find(blob)
        assert start > 0 and payload.count(blob) == 1
        segments = zerocopy.parse_index(payload, len(payload)).segments
        segment = segments.index((start, start + len(blob)))
        flip_file_byte(path, start + len(blob) // 2)
        with pytest.raises(
                StoreCorruptedError,
                match=f"segment {segment} of {len(segments)} "
                      "failed checksum"):
            repro.open(str(path), writable=writable)

    def test_healthy_reopen_unaffected(self, tmp_path, table):
        url = str(tmp_path / "store.dm")
        store = repro.build(table, repro.DeepMappingConfig(epochs=1, seed=0),
                            url=url)
        want = store.lookup({"sku": np.arange(64, dtype=np.int64)})
        store.close()
        with repro.open(url) as reopened:
            got = reopened.lookup({"sku": np.arange(64, dtype=np.int64)})
        assert np.array_equal(got.found, want.found)
        assert np.array_equal(got.values["price"], want.values["price"])


def recompressed(codec, blob, edit):
    return pickle.PickleBuffer(codec.compress(edit(codec.decompress(blob))))


#: Damage a CRC cannot see: the container is re-packed around it, so the
#: segment checksums hold and only the partition decoder can refuse it.
#: name -> (list in the fence index, edit of its last entry)
AUX_DAMAGE = {
    "truncated segment": ("partitions", lambda blob, codec:
                          pickle.PickleBuffer(bytes(blob)[:-5])),
    "short partition": ("partitions", lambda blob, codec:
                        recompressed(codec, blob, lambda raw: raw[:-1])),
    "padded partition": ("partitions", lambda blob, codec:
                         recompressed(codec, blob, lambda raw: raw + b"\0")),
    "gap width": ("gap_widths", lambda width, codec: 2 * width),
    "unknown gap width": ("gap_widths", lambda width, codec: 3),
    "row count": ("n_rows", lambda n_rows, codec: n_rows + 1),
    "first key": ("first_keys", lambda key, codec: key - 1),
}


class TestDamagedAuxPartition:
    """A partition whose bytes are intact but do not decode to what its
    fence says fails the lookup that faults it in, typed and naming the
    partition by ordinal and key range — never garbage, never an ``IndexError`` — in both open modes,
    after the pool's one retry."""

    @pytest.mark.parametrize("writable", [False, True])
    @pytest.mark.parametrize("damage", sorted(AUX_DAMAGE))
    def test_lookup_refuses_and_names_the_partition(
            self, tmp_path, table, damage, writable):
        path = tmp_path / "store.dm"
        build_monolithic(table, str(path))
        with repro.open(str(path)) as store:
            state = zerocopy.unpack(store.to_payload())
            state["aux_v2"] = store.aux.to_state()  # re-packable segments
            # Named by ordinal and (as the damaged fence reads) key range.
            named = rf"partition {len(store.aux._store.partitions) - 1} " \
                    r"\(keys -?\d+\.\.-?\d+\)"
            field, edit = AUX_DAMAGE[damage]
            entries = state["aux_v2"]["store"][field]
            entries[-1] = edit(entries[-1], store.aux._store.codec)
        path.write_bytes(bytes(zerocopy.pack(state)))
        with repro.open(str(path), writable=writable) as damaged:
            with pytest.raises(StoreCorruptedError, match=named):
                damaged.lookup({"sku": np.arange(256, dtype=np.int64)})
            assert damaged.aux.pool.stats.counters[
                "pool_corruption_retries"] == 1


def build_sharded(table, url: str, seed: int = 0) -> None:
    repro.build(table, repro.DeepMappingConfig(epochs=1, seed=seed),
                shards=2, url=url).close()


def flip_at(payload, position: int) -> bytes:
    payload = bytearray(payload)
    payload[position] ^= 0xFF
    return bytes(payload)


#: Bytes of a sharded store's model or existence blob that decode to no
#: layout at all, as ``edit(backend, raw, other_blob)``: each must be
#: refused as a blob the manifest does not name.
FOREIGN_BYTES = {
    "empty": lambda backend, raw, other: b"",
    "magic flipped": lambda backend, raw, other: flip_at(raw, 0),
    "the other store blob": lambda backend, raw, other:
        backend.read_bytes(other),
    "a shard blob": lambda backend, raw, other:
        backend.read_bytes("shard-0000.dm"),
}

#: Damage to ``exist.rzc``, edited like :data:`FOREIGN_BYTES`: torn,
#: grown or flipped containers as well as the foreign bytes.
EXIST_DAMAGE = {
    "truncated to half": lambda backend, raw, other: raw[:len(raw) // 2],
    "header only": lambda backend, raw, other:
        raw[:len(zerocopy.MAGIC) + 4],
    "one byte appended": lambda backend, raw, other: raw + b"\0",
    "last byte flipped": lambda backend, raw, other:
        flip_at(raw, len(raw) - 1),
    **FOREIGN_BYTES,
}

#: Edits to the manifest's ``exist_crc``: an open must then refuse the
#: intact ``exist.rzc`` as not the blob the manifest names.
EXIST_CRC_DAMAGE = {
    "missing": lambda manifest: manifest.pop("exist_crc"),
    "a string": lambda manifest: manifest.update(exist_crc="0"),
    "off by one": lambda manifest: manifest.update(
        exist_crc=manifest["exist_crc"] + 1),
    "the model's": lambda manifest: manifest.update(
        exist_crc=manifest["model_crc"]),
}


class TestShardedCorruption:
    def test_flipped_byte_in_one_shard_payload(self, tmp_path, table):
        url = str(tmp_path / "sharded")
        repro.build(table, repro.DeepMappingConfig(epochs=1, seed=0),
                    shards=4, url=url).close()
        backend = LocalDirBackend(url)
        shard_blobs = sorted(n for n in backend.list()
                             if n.startswith("shard-"))
        assert shard_blobs
        flip_blob_byte(backend, shard_blobs[0],
                       len(backend.read_bytes(shard_blobs[0])) // 2)
        with pytest.raises(StoreCorruptedError):
            repro.open(url)

    @pytest.mark.parametrize("writable", [True, False])
    def test_flipped_byte_in_the_model_blob(self, tmp_path, table, writable):
        # Every shard answers through the one model: damage to it must
        # fail the open, not read back as wrong values from every shard.
        url = str(tmp_path / "sharded")
        repro.build(table, repro.DeepMappingConfig(epochs=1, seed=0),
                    shards=4, url=url).close()
        backend = LocalDirBackend(url)
        flip_blob_byte(backend, "model.rzc",
                       len(backend.read_bytes("model.rzc")) // 2)
        with pytest.raises(StoreCorruptedError, match="checksum"):
            repro.open(url, writable=writable)

    @pytest.mark.parametrize("writable", [True, False])
    @pytest.mark.parametrize("damage", sorted(FOREIGN_BYTES))
    def test_foreign_bytes_in_the_model_blob_are_corruption(
            self, tmp_path, table, damage, writable):
        # Bytes that are not the model blob the manifest names fail the
        # open as corruption naming the blob, never as a ValueError
        # about an older layout to migrate from.
        url = str(tmp_path / "sharded")
        build_sharded(table, url)
        backend = LocalDirBackend(url)
        backend.write_bytes("model.rzc", FOREIGN_BYTES[damage](
            backend, backend.read_bytes("model.rzc"), "exist.rzc"))
        with pytest.raises(StoreCorruptedError, match=r"model\.rzc"):
            repro.open(url, writable=writable)

    @pytest.mark.parametrize("writable", [True, False])
    def test_missing_model_blob_names_blob_and_url(self, tmp_path, table,
                                                   writable):
        url = str(tmp_path / "sharded")
        repro.build(table, repro.DeepMappingConfig(epochs=1, seed=0),
                    shards=2, url=url).close()
        (tmp_path / "sharded" / "model.rzc").unlink()
        with pytest.raises(StoreNotFoundError,
                           match=r"model\.rzc.*sharded"):
            repro.open(url, writable=writable)

    def test_corrupt_manifest_names_blob_and_url(self, tmp_path, table):
        url = str(tmp_path / "sharded")
        repro.build(table, repro.DeepMappingConfig(epochs=1, seed=0),
                    shards=2, url=url).close()
        backend = LocalDirBackend(url)
        backend.write_bytes("manifest.json", b"{not json")
        with pytest.raises(StoreCorruptedError, match="manifest.json"):
            repro.open(url)

    def test_wrong_format_manifest_is_corruption(self, tmp_path, table):
        url = str(tmp_path / "sharded")
        repro.build(table, repro.DeepMappingConfig(epochs=1, seed=0),
                    shards=2, url=url).close()
        backend = LocalDirBackend(url)
        backend.write_bytes("manifest.json",
                            json.dumps({"format": "who-knows"}).encode())
        with pytest.raises(StoreCorruptedError):
            repro.open(url)


class TestDamagedExistenceBlob:
    """``exist.rzc`` is the store's one ``V_exist``: every miss is
    answered from it alone, so damage to it, its absence or a copy from
    another save must fail the open — never load into an index that
    calls stored keys absent (or absent keys stored)."""

    @pytest.mark.parametrize("writable", [True, False])
    def test_flipped_byte_is_corruption(self, tmp_path, table, writable):
        url = str(tmp_path / "sharded")
        build_sharded(table, url)
        backend = LocalDirBackend(url)
        flip_blob_byte(backend, "exist.rzc",
                       len(backend.read_bytes("exist.rzc")) // 2)
        with pytest.raises(StoreCorruptedError):
            repro.open(url, writable=writable)

    @pytest.mark.parametrize("writable", [True, False])
    @pytest.mark.parametrize("damage", sorted(EXIST_DAMAGE))
    def test_damaged_blob_is_corruption(self, tmp_path, table, damage,
                                        writable):
        url = str(tmp_path / "sharded")
        build_sharded(table, url)
        backend = LocalDirBackend(url)
        backend.write_bytes("exist.rzc", EXIST_DAMAGE[damage](
            backend, backend.read_bytes("exist.rzc"), "model.rzc"))
        with pytest.raises(StoreCorruptedError) as info:
            repro.open(url, writable=writable)
        if damage in FOREIGN_BYTES:
            assert "exist.rzc" in str(info.value)

    @pytest.mark.parametrize("writable", [True, False])
    @pytest.mark.parametrize("damage", sorted(EXIST_CRC_DAMAGE))
    def test_manifest_exist_crc_must_name_the_blob(self, tmp_path, table,
                                                   damage, writable):
        url = str(tmp_path / "sharded")
        build_sharded(table, url)
        backend = LocalDirBackend(url)
        manifest = json.loads(backend.read_bytes("manifest.json"))
        EXIST_CRC_DAMAGE[damage](manifest)
        backend.write_bytes("manifest.json", json.dumps(manifest).encode())
        with pytest.raises(StoreCorruptedError,
                           match=r"exist\.rzc is not the existence index"):
            repro.open(url, writable=writable)

    @pytest.mark.parametrize("writable", [True, False])
    def test_missing_blob_names_blob_and_url(self, tmp_path, table,
                                             writable):
        url = str(tmp_path / "sharded")
        build_sharded(table, url)
        (tmp_path / "sharded" / "exist.rzc").unlink()
        with pytest.raises(StoreNotFoundError,
                           match=r"exist\.rzc.*sharded"):
            repro.open(url, writable=writable)

    @pytest.mark.parametrize("writable", [True, False])
    def test_blob_from_another_save_is_refused(self, tmp_path, table,
                                               writable):
        url = str(tmp_path / "sharded")
        build_sharded(table, url)
        other = str(tmp_path / "other")
        smaller = repro.ColumnTable(
            {name: table.column(name)[::2] for name in ("sku", "price")},
            key=("sku",))
        build_sharded(smaller, other)
        LocalDirBackend(url).write_bytes(
            "exist.rzc", LocalDirBackend(other).read_bytes("exist.rzc"))
        with pytest.raises(StoreCorruptedError, match="exist.rzc"):
            repro.open(url, writable=writable)

    @pytest.mark.parametrize("writable", [True, False])
    def test_version_3_manifest_is_refused(self, tmp_path, table, writable):
        url = str(tmp_path / "sharded")
        build_sharded(table, url)
        backend = LocalDirBackend(url)
        manifest = json.loads(backend.read_bytes("manifest.json"))
        manifest["version"] = 3
        backend.write_bytes("manifest.json", json.dumps(manifest).encode())
        with pytest.raises(ValueError, match="commit 876da1c") as info:
            repro.open(url, writable=writable)
        assert not isinstance(info.value, StoreCorruptedError)


class TestNotFound:
    def test_missing_blob_names_blob_and_url(self, tmp_path):
        backend = LocalDirBackend(str(tmp_path))
        with pytest.raises(StoreNotFoundError) as info:
            backend.read_bytes("absent.bin")
        message = str(info.value)
        assert "absent.bin" in message
        assert backend.url in message

    def test_memory_and_zip_backends_agree(self, tmp_path):
        memory = InMemoryBackend()
        with pytest.raises(StoreNotFoundError, match="nothing"):
            memory.read_bytes("nothing")
        archive = ZipBackend(str(tmp_path / "store.zip"))
        archive.write_bytes("present", b"x")
        with pytest.raises(StoreNotFoundError, match="gone"):
            archive.read_bytes("gone")

    def test_open_absent_store_is_not_found(self, tmp_path):
        with pytest.raises(StoreNotFoundError):
            repro.open(str(tmp_path / "never-built"))
        # and still a FileNotFoundError for pre-resilience callers
        with pytest.raises(FileNotFoundError):
            repro.open(str(tmp_path / "never-built"))

    def test_unreadable_zip_is_corruption(self, tmp_path):
        path = tmp_path / "broken.zip"
        path.write_bytes(b"PK\x03\x04 this is no longer a zip")
        with pytest.raises(StoreCorruptedError):
            ZipBackend(str(path)).read_bytes("anything")

    def test_transient_zip_oserror_is_not_corruption(self, tmp_path,
                                                     monkeypatch):
        # EIO/EACCES while opening the archive is a transient I/O fault
        # ResilientBackend should retry — labeling it corruption put it
        # in the give-up class and made it permanently unretryable.
        path = tmp_path / "store.zip"
        ZipBackend(str(path)).write_bytes("blob", b"payload")
        fresh = ZipBackend(str(path))  # cold cache: must touch disk

        def flaky_open(*args, **kwargs):
            raise OSError(5, "Input/output error")

        monkeypatch.setattr("repro.storage.backends.zipfile.ZipFile",
                            flaky_open)
        with pytest.raises(OSError) as info:
            fresh.read_bytes("blob")
        assert not isinstance(info.value, StoreCorruptedError)
        assert info.value.errno == 5


class TestReadSideRetry:
    def test_blob_cache_retries_torn_read_once(self, table):
        # A corrupt first read followed by a clean re-read (the torn-read
        # race with an atomic replace) must heal invisibly.
        backend = InMemoryBackend()
        payload = zerocopy.pack({"arr": np.arange(32)})
        backend.write_bytes("blob", payload)
        flaky = FaultInjectingBackend(backend)
        cache = BlobCache(budget_bytes=None)
        attempts = []

        def loader(version):
            raw = flaky.read_bytes("blob")
            if not attempts:
                raw = flaky.corrupt_byte(raw, position=len(raw) // 2)
            attempts.append(1)
            return zerocopy.unpack(raw), len(raw)

        state = cache.get(flaky, "blob", loader)
        assert np.array_equal(state["arr"], np.arange(32))
        assert len(attempts) == 2
        assert cache.corruption_retries == 1

    def test_persistent_corruption_propagates_typed(self, table):
        backend = InMemoryBackend()
        payload = bytearray(zerocopy.pack({"arr": np.arange(32)}))
        payload[len(payload) // 2] ^= 0xFF
        backend.write_bytes("blob", bytes(payload))
        cache = BlobCache(budget_bytes=None)

        def loader(version):
            raw = backend.read_bytes("blob")
            return zerocopy.unpack(raw), len(raw)

        with pytest.raises(StoreCorruptedError):
            cache.get(backend, "blob", loader)
        assert cache.corruption_retries == 1  # retried once, then raised


def slot_position(i: int) -> int:  # of slot i's (offset, length) pair
    return len(zerocopy.MAGIC) + 16 + 16 * i


def damaged_index(kind: str) -> bytes:
    """A four-segment container whose index alone is damaged as named."""
    blob = bytearray(zerocopy.pack(
        {f"a{i}": np.arange(1000 + i, dtype=np.int64) for i in range(4)}))
    assert len(blob) > 4 * SNIFF_BYTES
    slots = [struct.unpack_from("<QQ", blob, slot_position(i))
             for i in range(4)]
    (off1, len1), (off2, len2) = slots[1], slots[2]
    if kind == "giant length":
        struct.pack_into("<QQ", blob, slot_position(1), off1, 1 << 42)
    elif kind == "unaligned":
        struct.pack_into("<QQ", blob, slot_position(1), off1 + 8, len1 - 8)
    elif kind == "overlapping":
        struct.pack_into("<QQ", blob, slot_position(2), off2 - 64, len2)
    elif kind == "out of order":
        struct.pack_into("<QQ", blob, slot_position(1), off2, len2)
        struct.pack_into("<QQ", blob, slot_position(2), off1, len1)
    elif kind == "past the end":
        del blob[-100:]
    elif kind == "giant segment count":
        struct.pack_into("<Q", blob, len(zerocopy.MAGIC), 1 << 60)
    return bytes(blob)


class TestDamagedSlotTable:
    """The index is checked against the blob's length before anything is
    sliced or allocated, by a range reader (naming the blob) and unpack."""

    @pytest.mark.parametrize("kind", [
        "giant length", "unaligned", "overlapping", "out of order",
        "past the end", "giant segment count"])
    def test_range_reader_and_unpack_refuse(self, kind):
        backend = InMemoryBackend()
        blob = damaged_index(kind)
        backend.write_bytes("shard-0000.dm", blob)
        with pytest.raises(StoreCorruptedError, match="shard-0000.dm"):
            RangeReader(backend, "shard-0000.dm")
        with pytest.raises(StoreCorruptedError):
            zerocopy.unpack(blob)


class TestRetiredMagic:
    def test_relabelled_flipped_container_cannot_load(self, tmp_path,
                                                      table):
        # The pre-checksum container (same layout, no CRC footer, another
        # magic) loaded with damage inside a segment.  Nothing reads it now.
        path = tmp_path / "store.dm"
        build_monolithic(table, str(path))
        payload = path.read_bytes()
        index = zerocopy.parse_index(payload, len(payload))
        relabelled = bytearray(
            b"RZC1" + payload[4:index.footer[0]])
        start, end = index.segments[0]
        relabelled[(start + end) // 2] ^= 0xFF
        path.write_bytes(bytes(relabelled))
        with pytest.raises(StoreCorruptedError, match="bad magic"):
            zerocopy.unpack(bytes(relabelled))
        for writable in (True, False):
            with pytest.raises(ValueError, match="re-save it at commit"):
                repro.open(str(path), writable=writable)


class TestDurability:
    def test_write_is_atomic_and_dir_synced(self, tmp_path):
        # Behavioral floor for the fsync-the-directory change: the write
        # goes through the temp-file + rename path, leaves no temp
        # droppings, and the payload is durable and byte-exact.
        backend = LocalDirBackend(str(tmp_path / "container"))
        backend.write_bytes("blob.bin", b"\x00" * 1024)
        backend.write_bytes("blob.bin", b"replacement")
        files = os.listdir(str(tmp_path / "container"))
        assert files == ["blob.bin"]  # no orphaned temp files
        assert backend.read_bytes("blob.bin") == b"replacement"
