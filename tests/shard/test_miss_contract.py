"""What a miss reads, and which dtype a column comes back in.

A miss reads its column's blank — the dtype's zero (``0``, ``''``,
``False``), or ``None`` for object columns — on every path: a key the
sharded store's ``V_exist`` prunes (in a miss-heavy batch or a
hit-heavy one), a key of an empty shard's range, a key a shard's own
plan rejects, and a response on the wire.  A sharded
store answers each column in one dtype, ``value_dtype``, whichever
shards a batch touches, and across save and every reopen.

The table is key-correlated on purpose: each range shard's smallest
value (what a miss used to read) differs from the other's and from the
blank.
"""

import json

import numpy as np
import pytest

import repro
from repro.core.plan import blank
from repro.data import ColumnTable
from repro.serve import BackgroundTCPServer
from repro.shard import DeepMapping, ShardingConfig
from repro.storage import LocalDirBackend
from repro.storage.blob_cache import payload_cache
from repro.testing import serve_backend
from repro.testing.oracles import barrier_lookup

from ..core.conftest import fast_config

#: Even keys live; odd keys are in-domain misses.
KEYS = np.arange(0, 800, 2, dtype=np.int64)


def correlated_table() -> ColumnTable:
    return ColumnTable(
        {"key": KEYS,
         "v": KEYS // 100 + 1,
         "s": np.array([f"s{k // 200}" for k in KEYS])},
        key=("key",), name="correlated")


@pytest.fixture
def store():
    built = DeepMapping.fit(correlated_table(), fast_config(epochs=3),
                                   ShardingConfig(n_shards=2))
    yield built
    built.close()


def assert_blank_misses(result):
    for column in result.values.values():
        misses = column[~result.found]
        assert misses.tolist() == blank(misses.size, column.dtype).tolist()


class TestMissReadsBlank:
    def test_blank_per_dtype(self):
        assert blank(2, np.int64).tolist() == [0, 0]
        assert blank(2, np.dtype("<U3")).tolist() == ["", ""]
        assert blank(2, bool).tolist() == [False, False]
        assert blank(2, object).tolist() == [None, None]

    def test_pruned_misses(self, store):
        misses = {"key": KEYS[:40] + 1}
        before = store.stats.counters.get("pruned_keys", 0)
        result = store.lookup(misses)
        assert store.stats.counters.get("pruned_keys", 0) - before == 40
        assert not result.found.any()
        assert result.values["v"].tolist() == [0] * 40
        assert result.values["s"].tolist() == [""] * 40

    def test_hit_heavy_misses_are_pruned_too(self, store):
        # The store's one V_exist answers every miss before routing,
        # however few there are.
        keys = np.concatenate([KEYS[::10], [1, 3, 601, 603]])
        before = store.stats.counters.get("pruned_keys", 0)
        result = store.lookup({"key": keys})
        assert store.stats.counters.get("pruned_keys", 0) - before == 4
        assert result.found.tolist() == [True] * 40 + [False] * 4
        assert result.values["v"][-4:].tolist() == [0] * 4
        assert result.values["s"][-4:].tolist() == [""] * 4
        assert result.values["s"][:40].tolist() == \
            correlated_table().column("s")[::10].tolist()

    def test_empty_shard_keys_read_what_a_live_miss_reads(
            self, two_group_table):
        sharded = DeepMapping.fit(
            two_group_table, fast_config(epochs=3),
            ShardingConfig(n_shards=4))
        assert 0 in sharded.shard_row_counts()
        # Hits, a live shard's miss (grp 0, sub 999) and a key routed to
        # an empty shard (grp 5).
        probe = {"grp": np.array([0, 1, 0, 1, 0, 5], dtype=np.int64),
                 "sub": np.array([0, 1, 2, 3, 999, 0], dtype=np.int64)}
        result = sharded.lookup(probe)
        assert result.found.tolist() == [True] * 4 + [False] * 2
        assert result.values["status"][-2:].tolist() == ["", ""]
        assert_blank_misses(barrier_lookup(sharded, probe))

    def test_wire_misses_read_blank(self, store):
        with BackgroundTCPServer(store) as server, server.connect() as tcp:
            response = tcp.lookup({"key": [1, 0, 603, 10 ** 6]})
        assert response["found"] == [False, True, False, False]
        assert response["values"]["v"] == [0, 1, 0, 0]
        assert response["values"]["s"] == ["", "s0", "", ""]


class TestOneDtypePerColumn:
    @staticmethod
    def widen(store):
        """Give one key of shard 0 a longer string than any shard had."""
        store.update({"key": np.array([0]), "v": np.array([1]),
                      "s": np.array(["s0-longer"])})

    #: Hits and misses owned by shard 1 only, which never saw the value.
    SHARD_1 = {"key": np.array([600, 601, 798, 10 ** 6], dtype=np.int64)}

    def test_update_widens_a_batch_that_misses_the_shard(self, store):
        assert store.value_dtype("s") == np.dtype("<U2")
        self.widen(store)
        assert store.value_dtype("s") == np.dtype("<U9")
        # One decode map for every shard: shard 1 decodes the new value
        # too, though none of its rows holds it.
        assert all(shard.model.fdecode is store.model.fdecode
                   for shard in store.shards)
        for keys in (self.SHARD_1, {"key": np.zeros(0, dtype=np.int64)}):
            for result in (store.lookup(keys), barrier_lookup(store, keys)):
                assert result.values["s"].dtype == np.dtype("<U9")
                assert result.values["v"].dtype == np.dtype(np.int64)
        assert store.lookup_one(key=0)["s"] == "s0-longer"

    def test_insert_widens_too(self, store):
        store.insert({"key": np.array([1001]), "v": np.array([2.5]),
                      "s": np.array(["fresh-and-long"])})
        assert store.value_dtype("v") == np.dtype(np.float64)
        assert store.value_dtype("s") == np.dtype("<U14")
        result = store.lookup(self.SHARD_1)
        assert result.values["v"].dtype == np.dtype(np.float64)
        assert result.values["s"].dtype == np.dtype("<U14")

    @pytest.mark.parametrize("mode", ["writable", "read-only", "http"])
    def test_widened_dtype_survives_reopen(self, store, tmp_path, mode):
        self.widen(store)
        path = str(tmp_path / "store")
        store.save(path)
        payload_cache().clear()
        if mode == "http":
            with serve_backend(LocalDirBackend(path, create=False)) as server:
                reopened = repro.open(server.url)
                result = reopened.lookup(self.SHARD_1)
                reopened.close()
        else:
            reopened = repro.open(path, writable=(mode == "writable"))
            result = reopened.lookup(self.SHARD_1)
            assert reopened.lookup_one(key=0)["s"] == "s0-longer"
            reopened.close()
        payload_cache().clear()
        assert result.values["s"].dtype == np.dtype("<U9")
        assert result.found.tolist() == [True, False, True, False]
        assert result.values["s"].tolist() == ["s3", "", "s3", ""]


class TestManifestVersion:
    def test_fresh_manifest_is_version_4_without_prune_meta(self, tmp_path):
        # Both shards share one smallest value per column, the case the
        # removed prune metadata was written for.
        table = ColumnTable({"key": KEYS, "v": KEYS % 3},
                            key=("key",), name="uniform")
        sharded = DeepMapping.fit(table, fast_config(epochs=2),
                                         ShardingConfig(n_shards=2))
        path = tmp_path / "store"
        sharded.save(str(path))
        sharded.close()
        manifest = json.loads((path / "manifest.json").read_text())
        assert manifest["version"] == 4
        assert "prune_meta" not in manifest
        assert "store_filter" not in manifest
        assert manifest["value_dtypes"] == {"v": "<i8"}

    @pytest.mark.parametrize("writable", [True, False])
    @pytest.mark.parametrize("version, last_reader",
                             [(1, "798b592"), (2, "b095e50")])
    def test_older_manifest_is_refused(self, store, tmp_path, writable,
                                       version, last_reader):
        path = tmp_path / "store"
        store.save(str(path))
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["version"] = version
        (path / "manifest.json").write_text(json.dumps(manifest))
        payload_cache().clear()
        with pytest.raises(ValueError, match=f"commit {last_reader}") \
                as info:
            repro.open(str(path), writable=writable)
        assert not isinstance(info.value, repro.StoreCorruptedError)
