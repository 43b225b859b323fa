"""Tests for the store manifest format."""

import json

import pytest

from repro.shard import MANIFEST_NAME, ShardEntry, ShardManifest
from repro.storage import LocalDirBackend


def sample_manifest():
    return ShardManifest(
        router={"kind": "range", "key_names": ["key"], "n_shards": 3,
                "cuts": [10, 20]},
        key_names=["key"],
        value_names=["v0", "v1"],
        value_dtypes={"v0": "<i8", "v1": "<U4"},
        shards=[
            ShardEntry(file="shard-0000.dm", n_rows=10, n_bytes=1234),
            ShardEntry(file=None),
            ShardEntry(file="shard-0002.dm", n_rows=5, n_bytes=567),
        ],
        sharding={"strategy": "range", "n_shards": 3,
                  "pool_budget_bytes": None},
    )


class TestRoundTrip:
    def test_json_round_trip(self):
        manifest = sample_manifest()
        restored = ShardManifest.from_json(manifest.to_json())
        assert restored.key_names == ["key"]
        assert restored.value_dtypes == {"v0": "<i8", "v1": "<U4"}
        assert restored.n_shards == 3
        assert restored.shards[1].file is None
        assert restored.shards[2].n_bytes == 567

    def test_disk_round_trip(self, tmp_path):
        manifest = sample_manifest()
        nbytes = manifest.save_to(LocalDirBackend(str(tmp_path)))
        assert nbytes > 0
        restored = ShardManifest.load_from(
            LocalDirBackend(str(tmp_path), create=False))
        assert restored.to_json() == manifest.to_json()

    def test_file_is_readable_json(self, tmp_path):
        sample_manifest().save_to(LocalDirBackend(str(tmp_path)))
        with open(tmp_path / MANIFEST_NAME) as handle:
            obj = json.load(handle)
        assert obj["format"] == "sharded-deepmapping"


class TestValidation:
    def test_rejects_foreign_format(self):
        with pytest.raises(ValueError, match="not a sharded-deepmapping"):
            ShardManifest.from_json({"format": "something-else"})

    def test_rejects_future_version(self):
        obj = sample_manifest().to_json()
        obj["version"] = 999
        with pytest.raises(ValueError, match="newer"):
            ShardManifest.from_json(obj)
