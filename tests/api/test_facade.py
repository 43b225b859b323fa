"""`repro.open()` / `repro.build()` round-trips across every backend.

The acceptance matrix: one-shard and four-shard stores round-trip
through ``file://`` (bare path and URL form), ``mem://``, and ``zip://``
with bit-identical lookup results, and ``lookup_async`` under every
executor strategy matches synchronous ``lookup`` exactly.
"""

import os

import numpy as np
import pytest

import repro
from repro import DeepMapping
from repro.store import EXECUTOR_NAMES, describe_target

from .conftest import assert_same_result

BACKENDS = ("path", "file", "mem", "zip")


def target_url(kind, tmp_path, label):
    if kind == "path":
        return str(tmp_path / f"{label}.dms")
    if kind == "file":
        return f"file://{tmp_path}/{label}-store"
    if kind == "mem":
        return f"mem://facade-{label}-{os.path.basename(str(tmp_path))}"
    return f"zip://{tmp_path}/{label}.zip"


class TestRoundTrips:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_one_shard_round_trip(self, backend, tmp_path, one_shard,
                                  query_keys):
        url = target_url(backend, tmp_path, "one")
        nbytes = one_shard.save(url)
        assert nbytes > 0
        with repro.open(url) as clone:
            assert isinstance(clone, DeepMapping)
            assert clone.n_shards == 1
            assert_same_result(clone.lookup(query_keys),
                               one_shard.lookup(query_keys),
                               one_shard.value_names)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_sharded_round_trip(self, backend, tmp_path, sharded,
                                query_keys):
        url = target_url(backend, tmp_path, "shard")
        if backend == "path":
            url = str(tmp_path / "shard-store")
        nbytes = sharded.save(url)
        assert nbytes > 0
        with repro.open(url) as clone:
            assert isinstance(clone, DeepMapping)
            assert clone.n_shards == sharded.n_shards
            assert_same_result(clone.lookup(query_keys),
                               sharded.lookup(query_keys),
                               sharded.value_names)

    def test_zip_store_is_one_file(self, tmp_path, sharded):
        url = f"zip://{tmp_path}/whole.zip"
        sharded.save(url)
        assert os.path.isfile(tmp_path / "whole.zip")
        # Nothing else materialized: the archive is the entire store.
        assert sorted(os.listdir(tmp_path)) == ["whole.zip"]

    @pytest.mark.parametrize("kind", ("one", "sharded"))
    def test_zip_store_opens_by_bare_path(self, kind, tmp_path, one_shard,
                                          sharded, query_keys):
        # zip:// omitted on open: the archive is sniffed, not unpickled.
        source = one_shard if kind == "one" else sharded
        path = str(tmp_path / f"{kind}-bare.zip")
        source.save(f"zip://{path}")
        with repro.open(path) as clone:
            assert_same_result(clone.lookup(query_keys),
                               source.lookup(query_keys),
                               source.value_names)


class TestAsyncMatchesSync:
    @pytest.mark.parametrize("strategy", EXECUTOR_NAMES)
    @pytest.mark.parametrize("kind", ("one", "sharded"))
    @pytest.mark.parametrize("backend", ("file", "mem", "zip"))
    def test_lookup_async_matches_lookup(self, kind, strategy, backend,
                                         tmp_path, one_shard, sharded,
                                         query_keys):
        source = one_shard if kind == "one" else sharded
        url = target_url(backend, tmp_path, f"{kind}-{strategy}")
        source.save(url)
        with repro.open(url, executor=strategy) as store:
            future = store.lookup_async(query_keys)
            assert_same_result(future.result(timeout=30),
                               store.lookup(query_keys),
                               source.value_names)
            assert store.executor.name == strategy


class TestBuild:
    def test_build_one_shard_default(self, api_table):
        from ..core.conftest import fast_config
        store = repro.build(api_table, fast_config(epochs=3))
        assert isinstance(store, DeepMapping)
        assert store.n_shards == 1

    def test_build_shards_shorthand(self, api_table):
        from ..core.conftest import fast_config
        store = repro.build(api_table, fast_config(epochs=3), shards=3)
        assert isinstance(store, DeepMapping)
        assert store.n_shards == 3

    def test_build_conflicting_shard_counts_rejected(self, api_table):
        from repro import ShardingConfig
        with pytest.raises(ValueError, match="conflicting"):
            repro.build(api_table, sharding=ShardingConfig(n_shards=2),
                        shards=4)

    def test_build_persists_to_url(self, api_table, tmp_path):
        from ..core.conftest import fast_config
        url = f"zip://{tmp_path}/built.zip"
        store = repro.build(api_table, fast_config(epochs=3), url=url)
        clone = repro.open(url)
        key = int(api_table.column("key")[0])
        assert clone.lookup_one(key=key) == store.lookup_one(key=key)


class TestErrors:
    def test_open_missing_names_schemes(self, tmp_path):
        with pytest.raises(FileNotFoundError) as excinfo:
            repro.open(str(tmp_path / "nothing-here.dm"))
        message = str(excinfo.value)
        for scheme in ("file://", "mem://", "zip://"):
            assert scheme in message

    def test_open_directory_without_manifest(self, tmp_path):
        empty = tmp_path / "just-a-dir"
        empty.mkdir()
        with pytest.raises(FileNotFoundError, match="file://"):
            repro.open(str(empty))

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="accepted schemes"):
            repro.open("s3://bucket/key")

    def test_mem_url_requires_name(self):
        with pytest.raises(ValueError, match="store name"):
            repro.open("mem://")

    def test_non_store_file_gets_helpful_error(self, tmp_path):
        junk = tmp_path / "junk.dm"
        junk.write_bytes(b"definitely not a pickle payload")
        with pytest.raises(ValueError, match="not a store container"):
            repro.open(str(junk))


class TestDescribeTarget:
    def test_a_bare_path_save_is_a_directory(self, tmp_path, one_shard):
        path = str(tmp_path / "m.dm")
        one_shard.save(path)
        assert os.path.isdir(path)
        assert describe_target(path)[1] == "store"

    def test_classifies_store_dir(self, tmp_path, sharded):
        path = str(tmp_path / "s")
        sharded.save(path)
        assert describe_target(path)[1] == "store"

    def test_classifies_absent(self, tmp_path):
        assert describe_target(str(tmp_path / "nope")) == (None, "absent")
