"""One model per table: the sharded store trains once, and only a
retrain trains again.

A split, a merge, an insert into an empty shard and an append past the
leading key's max all materialize shards under the store's one model;
``Trainer.fit`` never runs for them.  The store's model bytes are a
single fit's, whatever the shard count.
"""

import numpy as np
import pytest

import repro
from repro import DeepMapping
from repro.data import ColumnTable, synthetic
from repro.core.persistence import blob_crc
from repro.lifecycle import LifecycleConfig
from repro.nn.training import Trainer
from repro.resilience import StoreCorruptedError
from repro.shard import ShardedDeepMapping, ShardingConfig, ShardManifest
from repro.storage import (InMemoryBackend, LocalDirBackend, MONOLITHIC_BLOB,
                           payload_cache, zerocopy)
from repro.testing import serve_backend

from ..core.conftest import fast_config


@pytest.fixture
def fits(monkeypatch):
    """The list of ``Trainer.fit`` calls made from here on."""
    calls = []
    original = Trainer.fit

    def counting(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Trainer, "fit", counting)
    return calls


def lookup_matches(store, table):
    result = store.lookup(table)
    assert result.found.all()
    for column in store.value_names:
        np.testing.assert_array_equal(result.values[column],
                                      table.column(column))


def test_nothing_outside_a_retrain_trains(two_group_table, fits):
    config = fast_config(epochs=2)
    store = ShardedDeepMapping.fit(two_group_table, config,
                                   ShardingConfig(n_shards=4))
    assert len(fits) == 1  # the one model
    assert store.shards[2] is None and store.shards[3] is None
    fits.clear()

    # Past the leading key's max, into the empty last shard.
    appended = ColumnTable({"grp": np.full(40, 3, dtype=np.int64),
                            "sub": np.arange(40, dtype=np.int64),
                            "status": np.array(["B"] * 40)},
                           key=("grp", "sub"))
    store.insert(appended)
    # In the domain now, into the empty shard between.
    gap = ColumnTable({"grp": np.full(30, 2, dtype=np.int64),
                       "sub": np.arange(30, dtype=np.int64),
                       "status": np.array(["C"] * 30)},
                      key=("grp", "sub"))
    store.insert(gap)
    store.merge_shards(0)
    store.split_shard(0)
    assert fits == []
    assert all(shard.model is store.model
               for shard in store.shards if shard is not None)
    assert repr(store.model).startswith("Model(")
    for table in (two_group_table, appended, gap):
        lookup_matches(store, table)

    store.rebuild()
    assert len(fits) == 1  # a retrain is one fit, not one per shard
    for table in (two_group_table, appended, gap):
        lookup_matches(store, table)


def test_hash_buckets_share_the_one_model(fits):
    table = synthetic.multi_column(1200, "low", seed=3)
    store = ShardedDeepMapping.fit(table, fast_config(epochs=2),
                                   ShardingConfig(n_shards=4,
                                                  strategy="hash"))
    assert len(fits) == 1
    assert all(shard.model is store.model for shard in store.shards)
    fits.clear()

    keys = table.column("key").astype(np.int64)
    added = {"key": np.arange(keys.max() + 1, keys.max() + 41,
                              dtype=np.int64)}
    for column in store.value_names:
        added[column] = table.column(column)[:40]
    store.insert(added)
    assert fits == []
    lookup_matches(store, table)
    lookup_matches(store, ColumnTable(added, key=("key",)))


def test_engine_split_trains_nothing(fits):
    # Leading key 0 x20 | 1 x10, 2 x10, 3 x280: once shard 1 holds
    # a >= 1, the engine splits it at the median leading key (3) into
    # halves of 20 and 280 rows, and both halves answer through the
    # store's model.
    leading = np.repeat([0, 1, 2, 3], [20, 10, 10, 280]).astype(np.int64)
    table = ColumnTable({"a": leading,
                         "b": np.arange(leading.size, dtype=np.int64),
                         "v": leading * 7 % 5}, key=("a", "b"))
    lifecycle = LifecycleConfig(
        policy="never", rebalance=True, split_balance=1.5,
        split_min_rows=8, max_actions_per_run=1)
    store = ShardedDeepMapping.fit(
        table, fast_config(epochs=2), ShardingConfig(n_shards=1,
                                                     lifecycle=lifecycle))
    store.split_shard(0, cut=1)
    assert store.shard_row_counts() == [20, 300]
    fits.clear()

    events = store.engine.run_pending()
    assert [event.kind for event in events] == ["split"]
    assert store.shard_row_counts() == [20, 20, 280]
    assert fits == []
    assert all(shard.model is store.model for shard in store.shards)
    lookup_matches(store, table)


@pytest.mark.parametrize("writable", [True, False])
def test_a_reopened_store_shares_one_model(two_group_table, writable):
    store = ShardedDeepMapping.fit(two_group_table, fast_config(epochs=2),
                                   ShardingConfig(n_shards=4))
    backend = InMemoryBackend.named(f"one-model-reopen-{writable}")
    try:
        store.save(backend.url)
        with repro.open(backend.url, writable=writable) as opened:
            live = [shard for shard in opened.shards if shard is not None]
            assert len(live) == 2
            assert all(shard.model is opened.model for shard in live)
            assert opened.size_report().model_bytes == \
                store.size_report().model_bytes
            lookup_matches(opened, two_group_table)
    finally:
        InMemoryBackend.discard(backend.name)


def test_sharded_model_bytes_equal_a_one_shard_fit():
    table = synthetic.single_column(3000, "high", seed=4, domain_factor=2.0)
    config = fast_config(epochs=4)
    mono = DeepMapping.fit(table, config).size_report()
    for n_shards in (1, 4):
        sharded = ShardedDeepMapping.fit(
            table, config, ShardingConfig(n_shards=n_shards)).size_report()
        assert sharded.model_bytes == mono.model_bytes
        assert sharded.decode_bytes == mono.decode_bytes
        assert sharded.n_in_aux == mono.n_in_aux


def test_shard_blobs_hold_no_session_and_the_model_is_written_once(
        two_group_table):
    store = ShardedDeepMapping.fit(two_group_table, fast_config(epochs=2),
                                   ShardingConfig(n_shards=4))
    backend = InMemoryBackend.named("one-model-layout")
    try:
        store.save(backend.url)
        names = sorted(backend.list())
        assert names == ["exist.rzc", "manifest.json", "model.rzc",
                         "shard-0000.dm", "shard-0001.dm"]
        model_state = zerocopy.unpack(backend.read_bytes("model.rzc"))
        assert "session_v2" in model_state and "aux_v2" not in model_state
        crc = blob_crc(backend.read_bytes("model.rzc"))
        manifest = ShardManifest.load_from(backend)
        assert manifest.model_crc == crc
        # One existence index for the store, bound like the shards.
        assert manifest.exist_crc == blob_crc(backend.read_bytes("exist.rzc"))
        exist_state = zerocopy.unpack(backend.read_bytes("exist.rzc"))
        assert set(exist_state) == {"exist_v2", "model_crc"}
        assert exist_state["model_crc"] == crc
        for name in ("shard-0000.dm", "shard-0001.dm"):
            state = zerocopy.unpack(backend.read_bytes(name))
            assert set(state) == {"aux_v2", "model_crc"}
            assert state["model_crc"] == crc
    finally:
        InMemoryBackend.discard(backend.name)


def test_a_monolithic_payload_with_a_zero_window_base_opens(sparse_table):
    """A monolithic payload keeps the parent's layout; the parent saved
    its existence state with a window base of 0, which reads as the
    whole domain."""
    mono = DeepMapping.fit(sparse_table, fast_config(epochs=3))
    state = zerocopy.unpack(mono.to_payload())
    state["aux_v2"] = mono.aux.to_state()  # re-packable partitions
    assert "base" not in state["exist_v2"]
    state["exist_v2"]["base"] = 0
    backend = InMemoryBackend.named("one-model-parent-payload")
    try:
        backend.write_bytes(MONOLITHIC_BLOB, zerocopy.pack(state))
        for writable in (True, False):
            with repro.open(backend.url, writable=writable) as opened:
                lookup_matches(opened, sparse_table)
    finally:
        InMemoryBackend.discard(backend.name)


@pytest.fixture
def sparse_table():
    keys = np.arange(0, 1500, 3, dtype=np.int64)
    rng = np.random.default_rng(8)
    return ColumnTable(
        {"key": keys,
         "status": rng.choice(np.array(["A", "B", "C"]), size=keys.size)},
        key=("key",), name="sparse")


FAR_KEY = 2 ** 36


def far_rows(store):
    return {"key": np.array([FAR_KEY], dtype=np.int64),
            **{name: store.lookup({"key": np.array([0])}).values[name]
               for name in store.value_names}}


@pytest.mark.parametrize("sharding", [None, "range", "hash"])
def test_a_key_far_past_the_max_keeps_v_exist_small(tmp_path, sharding,
                                                    fits):
    """One append ~2**36 past a dense window must not allocate (or save)
    a bit per key of the gap: the grown window goes sparse by the rule
    that built it, and nothing trains."""
    table = synthetic.single_column(2_000, "high", seed=1)
    config = fast_config(epochs=2)
    store = (DeepMapping.fit(table, config) if sharding is None
             else ShardedDeepMapping.fit(table, config, ShardingConfig(
                 n_shards=4, strategy=sharding)))
    rows = far_rows(store)
    before = store.size_report().exist_bytes
    fits.clear()
    store.insert(rows)
    assert fits == []
    assert store.size_report().exist_bytes < before + 4096
    shards = [store] if sharding is None else store.shards
    assert sum(s.exist.nbytes for s in shards if s is not None) < 1 << 20
    lookup_matches(store, table)
    hit = store.lookup({"key": rows["key"]})
    assert hit.found.all()
    for name in store.value_names:
        np.testing.assert_array_equal(hit.values[name], rows[name])
    assert not store.lookup({"key": np.array([FAR_KEY - 1])}).found.any()

    path = str(tmp_path / ("store" if sharding else "store.dm"))
    assert store.save(path) < 1 << 20
    reopened = repro.open(path)
    assert reopened.lookup({"key": rows["key"]}).found.all()
    lookup_matches(reopened, table)


class CutShort(LocalDirBackend):
    """A directory whose shard writes fail: a save that dies after it
    wrote the model blob."""

    def write_bytes(self, name, payload):
        if name.startswith("shard-"):
            raise OSError("save cut short")
        return super().write_bytes(name, payload)


@pytest.fixture
def saved_and_retrained(two_group_table, tmp_path):
    """A store saved at ``tmp_path/store`` and the same store after a
    retrain that changed its model."""
    store = ShardedDeepMapping.fit(two_group_table, fast_config(epochs=2),
                                   ShardingConfig(n_shards=4))
    path = str(tmp_path / "store")
    store.save(path)
    old_crc = ShardManifest.load(path).model_crc
    store.rebuild(fast_config(epochs=3, seed=5))
    yield path, store, old_crc
    payload_cache().clear()


@pytest.mark.parametrize("writable", [True, False])
def test_a_resave_cut_short_after_the_model_is_refused(saved_and_retrained,
                                                       writable):
    path, store, old_crc = saved_and_retrained
    with pytest.raises(OSError, match="cut short"):
        store.save(CutShort(path))
    assert blob_crc(LocalDirBackend(path).read_bytes("model.rzc")) != old_crc
    with pytest.raises(StoreCorruptedError, match="model.rzc"):
        repro.open(path, writable=writable)


@pytest.mark.parametrize("writable", [True, False])
def test_a_shard_blob_of_another_save_is_refused(saved_and_retrained,
                                                 tmp_path, writable):
    path, store, _ = saved_and_retrained
    other = str(tmp_path / "other")
    store.save(other)
    fresh = LocalDirBackend(other).read_bytes("shard-0001.dm")
    LocalDirBackend(path).write_bytes("shard-0001.dm", fresh)
    with pytest.raises(StoreCorruptedError, match="shard-0001.dm"):
        repro.open(path, writable=writable)


def test_a_hydrating_shard_republished_under_a_new_model_is_refused(
        saved_and_retrained, two_group_table):
    """A lazy shard fetched after the store was re-saved under a retrained
    model must not answer under the model the open already holds."""
    path, store, _ = saved_and_retrained
    with serve_backend(LocalDirBackend(path, create=False)) as server:
        remote = repro.open(server.url)
        store.save(path)
        with pytest.raises(StoreCorruptedError, match="another model"):
            remote.lookup(two_group_table)
        remote.close()
