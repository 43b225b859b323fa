"""A write batch costs O(batch) on both owners: guards that count calls.

The store flattens a batch and runs the model over it once, whatever
the number of shards it touches; each shard only sets bits and holds
rows.  The live counts the retrain rule reads are kept as rows change,
so reading them after a write, or after a read-only open, neither
probes nor faults in a ``T_aux`` partition.  No timing is asserted.
"""

import contextlib

import numpy as np
import pytest

import repro
from repro.data import synthetic
from repro.lifecycle import LifecycleConfig
from repro.nn.compiled import CompiledSession
from repro.shard import DeepMapping, ShardingConfig
from repro.storage import InMemoryBackend, payload_cache
from repro.storage.partition import SortedPartitionStore

from ..core.conftest import fast_config


@pytest.fixture(scope="module")
def table():
    return synthetic.single_column(2000, "low", seed=5, domain_factor=2.0)


def _store(table, lifecycle=None):
    return DeepMapping.fit(
        table, fast_config(epochs=3, aux_partition_bytes=512),
        ShardingConfig(n_shards=8, executor="serial",
                       lifecycle=lifecycle))


def _gap_rows(table, n, seed=0):
    batch = synthetic.insert_batch(table, n, "low", seed=seed, mode="gaps")
    return {name: batch.column(name) for name in ("key", "value")}


@pytest.fixture
def counted(monkeypatch):
    """Calls made by name, from the last ``counted.clear()`` (or the
    fixture) on."""
    calls = _Counts(lost_rows=0, lookup_batch=0, load_partition=0)

    def wrap(cls, name):
        real = getattr(cls, name)

        def counting(self, *args, **kwargs):
            calls[name] += 1
            return real(self, *args, **kwargs)
        monkeypatch.setattr(cls, name, counting)

    wrap(CompiledSession, "lost_rows")
    wrap(SortedPartitionStore, "lookup_batch")
    wrap(SortedPartitionStore, "load_partition")
    return calls


class _Counts(dict):
    def clear(self):
        self.update(dict.fromkeys(self, 0))


class TestOneModelPassPerBatch:
    def test_sharded_insert_and_update_run_the_model_once(self, table,
                                                          counted):
        store = _store(table)
        rows = _gap_rows(table, 100)
        assert np.unique(store.router.route(rows)).size >= 6
        counted.clear()
        store.insert(rows)
        assert counted["lost_rows"] == 1
        live = table.column("key")[::40]
        store.update({"key": live, "value": table.column("value")[::-1][::40]})
        assert counted["lost_rows"] == 2
        store.delete({"key": rows["key"][:30]})
        assert counted["lost_rows"] == 2

    def test_one_shard_insert_and_update_run_the_model_once(self, table,
                                                            counted):
        mono = DeepMapping.fit(table, fast_config(epochs=3))
        counted.clear()
        mono.insert(_gap_rows(table, 50))
        mono.update({"key": table.column("key")[:20],
                     "value": table.column("value")[20:40]})
        assert counted["lost_rows"] == 2


class TestOneProbePerShard:
    def test_an_update_probes_each_shard_once(self, table, counted):
        """Algorithm 5's two halves (rows leaving ``T_aux``, rows held
        there) share one partition probe per shard the batch touches."""
        store = _store(table)
        live = table.column("key")[::7]
        touched = np.unique(store.router.route({"key": live})).size
        counted.clear()
        store.update({"key": live,
                      "value": table.column("value")[::-1][::7]})
        assert counted["lookup_batch"] == touched


class TestCountsCostNothing:
    def test_retrain_rule_after_a_write_probes_no_partition(self, table,
                                                            counted):
        store = _store(table, LifecycleConfig(policy="aux-ratio",
                                              aux_ratio=0.99))
        store.insert(_gap_rows(table, 100))
        store.delete({"key": table.column("key")[:50]})
        counted.clear()
        for _ in range(3):
            assert not store.retrain_due(None, 0.99)
            assert 0 < store.aux_ratio() < 1
        assert counted["lookup_batch"] == 0

    @pytest.mark.parametrize("writable", [False, True])
    def test_open_with_empty_overlay_loads_no_partition(self, table,
                                                        counted, writable):
        store = _store(table)
        with _saved(store, f"write-cost-empty-{writable}") as url:
            counted.clear()
            with repro.open(url, writable=writable) as opened:
                assert _aux_rows(opened) == _aux_rows(store)
                assert len(opened) == len(table)
                opened.retrain_due(None, 0.5)
            assert counted["load_partition"] == 0
            assert counted["lookup_batch"] == 0

    @pytest.mark.parametrize("writable", [False, True])
    def test_opened_overlay_is_counted_once(self, table, counted, writable):
        """One sorted probe per shard whose overlay is not empty, on the
        first count after the open; none after that."""
        store = _store(table)
        store.insert(_gap_rows(table, 100))
        with_overlay = sum(1 for shard in store.shards
                           if shard is not None and shard.aux._overlay)
        assert with_overlay >= 4
        with _saved(store, f"write-cost-overlay-{writable}") as url:
            counted.clear()
            with repro.open(url, writable=writable) as opened:
                assert _aux_rows(opened) == _aux_rows(store)
                assert counted["lookup_batch"] == with_overlay
                opened.retrain_due(None, 0.5)
                assert _aux_rows(opened) == _aux_rows(store)
                assert counted["lookup_batch"] == with_overlay


def _aux_rows(store):
    return sum(len(shard.aux) for shard in store.shards if shard is not None)


@contextlib.contextmanager
def _saved(store, name):
    url = f"mem://{name}"
    store.save(url)
    try:
        yield url
    finally:
        payload_cache().clear()
        InMemoryBackend.discard(name)
