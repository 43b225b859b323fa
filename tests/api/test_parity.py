"""Cross-store parity: both implementations satisfy ``DataStore`` alike.

The sharded facade historically lagged the monolithic surface
(``contains_batch`` / ``aux_ratio`` / ``rebuild`` were missing); these
tests pin the shared behavior so the two can never drift apart again.
"""

import numpy as np
import pytest

from repro import DeepMapping, ShardedDeepMapping, ShardingConfig
from repro.data import synthetic
from repro.resilience import Deadline, DeadlineExceeded
from repro.store import DataStore

from ..core.conftest import fast_config
from .conftest import assert_same_result


class TestProtocolConformance:
    def test_monolithic_is_a_datastore(self, mono):
        assert isinstance(mono, DataStore)

    def test_sharded_is_a_datastore(self, sharded):
        assert isinstance(sharded, DataStore)

    def test_not_everything_is_a_datastore(self):
        assert not isinstance(object(), DataStore)


class TestContainsBatch:
    def test_matches_monolithic(self, mono, sharded, query_keys):
        np.testing.assert_array_equal(sharded.contains_batch(query_keys),
                                      mono.contains_batch(query_keys))

    def test_matches_lookup_found(self, sharded, query_keys):
        np.testing.assert_array_equal(sharded.contains_batch(query_keys),
                                      sharded.lookup(query_keys).found)

    def test_empty_batch(self, sharded):
        mask = sharded.contains_batch({"key": np.empty(0, dtype=np.int64)})
        assert mask.shape == (0,) and mask.dtype == bool

    def test_preserves_input_order(self, api_table, sharded):
        # Interleave keys across shards so routing must un-shuffle.
        live = api_table.column("key")
        keys = np.stack([live[::-1][:50], live[:50]]).T.reshape(-1)
        mask = sharded.contains_batch({"key": keys})
        assert mask.all()


class TestAuxRatio:
    def test_monolithic_definition(self, mono):
        assert mono.aux_ratio() == pytest.approx(
            len(mono.aux) / len(mono))

    def test_sharded_aggregates_shards(self, sharded):
        in_aux = sum(len(s.aux) for s in sharded.shards if s is not None)
        assert sharded.aux_ratio() == pytest.approx(in_aux / len(sharded))

    def test_bounded(self, mono, sharded):
        for store in (mono, sharded):
            assert 0.0 <= store.aux_ratio() <= 1.0


class TestRebuild:
    def test_sharded_rebuild_is_lossless(self, api_table, query_keys):
        store = ShardedDeepMapping.fit(api_table, fast_config(epochs=4),
                                       ShardingConfig(n_shards=3))
        before = store.lookup(query_keys)
        store.rebuild()
        assert_same_result(store.lookup(query_keys), before,
                           store.value_names)

    def test_sharded_rebuild_accepts_config(self, api_table):
        store = ShardedDeepMapping.fit(api_table, fast_config(epochs=4),
                                       ShardingConfig(n_shards=2))
        new_config = fast_config(epochs=3, shared_sizes=(16,),
                                 private_sizes=(8,))
        store.rebuild(new_config)
        for shard in store.shards:
            if shard is not None:
                assert shard.config.shared_sizes == (16,)

    def test_rebuild_resets_the_store_tracker(self, api_table):
        store = ShardedDeepMapping.fit(api_table, fast_config(epochs=4),
                                       ShardingConfig(n_shards=2))
        head = {name: api_table.column(name)[:5]
                for name in store.key_names}
        store.delete(head)
        assert store.tracker.bytes_since_build > 0
        store.rebuild()
        assert store.tracker.bytes_since_build == 0
        assert store.tracker.total_retrains == 1


class TestSharedSurfaceBehaves:
    """The same calls give the same answers through either store."""

    def test_len_matches(self, api_table, mono, sharded):
        assert len(mono) == len(sharded) == api_table.n_rows

    def test_lookup_results_identical(self, mono, sharded, query_keys):
        assert_same_result(sharded.lookup(query_keys),
                           mono.lookup(query_keys), mono.value_names)

    def test_context_manager_both(self, api_table):
        with DeepMapping.fit(api_table, fast_config(epochs=3)) as store:
            assert len(store) == api_table.n_rows
        with ShardedDeepMapping.fit(api_table, fast_config(epochs=3),
                                    ShardingConfig(n_shards=2)) as store:
            assert len(store) == api_table.n_rows

    def test_close_is_idempotent(self, api_table):
        store = ShardedDeepMapping.fit(api_table, fast_config(epochs=3),
                                       ShardingConfig(n_shards=2))
        store.close()
        store.close()
        # Reads still work after close (executors rebuild lazily).
        key = int(api_table.column("key")[0])
        assert store.lookup_one(key=key) is not None

    def test_close_keeps_installed_strategy(self, api_table, query_keys):
        # Post-close async behavior must match across implementations:
        # the installed strategy survives close on both store kinds.
        from repro.store import ThreadPoolStrategy
        mono_store = DeepMapping.fit(api_table, fast_config(epochs=3))
        mono_store.set_executor("threads")
        mono_store.close()
        assert isinstance(mono_store.executor, ThreadPoolStrategy)
        assert mono_store.lookup_async(query_keys).result(timeout=30)

    @pytest.mark.parametrize("strategy", ["serial", "threads"])
    def test_expired_deadline_fails_a_mono_future_without_a_lookup(
            self, api_table, query_keys, monkeypatch, strategy):
        mono_store = DeepMapping.fit(api_table, fast_config(epochs=2))
        mono_store.set_executor(strategy)
        ran = []
        monkeypatch.setattr(mono_store, "lookup", ran.append)
        future = mono_store.lookup_async(query_keys,
                                         deadline=Deadline(-1.0))
        with pytest.raises(DeadlineExceeded):
            future.result(timeout=30)
        assert ran == []
        mono_store.close()

    def test_shared_executor_instance_stays_caller_owned(self, api_table):
        from repro.store import ThreadPoolStrategy
        shared = ThreadPoolStrategy(max_workers=2)
        a = ShardedDeepMapping.fit(api_table, fast_config(epochs=3),
                                   ShardingConfig(n_shards=2,
                                                  executor=shared))
        b = DeepMapping.fit(api_table, fast_config(epochs=3))
        b.set_executor(shared)
        shared.submit_job(lambda: None).result()  # materialize the pool
        a.close()
        b.close()
        # Neither store shut the shared pool down.
        assert shared._pool is not None
        shared.close()


class TestInsertRepeatingAKey:
    """Both owners refuse an insert batch that repeats a key, with one
    check on the batch's flat keys, before anything changes."""

    @pytest.mark.parametrize("kind", ["mono", "sharded"])
    @pytest.mark.parametrize("where", ["gap", "append"])
    def test_refused_and_nothing_changes(self, kind, where):
        table = synthetic.single_column(600, "low", seed=3,
                                        domain_factor=2.0)
        config = fast_config(epochs=3)
        store = (DeepMapping.fit(table, config) if kind == "mono" else
                 ShardedDeepMapping.fit(table, config,
                                        ShardingConfig(n_shards=3)))
        live = table.column("key")
        if where == "gap":
            fresh = np.setdiff1d(np.arange(live.min(), live.max()), live)[:2]
        else:
            fresh = np.array([live.max() + 7, live.max() + 9])
        keys = np.array([fresh[0], fresh[1], fresh[0]], dtype=np.int64)
        values = np.repeat(table.column("value")[:1], 3)
        before = len(store)
        with pytest.raises(ValueError, match="1 duplicate key"):
            store.insert({"key": keys, "value": values})
        assert len(store) == before
        assert not store.contains_batch({"key": fresh}).any()
        assert store.tracker.bytes_since_build == 0
