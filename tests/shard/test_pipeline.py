"""Pipelined read path: bit-parity with the barrier oracle, all routes.

`DeepMapping.lookup` (staged plans, shared sort, streaming
scatter) must return bit-identical results to
`repro.testing.oracles.barrier_lookup` (the pre-pipeline
map/concat/permute path) on every key shape, executor and hit mix —
including adversarial batches from hypothesis.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import DeepMappingConfig
from repro.data import ColumnTable, synthetic
from repro.shard import DeepMapping, ShardingConfig, topology
from repro.store import make_executor
from repro.testing.oracles import barrier_lookup, reference_lookup

from ..core.conftest import fast_config


def assert_same(actual, expected, value_names):
    np.testing.assert_array_equal(actual.found, expected.found)
    for column in value_names:
        np.testing.assert_array_equal(actual.values[column],
                                      expected.values[column])
        assert actual.values[column].dtype == expected.values[column].dtype


@pytest.fixture(scope="module")
def table():
    return synthetic.multi_column(1200, "low", seed=5)


@pytest.fixture(scope="module")
def store(table):
    return DeepMapping.fit(table, fast_config(epochs=4),
                           ShardingConfig(n_shards=4))


def around_the_cuts(store, lo, hi):
    """Leading-key values at every cut, one below each, and a few
    below and above the fitted range ``[lo, hi]``."""
    cuts = store.router.cuts
    return np.unique(np.concatenate([cuts, cuts - 1,
                                     [lo - 10**6, lo - 1, hi + 1, hi + 50]]))


class TestParity:
    def test_mixed_batch(self, store, table):
        rng = np.random.default_rng(0)
        live = table.column("key")
        query = {"key": np.concatenate([
            rng.choice(live, 500),
            rng.integers(live.min(), live.max() + 100, 500),
        ])}
        assert_same(store.lookup(query), barrier_lookup(store, query),
                    store.value_names)

    def test_sorted_batch_rides_fast_path(self, store, table):
        query = {"key": np.sort(table.column("key")[:400])}
        assert_same(store.lookup(query), barrier_lookup(store, query),
                    store.value_names)

    def test_all_miss_batch(self, store, table):
        hi = int(table.column("key").max())
        query = {"key": np.arange(hi + 10, hi + 210, dtype=np.int64)}
        result = store.lookup(query)
        assert not result.found.any()
        assert_same(result, barrier_lookup(store, query), store.value_names)

    def test_empty_batch(self, store):
        query = {"key": np.empty(0, dtype=np.int64)}
        assert_same(store.lookup(query), barrier_lookup(store, query),
                    store.value_names)

    def test_duplicate_keys_in_batch(self, store, table):
        key = int(table.column("key")[3])
        query = {"key": np.array([key, key, key + 10**7, key],
                                 dtype=np.int64)}
        assert_same(store.lookup(query), barrier_lookup(store, query),
                    store.value_names)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_hypothesis_random_batches(self, store, table, data):
        live = table.column("key")
        lo, hi = int(live.min()) - 50, int(live.max()) + 50
        keys = data.draw(st.lists(
            st.one_of(st.sampled_from(list(live[:100])),
                      st.integers(lo, hi)),
            min_size=1, max_size=300))
        if data.draw(st.booleans(), label="duplicate-heavy"):
            # Every key 3-5 times, shuffled: runs only form once the
            # route stage sorts each shard's segment.
            copies = data.draw(st.lists(st.integers(3, 5), min_size=len(keys),
                                        max_size=len(keys)))
            rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
            keys = rng.permutation(np.repeat(keys, copies))
        query = {"key": np.asarray(keys, dtype=np.int64)}
        result = store.lookup(query)
        assert_same(result, barrier_lookup(store, query), store.value_names)
        assert_same(result, barrier_lookup(store, query,
                                           shard_lookup=reference_lookup),
                    store.value_names)


class TestEachDistinctKeyOnce:
    def test_repeated_keys_reach_the_kernel_and_aux_once(
            self, store, table, monkeypatch):
        """Every key 3-5 times: the compiled kernel and ``T_aux`` each
        see every distinct key once, and the answers are Algorithm 1's."""
        from repro.core import AuxiliaryTable
        from repro.nn.compiled import CompiledSession

        seen = {"run": [], "aux": []}
        run, probe = CompiledSession.run, AuxiliaryTable.probe

        def counting_run(self, flat_keys):
            seen["run"].append((self, np.array(flat_keys)))
            return run(self, flat_keys)

        def counting_probe(self, flat_keys, *out):
            seen["aux"].append((self, np.array(flat_keys)))
            return probe(self, flat_keys, *out)

        monkeypatch.setattr(CompiledSession, "run", counting_run)
        monkeypatch.setattr(AuxiliaryTable, "probe", counting_probe)

        rng = np.random.default_rng(4)
        live = table.column("key")
        distinct = np.concatenate([
            rng.choice(live, 400, replace=False),
            np.arange(live.max() + 1, live.max() + 41, dtype=np.int64)])
        keys = rng.permutation(np.repeat(distinct,
                                         rng.integers(3, 6, distinct.size)))
        query = {"key": keys}
        result = store.lookup(query)
        monkeypatch.undo()

        assert_same(result, barrier_lookup(store, query,
                                           shard_lookup=reference_lookup),
                    store.value_names)
        for stage, calls in seen.items():
            per_engine = {}
            for engine, flat in calls:
                per_engine.setdefault(id(engine), []).append(flat)
            for parts in per_engine.values():
                flat = np.concatenate(parts)
                assert np.unique(flat).size == flat.size, (
                    f"{stage} saw a key twice")
        # T_aux is probed with every distinct live key, the kernel with
        # every one T_aux does not hold.
        n_live = np.isin(distinct, live).sum()
        assert sum(flat.size for _, flat in seen["aux"]) == n_live
        n_aux = sum(int(aux.lookup_batch(flat)[0].sum())
                    for aux, flat in seen["aux"])
        assert sum(flat.size for _, flat in seen["run"]) == n_live - n_aux


class TestPresortedRuns:
    """A presorted plan answers each run of equal keys once and expands
    the answer back to every copy (the sharded route hands each shard
    its keys sorted, repeats adjacent)."""

    @staticmethod
    def check(shard, keys):
        keys = np.asarray(keys, dtype=np.int64)
        plan = shard.plan_lookup({"key": keys}, presorted=True)
        assert len(plan) == keys.size
        plan.run_existence()
        plan.run_aux()
        plan.run_inference()
        expected = reference_lookup(shard, {"key": keys})
        distinct_hits = np.unique(keys[expected.found]).size
        assert plan.model_rows.size + plan.aux_rows.size == distinct_hits
        assert_same(plan.finish(), expected, shard.model.fdecode.columns)

    @pytest.fixture
    def shard(self, store):
        return next(shard for shard in store.shards if shard is not None)

    @pytest.fixture
    def live(self, store, shard):
        """The live keys ``shard`` owns, from the store's one index."""
        keys = store.model.key_codec.unflatten(
            store.exist.existing_keys())["key"]
        return keys[store.router.route({"key": keys})
                    == store.shards.index(shard)]

    def test_one_key_repeated(self, shard, live):
        self.check(shard, [int(live[5])] * 9)

    def test_runs_of_hits_and_misses(self, shard, live):
        span = np.arange(live.min() - 5, live.max() + 6, dtype=np.int64)
        misses = np.setdiff1d(span, live)[:40]
        rng = np.random.default_rng(3)
        distinct = np.concatenate([rng.choice(live, 60, replace=False),
                                   misses])
        self.check(shard, np.sort(np.repeat(
            distinct, rng.integers(1, 5, distinct.size))))

    def test_out_of_domain_runs_below_and_above(self, shard, live):
        below, above = int(live[0]) - 10**6, int(live[-1]) + 10**6
        self.check(shard, [below - 1] * 3 + [below] * 2
                   + list(np.repeat(live[:4], 2))
                   + [above] * 4 + [above + 7] * 2)

    @pytest.mark.parametrize("size", [0, 1])
    def test_tiny_batches(self, shard, live, size):
        self.check(shard, live[:size])


class TestReferencePathParity:
    def test_store_matches_reference_engine_behind_barrier_merge(self, table):
        store = DeepMapping.fit(
            table, fast_config(epochs=3), ShardingConfig(n_shards=3))
        rng = np.random.default_rng(1)
        live = table.column("key")
        query = {"key": np.concatenate([
            rng.choice(live, 300),
            rng.integers(live.min(), live.max() + 100, 300)])}
        assert_same(store.lookup(query),
                    barrier_lookup(store, query,
                                   shard_lookup=reference_lookup),
                    store.value_names)


class TestCompositeKeys:
    def test_composite_key_parity(self):
        rng = np.random.default_rng(7)
        a = np.repeat(np.arange(30, dtype=np.int64), 20)
        b = np.tile(np.arange(20, dtype=np.int64), 30)
        table = ColumnTable(
            {"a": a, "b": b,
             "v": rng.integers(0, 50, a.size).astype(np.int64)},
            key=("a", "b"))
        store = DeepMapping.fit(table, fast_config(epochs=3),
                                       ShardingConfig(n_shards=3))
        query = {
            "a": np.concatenate([a[::7], rng.integers(0, 40, 60)]),
            "b": np.concatenate([b[::7], rng.integers(0, 25, 60)]),
        }
        assert_same(store.lookup(query), barrier_lookup(store, query),
                    store.value_names)
        # The one sort's cut points: each leading value at, just below,
        # and outside the fitted range, paired with several ``b``.
        leading, trailing = np.meshgrid(around_the_cuts(store, 0, 29),
                                        [-1, 0, 7, 19, 20])
        shuffled = rng.permutation(leading.size)
        query = {"a": leading.ravel()[shuffled],
                 "b": trailing.ravel()[shuffled]}
        assert_same(store.lookup(query), barrier_lookup(store, query),
                    store.value_names)


class TestEmptyShards:
    def test_batch_touching_empty_shard(self, table):
        store = DeepMapping.fit(table, fast_config(epochs=3),
                                       ShardingConfig(n_shards=4))
        # Delete every row of shard 0 so its segment is all misses.
        key_cols = store.model.key_codec.unflatten(
            store.exist.existing_keys())
        mine = store.router.route(key_cols) == 0
        store.delete({name: col[mine] for name, col in key_cols.items()})
        topology.swap(store, store.router, store.model,
                      [None] + list(store.shards[1:]), store.exist)
        rng = np.random.default_rng(2)
        live = table.column("key")
        query = {"key": np.concatenate([
            rng.choice(live, 400),
            rng.integers(live.min(), live.max() + 100, 400)])}
        assert_same(store.lookup(query), barrier_lookup(store, query),
                    store.value_names)
        query = {"key": rng.permutation(around_the_cuts(
            store, int(live.min()), int(live.max())))}
        assert_same(store.lookup(query), barrier_lookup(store, query),
                    store.value_names)


class TestExecutors:
    def test_strategy_without_a_submit_lane_is_rejected(self):
        class NoLane:
            name = "no-lane"

            def close(self):
                pass

        with pytest.raises(TypeError, match="ExecutorStrategy"):
            make_executor(NoLane())
        with pytest.raises(TypeError, match="ExecutorStrategy"):
            DeepMapping.fit(
                synthetic.multi_column(50, "low", seed=5),
                fast_config(epochs=1),
                ShardingConfig(n_shards=2, executor=NoLane()))

    @pytest.mark.parametrize("executor", ["serial", "threads"])
    def test_named_strategies_parity(self, table, executor):
        store = DeepMapping.fit(
            table, fast_config(epochs=3),
            ShardingConfig(n_shards=3, executor=executor))
        rng = np.random.default_rng(4)
        live = table.column("key")
        query = {"key": np.concatenate([
            rng.choice(live, 300),
            rng.integers(live.min(), live.max() + 100, 300)])}
        assert_same(store.lookup(query), barrier_lookup(store, query),
                    store.value_names)
        assert_same(store.lookup_async(query).result(),
                    barrier_lookup(store, query), store.value_names)
        store.close()
