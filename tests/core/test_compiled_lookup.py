"""The compiled read path: gating, parity with the reference oracle
(``repro.testing.oracles.reference_lookup``, Algorithm 1 as written),
and engine invalidation across mutations and rebuilds."""

import numpy as np
import pytest

import repro
from repro.core.model import Model
from repro.data import ColumnTable, synthetic
from repro.nn import CompiledSession, MultiTaskMLP
from repro.shard import DeepMapping, ShardingConfig
from repro.testing import oracles
from repro.testing.oracles import barrier_lookup, reference_lookup

from .conftest import fast_config


@pytest.fixture
def gap_table():
    """Keys with gaps so in-domain misses exist (every third key)."""
    keys = np.arange(0, 3000, 3, dtype=np.int64)
    rng = np.random.default_rng(11)
    return ColumnTable(
        {"key": keys, "status": rng.choice(np.array(["A", "B", "C"]),
                                           size=keys.size)},
        key=("key",),
        name="gaps",
    )


def mixed_query(table, rng, n_hits=400, n_misses=400):
    """Present keys + in-domain absent keys + out-of-domain keys."""
    keys = table.column("key")
    hits = rng.choice(keys, size=n_hits, replace=True)
    misses = rng.choice(keys[:-1] + 1, size=n_misses, replace=True)  # gaps
    out_of_domain = np.array([keys.max() + 1000, -5], dtype=np.int64)
    query = np.concatenate([hits, misses, out_of_domain])
    rng.shuffle(query)
    return {"key": query}


class TestCompiledLookupParity:
    def test_compiled_and_reference_paths_agree(self, gap_table):
        """Bit-identical, misses included (both read the blank)."""
        dm = DeepMapping.fit(gap_table, fast_config())
        query = mixed_query(gap_table, np.random.default_rng(0))
        a = dm.lookup(query)
        b = barrier_lookup(dm, query, shard_lookup=reference_lookup)
        np.testing.assert_array_equal(a.found, b.found)
        for column in a.values:
            np.testing.assert_array_equal(a.values[column], b.values[column])
            assert a.values[column].dtype == b.values[column].dtype

    def test_compiled_lookup_is_lossless(self, gap_table):
        dm = DeepMapping.fit(gap_table, fast_config())
        result = dm.lookup({"key": gap_table.column("key")})
        assert result.found.all()
        np.testing.assert_array_equal(result.values["status"],
                                      gap_table.column("status"))

    def test_all_missing_batch_skips_inference(self, gap_table,
                                               monkeypatch):
        dm = DeepMapping.fit(gap_table, fast_config())
        calls = []
        engine = dm.model.compiled_session()
        original = engine.run
        monkeypatch.setattr(
            engine, "run",
            lambda *a, **k: (calls.append(1), original(*a, **k))[1])
        absent = {"key": gap_table.column("key")[:50] + 1}
        result = dm.lookup(absent)
        assert not result.found.any()
        assert calls == []  # existence gate short-circuits the model

    def test_empty_batch(self, gap_table):
        dm = DeepMapping.fit(gap_table, fast_config())
        result = dm.lookup({"key": np.empty(0, dtype=np.int64)})
        assert len(result) == 0

    def test_reference_engine_stays_lossless_after_mutations(self, gap_table):
        """T_aux covers the compiled kernel's near-ties, so the
        reference engine answers a compiled-built structure identically
        (including post-mutation rows)."""
        dm = DeepMapping.fit(gap_table, fast_config(
            key_headroom_fraction=0.5))
        dm.insert({"key": np.array([3001, 3004], dtype=np.int64),
                   "status": np.array(["A", "B"])})
        dm.update({"key": np.array([3001], dtype=np.int64),
                   "status": np.array(["C"])})
        query = {"key": np.concatenate([gap_table.column("key"),
                                        np.array([3001, 3004])])}
        compiled = dm.lookup(query)
        reference = barrier_lookup(dm, query, shard_lookup=reference_lookup)
        np.testing.assert_array_equal(compiled.found, reference.found)
        assert compiled.found.all()
        np.testing.assert_array_equal(compiled.values["status"],
                                      reference.values["status"])

    def test_value_column_named_shared(self):
        """Internal scratch scopes must not collide with task names."""
        keys = np.arange(0, 600, 2, dtype=np.int64)
        rng = np.random.default_rng(13)
        table = ColumnTable(
            {"key": keys,
             "shared": rng.choice(np.array(["x", "y"]), size=keys.size),
             "head": (keys % 4).astype(np.int64)},
            key=("key",),
        )
        dm = DeepMapping.fit(table, fast_config())
        result = dm.lookup({"key": keys})
        assert result.found.all()
        np.testing.assert_array_equal(result.values["shared"],
                                      table.column("shared"))
        np.testing.assert_array_equal(result.values["head"],
                                      table.column("head"))

    def test_reference_oracle_never_touches_the_compiled_engine(
            self, gap_table, monkeypatch):
        dm = DeepMapping.fit(gap_table, fast_config())
        def boom(*a, **k):
            raise AssertionError("compiled engine must not be used")
        monkeypatch.setattr(Model, "compiled_session", boom)
        result = barrier_lookup(dm, {"key": gap_table.column("key")[:20]},
                                shard_lookup=reference_lookup)
        assert result.found.all()


class TestEngineLifecycle:
    def test_fit_prewarms_engine(self, gap_table):
        dm = DeepMapping.fit(gap_table, fast_config())
        assert isinstance(dm.model._compiled, CompiledSession)
        assert dm.model.compiled_session() is dm.model._compiled

    def test_engine_cached_across_lookups(self, gap_table):
        dm = DeepMapping.fit(gap_table, fast_config())
        engine = dm.model.compiled_session()
        dm.lookup({"key": gap_table.column("key")[:10]})
        assert dm.model.compiled_session() is engine

    def test_rebuild_recompiles_engine(self, gap_table):
        dm = DeepMapping.fit(gap_table, fast_config())
        stale = dm.model.compiled_session()
        dm.rebuild()
        fresh = dm.model.compiled_session()
        assert fresh is not stale
        assert fresh.session is dm.model.session
        result = dm.lookup({"key": gap_table.column("key")})
        assert result.found.all()
        np.testing.assert_array_equal(result.values["status"],
                                      gap_table.column("status"))

    def test_insert_triggered_retrain_recompiles(self, gap_table):
        # A tiny retrain threshold makes the first insert trip a rebuild.
        dm = DeepMapping.fit(
            gap_table,
            fast_config(retrain_threshold_bytes=1,
                        key_headroom_fraction=0.5),
        )
        stale = dm.model.compiled_session()
        new_keys = np.array([3001, 3004], dtype=np.int64)
        dm.insert({"key": new_keys, "status": np.array(["A", "B"])})
        assert dm.model.compiled_session() is not stale
        result = dm.lookup({"key": new_keys})
        assert result.found.all()
        np.testing.assert_array_equal(result.values["status"],
                                      np.array(["A", "B"]))

    def test_engine_belongs_to_the_model(self, gap_table):
        # The kernel is compiled once per model: every shard answers
        # through the store's model, never a stale kernel.
        dm = DeepMapping.fit(gap_table, fast_config(),
                             ShardingConfig(n_shards=2))
        dm.rebuild()
        assert all(shard.model is dm.model for shard in dm.shards)
        assert dm.model.compiled_session().session is dm.model.session

    def test_save_load_roundtrip_keeps_compiled_lookups(self, gap_table,
                                                        tmp_path):
        dm = DeepMapping.fit(gap_table, fast_config())
        path = str(tmp_path / "store.dm")
        dm.save(path)
        clone = repro.open(path)
        result = clone.lookup({"key": gap_table.column("key")})
        assert result.found.all()
        np.testing.assert_array_equal(result.values["status"],
                                      gap_table.column("status"))
        assert isinstance(clone.model.compiled_session(), CompiledSession)


class TestShardedCompiledEngines:
    def test_fit_compiles_one_engine_for_every_shard(self):
        table = synthetic.single_column(2000, "high", seed=3)
        store = DeepMapping.fit(
            table, fast_config(), ShardingConfig(n_shards=4))
        live = [s for s in store.shards if s is not None]
        assert isinstance(store.model._compiled, CompiledSession)
        assert all(s.model is store.model for s in live)

    def test_sharded_lookup_matches_reference_path(self):
        table = synthetic.single_column(2000, "high", seed=3)
        store = DeepMapping.fit(
            table, fast_config(), ShardingConfig(n_shards=4))
        rng = np.random.default_rng(1)
        keys = table.column("key")
        query = {"key": np.concatenate([
            rng.choice(keys, size=500),
            np.array([keys.max() + 7, keys.max() + 9999]),
        ])}
        a = store.lookup(query)
        b = barrier_lookup(store, query, shard_lookup=reference_lookup)
        np.testing.assert_array_equal(a.found, b.found)
        for column in a.values:
            np.testing.assert_array_equal(a.values[column], b.values[column])
        store.close()

    def test_load_compiles_engines(self, tmp_path):
        table = synthetic.single_column(1500, "high", seed=4)
        store = DeepMapping.fit(
            table, fast_config(), ShardingConfig(n_shards=2))
        store.save(str(tmp_path / "store.dms"))
        store.close()
        clone = DeepMapping.load(str(tmp_path / "store.dms"))
        live = [s for s in clone.shards if s is not None]
        assert isinstance(clone.model._compiled, CompiledSession)
        assert live and all(s.model is clone.model for s in live)
        assert clone.lookup({"key": table.column("key")}).found.all()
        clone.close()

    def test_compile_engines_counts_live_shards(self):
        table = synthetic.single_column(1000, "high", seed=5)
        store = DeepMapping.fit(
            table, fast_config(), ShardingConfig(n_shards=2))
        assert store.compile_engines() == 2
        store.close()


class TestOnePredictorDecidesAux:
    """``T_aux`` is decided by the serving kernel alone: wrong answers
    plus top-two gaps under its float32 tie margin."""

    @pytest.fixture
    def table(self):
        # Learnable enough that some rows the model gets right sit under
        # the margin (two at this seed): those are what noise would flip.
        return synthetic.single_column(3000, "high", seed=21)

    @pytest.mark.parametrize("noise", ["uniform", "worst-case"])
    def test_lookups_survive_logit_noise_of_half_the_margin(
            self, table, monkeypatch, noise):
        """Any float32 evaluation within ``tie_margin / 2`` of the
        write-time one answers the same: noise that large on every logit
        at lookup time changes no value, through fit, insert, update and
        delete, and the reference oracle still agrees bit for bit.
        ``worst-case`` lowers each row's top logit and raises the others
        (by 0.45 of the margin), flipping every gap the margin let by."""
        noisy = []
        rng = np.random.default_rng(0)
        forward = CompiledSession._forward

        def perturbed(engine, keys):
            logits = forward(engine, keys)
            if not noisy:
                return logits
            half = engine.tie_margin / 2
            for task_logits in logits.values():
                if noise == "uniform":
                    shift = rng.uniform(-half, half, task_logits.shape)
                else:
                    shift = np.full(task_logits.shape, 0.9 * half)
                    shift[np.arange(len(shift)),
                          task_logits.argmax(axis=1)] *= -1
                task_logits += shift.astype(np.float32)
            return logits

        monkeypatch.setattr(CompiledSession, "_forward", perturbed)
        dm = DeepMapping.fit(table, fast_config(key_headroom_fraction=0.5))
        columns = table.value_columns
        truth = {int(k): tuple(table.column(c)[i] for c in columns)
                 for i, k in enumerate(table.column("key"))}

        def rows(keys, seed):
            donor = synthetic.single_column(len(keys), "high", seed=seed)
            out = {"key": np.asarray(keys, dtype=np.int64)}
            out.update({c: donor.column(c) for c in columns})
            for i, key in enumerate(out["key"].tolist()):
                truth[key] = tuple(out[c][i] for c in columns)
            return out

        top = int(table.column("key").max())
        dm.insert(rows(range(top + 1, top + 200), seed=22))
        dm.update(rows(table.column("key")[::4].tolist(), seed=23))
        dead = table.column("key")[1::9]
        dm.delete({"key": dead})
        for key in dead.tolist():
            del truth[int(key)]

        keys = np.array(sorted(truth), dtype=np.int64)
        query = {"key": np.concatenate(
            [keys, np.setdiff1d(np.arange(keys.max() + 5), keys)])}
        noisy.append(True)
        got = dm.lookup(query)
        noisy.clear()
        assert got.found[:keys.size].all()
        assert not got.found[keys.size:].any()
        for j, column in enumerate(columns):
            np.testing.assert_array_equal(
                got.values[column][:keys.size],
                np.array([truth[k][j] for k in keys.tolist()]))
        reference = barrier_lookup(dm, query, shard_lookup=reference_lookup)
        np.testing.assert_array_equal(got.found, reference.found)
        for column in columns:
            np.testing.assert_array_equal(got.values[column],
                                          reference.values[column])

    def test_write_path_never_runs_the_reference_predictor(
            self, table, monkeypatch):
        """Neither the textbook oracle nor an inference-mode pass of the
        training model runs on any write."""
        def refuse(*args, **kwargs):
            raise AssertionError("the reference predictor ran on a write")

        train_forward = MultiTaskMLP.forward

        def training_only(self, x, train=True):
            if not train:
                refuse()
            return train_forward(self, x, train=train)

        monkeypatch.setattr(oracles, "reference_logits", refuse)
        monkeypatch.setattr(MultiTaskMLP, "forward", training_only)
        dm = DeepMapping.fit(table, fast_config(key_headroom_fraction=0.5))
        top = int(table.column("key").max())
        new = {"key": np.arange(top + 1, top + 40, dtype=np.int64)}
        new.update({c: table.column(c)[:39] for c in table.value_columns})
        dm.insert(new)
        dm.update(new)
        dm.rebuild()
        assert dm.lookup({"key": new["key"]}).found.all()

        store = DeepMapping.fit(
            synthetic.single_column(2000, "high", seed=24),
            fast_config(epochs=5), ShardingConfig(n_shards=2))
        store.split_shard(0)
        store.merge_shards(0)
        assert len(store) == 2000
        store.close()

    def test_aux_holds_exactly_the_wrong_and_the_near_tied_rows(self, table):
        dm = DeepMapping.fit(table, fast_config())
        flat = dm.model.key_codec.flatten(table.key_columns_dict())
        labels = dm.model.fdecode.encode(table.value_columns_dict())
        codes, ties = dm.model.compiled_session().classify(flat)
        wrong = np.zeros(flat.size, dtype=bool)
        for task, expected in labels.items():
            wrong |= codes[task] != expected
        in_aux, _ = dm.shards[0].aux.lookup_batch(flat)
        np.testing.assert_array_equal(in_aux, wrong | ties)
