"""Tests for insert/delete/update (paper Algorithms 3-5) and retraining."""

import numpy as np
import pytest

from repro.core import DeepMapping, ModificationTracker
from repro.data import ColumnTable, synthetic

from .conftest import fast_config


def fresh_mapping(n=800, correlation="high", headroom=1.0, **cfg):
    table = synthetic.multi_column(n, correlation)
    config = fast_config(key_headroom_fraction=headroom, **cfg)
    return table, DeepMapping.fit(table, config)


def batch_columns(table):
    return {name: table.column(name) for name in table.column_names}


class TestInsert:
    def test_inserted_rows_become_visible(self):
        table, dm = fresh_mapping()
        batch = synthetic.insert_batch(table, 100, "high")
        dm.insert(batch)
        result = dm.lookup({"key": batch.column("key")})
        assert result.found.all()
        for col in batch.value_columns:
            np.testing.assert_array_equal(result.values[col], batch.column(col))

    def test_insert_correlated_data_mostly_generalizes(self):
        """Paper Table III: a model trained on high-correlation data absorbs
        same-distribution inserts with little auxiliary growth.

        In-gap keys of a gapped domain are the case the model can
        generalize to (appended keys carry digit patterns it never saw,
        and nearly all of them land in ``T_aux`` at any weight width)."""
        table = synthetic.single_column(2000, "high", domain_factor=2.0)
        dm = DeepMapping.fit(table, fast_config(epochs=80))
        batch = synthetic.insert_batch(table, 400, "high", mode="gaps")
        landed = dm.insert(batch)
        assert landed < 100  # most rows predicted correctly => skipped aux

    def test_insert_uncorrelated_data_fills_aux(self):
        table, dm = fresh_mapping(n=800, correlation="high", epochs=60)
        batch = synthetic.insert_batch(table, 200, "low")
        aux_before = len(dm.aux)
        landed = dm.insert(batch)
        assert landed > 100
        assert len(dm.aux) >= aux_before + landed - 5

    def test_duplicate_insert_rejected(self):
        table, dm = fresh_mapping()
        with pytest.raises(ValueError, match="already exist"):
            dm.insert(batch_columns(table.head(3)))

    def test_insert_requires_all_columns(self):
        table, dm = fresh_mapping()
        with pytest.raises(ValueError, match="columns"):
            dm.insert({"key": np.array([99_999])})

    def test_out_of_domain_insert_triggers_rebuild(self):
        table, dm = fresh_mapping(headroom=0.0)
        batch = synthetic.insert_batch(table, 50, "high")
        rebuilds_before = dm.tracker.total_retrains
        dm.insert(batch)
        assert dm.tracker.total_retrains == rebuilds_before + 1
        assert dm.lookup({"key": batch.column("key")}).found.all()
        assert len(dm) == table.n_rows + 50

    def test_insert_with_new_vocabulary_value(self):
        keys = np.arange(100, dtype=np.int64)
        table = ColumnTable(
            {"key": keys, "status": np.where(keys % 2 == 0, "EVEN", "ODD")},
            key=("key",),
        )
        dm = DeepMapping.fit(table, fast_config(key_headroom_fraction=1.0))
        dm.insert({"key": np.array([150]), "status": np.array(["BRAND-NEW"])})
        assert dm.lookup_one(key=150)["status"] == "BRAND-NEW"


class TestDelete:
    def test_deleted_keys_become_null(self):
        table, dm = fresh_mapping()
        victims = table.column("key")[:20]
        deleted = dm.delete({"key": victims})
        assert deleted == 20
        assert not dm.lookup({"key": victims}).found.any()
        assert len(dm) == table.n_rows - 20

    def test_delete_absent_keys_is_noop(self):
        table, dm = fresh_mapping()
        assert dm.delete({"key": np.array([10**7])}) == 0
        assert len(dm) == table.n_rows

    def test_delete_removes_aux_rows(self):
        table, dm = fresh_mapping(correlation="low", epochs=3)
        aux_before = len(dm.aux)
        assert aux_before > 0
        victims = table.column("key")[:50]
        dm.delete({"key": victims})
        assert len(dm.aux) < aux_before

    def test_delete_accepts_plain_array(self):
        table, dm = fresh_mapping()
        dm.delete(table.column("key")[:5])
        assert not dm.lookup({"key": table.column("key")[:5]}).found.any()

    def test_survivors_unaffected(self):
        table, dm = fresh_mapping()
        dm.delete({"key": table.column("key")[:100]})
        rest = table.column("key")[100:]
        result = dm.lookup({"key": rest})
        assert result.found.all()
        for col in table.value_columns:
            np.testing.assert_array_equal(
                result.values[col], table.column(col)[100:]
            )


class TestUpdate:
    def test_updated_values_visible(self):
        table, dm = fresh_mapping()
        rows = {
            "key": table.column("key")[:3],
            "v0": np.array([1, 1, 1]),
            "v1": np.array([2, 2, 2]),
            "v2": np.array([3, 3, 3]),
            "v3": np.array([0, 0, 0]),
        }
        dm.update(rows)
        result = dm.lookup({"key": rows["key"]})
        assert result.found.all()
        np.testing.assert_array_equal(result.values["v1"], rows["v1"])

    def test_update_to_model_predicted_value_drops_aux_row(self):
        """Algorithm 5: when the new value matches the model's prediction,
        any existing T_aux entry is removed instead of updated."""
        table, dm = fresh_mapping(n=1500, correlation="high", epochs=80)
        keys = table.column("key")
        # Find a row the model predicts correctly (and not near a tie).
        labels = {t: dm.fdecode.encoders[t].encode(table.column(t))
                  for t in dm.value_names}
        correct = ~dm.compiled_session().lost_rows(
            dm.key_codec.flatten({"key": keys}), labels)
        assert correct.any()
        idx = int(np.flatnonzero(correct)[0])
        # Force the row into aux with a different value, then restore it.
        original = {t: table.column(t)[idx: idx + 1] for t in dm.value_names}
        twisted = {t: np.array([(int(original[t][0]) + 1) % 2])
                   for t in dm.value_names}
        dm.update({"key": keys[idx: idx + 1], **twisted})
        assert dm.aux.contains(int(dm.key_codec.flatten(
            {"key": keys[idx: idx + 1]})[0]))
        dm.update({"key": keys[idx: idx + 1], **original})
        assert not dm.aux.contains(int(dm.key_codec.flatten(
            {"key": keys[idx: idx + 1]})[0]))

    def test_update_missing_key_rejected(self):
        table, dm = fresh_mapping()
        with pytest.raises(KeyError, match="do not exist"):
            dm.update({
                "key": np.array([10**7]),
                "v0": np.array([0]), "v1": np.array([0]),
                "v2": np.array([0]), "v3": np.array([0]),
            })


class TestDictModelEquivalence:
    def test_interleaved_operations_match_dict_replay(self):
        """Invariant 3 from DESIGN.md: any interleaving of modifications
        leaves the structure equivalent to a plain dict replay."""
        table, dm = fresh_mapping(n=400, epochs=30)
        model = {int(k): tuple(int(table.column(f"v{j}")[i]) for j in range(4))
                 for i, k in enumerate(table.column("key"))}
        rng = np.random.default_rng(3)

        # Delete some rows.
        victims = rng.choice(table.column("key"), size=40, replace=False)
        dm.delete({"key": victims})
        for k in victims:
            model.pop(int(k), None)

        # Insert fresh rows.
        batch = synthetic.insert_batch(table, 60, "low", seed=7)
        dm.insert(batch)
        for i, k in enumerate(batch.column("key")):
            model[int(k)] = tuple(int(batch.column(f"v{j}")[i]) for j in range(4))

        # Update surviving rows.
        survivors = np.array(sorted(model))[:30]
        new_vals = {f"v{j}": rng.integers(0, 2, size=30) for j in range(4)}
        dm.update({"key": survivors, **new_vals})
        for i, k in enumerate(survivors):
            model[int(k)] = tuple(int(new_vals[f"v{j}"][i]) for j in range(4))

        probe = np.arange(0, int(max(model) + 10), dtype=np.int64)
        result = dm.lookup({"key": probe})
        for i, k in enumerate(probe.tolist()):
            if k in model:
                assert result.found[i], k
                got = tuple(int(result.values[f"v{j}"][i]) for j in range(4))
                assert got == model[k], k
            else:
                assert not result.found[i], k


class TestRetrainTrigger:
    def test_tracker_thresholds(self):
        tracker = ModificationTracker(threshold_bytes=100)
        tracker.record(60)
        assert not tracker.should_retrain()
        tracker.record(50)
        assert tracker.should_retrain()
        tracker.mark_rebuilt()
        assert not tracker.should_retrain()
        assert tracker.total_retrains == 1

    def test_tracker_disabled(self):
        tracker = ModificationTracker(None)
        tracker.record(10**12)
        assert not tracker.should_retrain()

    def test_tracker_validation(self):
        with pytest.raises(ValueError):
            ModificationTracker(0)

    def test_retrain_fires_and_preserves_content(self):
        table, dm = fresh_mapping(n=400, retrain_threshold_bytes=1)
        batch = synthetic.insert_batch(table, 30, "high")
        dm.insert(batch)  # any modification exceeds the 1-byte threshold
        assert dm.tracker.total_retrains >= 1
        result = dm.lookup({"key": batch.column("key")})
        assert result.found.all()
        assert dm.lookup({"key": table.column("key")}).found.all()

    def test_no_retrain_without_threshold(self):
        table, dm = fresh_mapping(n=400)
        dm.insert(synthetic.insert_batch(table, 30, "high"))
        assert dm.tracker.total_retrains == 0


class TestTrackerPersistence:
    def test_state_round_trip(self):
        tracker = ModificationTracker(threshold_bytes=500)
        tracker.record(120, n_ops=3)
        tracker.mark_rebuilt()
        tracker.record(77, n_ops=2)
        restored = ModificationTracker.from_state(tracker.to_state())
        assert restored.threshold_bytes == 500
        assert restored.bytes_since_build == 77
        assert restored.ops_since_build == 2
        assert restored.total_retrains == 1

    def test_counters_survive_save_load(self, tmp_path):
        """Sec. IV-D: the retrain threshold must not silently restart
        after every process restart."""
        table, dm = fresh_mapping(n=400, retrain_threshold_bytes=10**9)
        dm.insert(synthetic.insert_batch(table, 40, "high"))
        assert dm.tracker.bytes_since_build > 0
        path = str(tmp_path / "store.dm")
        dm.save(path)

        loaded = DeepMapping.open(path)
        assert loaded.tracker.bytes_since_build == dm.tracker.bytes_since_build
        assert loaded.tracker.ops_since_build == dm.tracker.ops_since_build
        assert loaded.tracker.total_retrains == dm.tracker.total_retrains
        # Threshold comes from the config, counters from the payload.
        assert loaded.tracker.threshold_bytes == 10**9

    def test_accumulation_crosses_a_restart(self, tmp_path):
        """Modifications before and after a save/load both count toward
        one threshold."""
        table, dm = fresh_mapping(n=400, retrain_threshold_bytes=10**9)
        dm.insert(synthetic.insert_batch(table, 20, "high"))
        before = dm.tracker.bytes_since_build
        path = str(tmp_path / "store.dm")
        dm.save(path)
        loaded = DeepMapping.open(path)
        grown = loaded.to_table()
        loaded.insert(synthetic.insert_batch(grown, 20, "high"))
        assert loaded.tracker.bytes_since_build > before

    def test_domain_rebuild_preserves_tracker_history(self):
        """An out-of-domain insert rebuilds the structure wholesale; the
        modification history must survive the swap."""
        table, dm = fresh_mapping(n=300, headroom=1.0,
                                  retrain_threshold_bytes=10**9)
        dm.insert(synthetic.insert_batch(table, 10, "high"))
        tracker = dm.tracker
        far_key = int(table.column("key").max()) * 10 + 3
        dm.insert({
            "key": np.array([far_key], dtype=np.int64),
            **{c: np.array([table.column(c)[0]])
               for c in dm.value_names},
        })
        assert dm.tracker is tracker  # same logical history object
        assert dm.tracker.total_retrains == 1


class TestAuxRatioRetrain:
    def test_aux_ratio_triggers_rebuild(self):
        """With retrain_aux_ratio set, a flood of mispredicted rows
        (low-correlation inserts) forces a retrain."""
        table, dm = fresh_mapping(n=400, correlation="low", headroom=1.0,
                                  retrain_aux_ratio=0.05, epochs=40)
        batch = synthetic.insert_batch(table, 200, "low")
        dm.insert(batch)
        assert dm.tracker.total_retrains >= 1
        assert dm.lookup({"key": batch.column("key")}).found.all()

    def test_tiny_store_never_ratio_thrashes(self):
        """Below the row floor, the ratio trigger stays quiet even when
        the aux table dominates — a tiny noise table would otherwise
        rebuild on every batch."""
        table, dm = fresh_mapping(n=40, correlation="low", headroom=2.0,
                                  retrain_aux_ratio=0.01, epochs=3)
        dm.insert(synthetic.insert_batch(table, 5, "low"))
        assert dm.tracker.total_retrains == 0

    def test_auto_rebuild_flag_suppresses_inline_retrain(self):
        table, dm = fresh_mapping(n=300, retrain_threshold_bytes=1)
        dm.auto_rebuild = False
        dm.insert(synthetic.insert_batch(table, 20, "high"))
        assert dm.tracker.total_retrains == 0
        assert dm.tracker.bytes_since_build > 0  # still records

    def test_config_validation(self):
        from repro.core import DeepMappingConfig
        with pytest.raises(ValueError):
            DeepMappingConfig(retrain_aux_ratio=0.0)
        with pytest.raises(ValueError):
            DeepMappingConfig(retrain_aux_ratio=1.5)
