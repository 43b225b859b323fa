"""Tests for warm-started retraining (paper Sec. V-D model reuse)."""

import numpy as np
import pytest

from repro import DeepMapping
from repro.core import DeepMappingConfig
from repro.core.model import Model
from repro.data import synthetic
from repro.nn import ArchitectureSpec, InferenceSession, MultiTaskMLP
from repro.testing.oracles import reference_logits

from .conftest import fast_config


class TestLoadStateArrays:
    def test_matching_tensors_copied(self):
        rng = np.random.default_rng(0)
        spec = ArchitectureSpec(8, (16,), {"t": (8,)}, {"t": 3})
        source = MultiTaskMLP(spec, rng=rng)
        target = MultiTaskMLP(spec, rng=np.random.default_rng(1))
        loaded = target.load_state_arrays(source.state_arrays())
        assert loaded == 6  # 3 layers x (W, b)
        np.testing.assert_array_equal(target.shared[0].weight.value,
                                      source.shared[0].weight.value)

    def test_shape_mismatches_skipped(self):
        rng = np.random.default_rng(0)
        small = MultiTaskMLP(ArchitectureSpec(8, (16,), {"t": ()}, {"t": 3}),
                             rng=rng)
        wide = MultiTaskMLP(ArchitectureSpec(8, (32,), {"t": ()}, {"t": 3}),
                            rng=np.random.default_rng(1))
        before = wide.shared[0].weight.value.copy()
        loaded = wide.load_state_arrays(small.state_arrays())
        # Only the output bias (3,) still matches; mismatched weight
        # matrices keep their fresh initialization.
        assert loaded == 1
        np.testing.assert_array_equal(wide.shared[0].weight.value, before)

    def test_partial_transfer_on_grown_head(self):
        rng = np.random.default_rng(0)
        base = MultiTaskMLP(ArchitectureSpec(8, (16,), {"t": ()}, {"t": 3}),
                            rng=rng)
        grown = MultiTaskMLP(ArchitectureSpec(8, (16,), {"t": ()}, {"t": 5}),
                             rng=np.random.default_rng(1))
        loaded = grown.load_state_arrays(base.state_arrays())
        assert loaded == 2  # only the shared layer transfers

    def test_session_arrays_compatible_with_model(self):
        rng = np.random.default_rng(2)
        spec = ArchitectureSpec(6, (12,), {"a": (4,), "b": ()},
                                {"a": 3, "b": 2})
        model = MultiTaskMLP(spec, rng=rng)
        session = InferenceSession.from_model(model, weight_dtype="float32")
        clone = MultiTaskMLP(spec, rng=np.random.default_rng(3))
        loaded = clone.load_state_arrays(session.state_arrays())
        assert loaded == len(model.parameters())
        x = rng.normal(size=(10, 6)).astype(np.float32)
        np.testing.assert_array_equal(
            clone.forward(x, train=False)["a"].argmax(axis=1),
            model.forward(x, train=False)["a"].argmax(axis=1))


    @pytest.mark.parametrize("bits", [8, 4, 3])
    def test_packed_session_transfers_every_tensor(self, bits):
        """A retrain warm-started from bit-packed weights starts from
        the dequantised model: every tensor transfers, at float32, and
        the clone predicts what the packed session predicts."""
        rng = np.random.default_rng(5)
        spec = ArchitectureSpec(6, (12,), {"a": (4,), "b": ()},
                                {"a": 3, "b": 2})
        model = MultiTaskMLP(spec, rng=rng)
        session = InferenceSession.from_model(model, bits=bits)
        arrays = session.state_arrays()
        assert set(arrays) == set(model.state_arrays())
        assert all(a.dtype == np.float32 for a in arrays.values())
        clone = MultiTaskMLP(spec, rng=np.random.default_rng(6))
        assert clone.load_state_arrays(arrays) == len(model.parameters())
        x = rng.normal(size=(40, 6)).astype(np.float32)
        for task in spec.tasks:
            np.testing.assert_array_equal(
                clone.forward(x, train=False)[task].argmax(axis=1),
                reference_logits(session, x)[task].argmax(axis=1))


class TestWarmStartFit:
    def test_warm_start_lowers_initial_loss(self):
        table = synthetic.multi_column(800, "high")
        cold = Model.fit(table, fast_config(epochs=40))
        warm = Model.fit(table, fast_config(epochs=2),
                         warm_start=cold.model.session.state_arrays())
        assert warm.model.warm_started_tensors > 0
        cold_restart = Model.fit(table, fast_config(epochs=2))
        assert (warm.model.last_training.epoch_losses[0]
                < cold_restart.model.last_training.epoch_losses[0])

    def test_warm_start_preserves_losslessness(self):
        table = synthetic.multi_column(500, "low")
        store = DeepMapping.fit(table, fast_config(epochs=5))
        store.rebuild(fast_config(epochs=1))
        assert store.model.warm_started_tensors > 0
        result = store.lookup({"key": table.column("key")})
        assert result.found.all()
        for column in table.value_columns:
            np.testing.assert_array_equal(result.values[column],
                                          table.column(column))


class TestWarmRebuild:
    def test_rebuild_transfers_weights_by_default(self):
        table = synthetic.multi_column(600, "high")
        dm = DeepMapping.fit(table, fast_config(epochs=30,
                                                key_headroom_fraction=1.0))
        dm.rebuild()
        assert dm.model.warm_started_tensors > 0

    def test_rebuild_from_a_packed_store_transfers_every_tensor(self):
        table = synthetic.multi_column(600, "high")
        dm = DeepMapping.fit(table, fast_config(epochs=30))
        assert dm.model.session.bits is not None
        dm.rebuild()
        assert dm.model.warm_started_tensors == 2 * len(
            dm.model.session.spec.layer_plan())
        result = dm.lookup({"key": table.column("key")})
        assert result.found.all()
        for column in table.value_columns:
            np.testing.assert_array_equal(result.values[column],
                                          table.column(column))

    def test_rebuild_cold_when_disabled(self):
        table = synthetic.multi_column(600, "high")
        config = fast_config(epochs=10, warm_start_rebuild=False)
        dm = DeepMapping.fit(table, config)
        dm.rebuild()
        assert dm.model.warm_started_tensors == 0

    def test_warm_rebuild_converges_faster(self):
        """The paper's motivation: reuse makes the expensive retrain step
        cheap.  With a tight tolerance, the warm rebuild stops in fewer
        epochs than the cold one."""
        table = synthetic.multi_column(1500, "high")
        config = fast_config(epochs=120, tol=1e-4, shared_sizes=(64,),
                             private_sizes=(32,))
        dm = Model.fit(table, config)

        dm_warm = Model.fit(table, config,
                            warm_start=dm.model.session.state_arrays())
        dm_cold = Model.fit(table, config)
        assert (dm_warm.model.last_training.epochs_run
                <= dm_cold.model.last_training.epochs_run)
