"""Tests for the one retrain rule and the bounds a lifecycle policy names.

``DeepMapping.retrain_due`` reads three things: the tracker's byte count,
``len(self)`` and ``len(self.aux)``.  The truth table runs the real method
over a stand-in that sets exactly those, so each bound can be put at its
edge without training a model.
"""

import pytest

from repro.core import DeepMapping, DeepMappingConfig, ModificationTracker
from repro.core.modify import MIN_ROWS_FOR_RATIO_RETRAIN
from repro.lifecycle import LifecycleConfig, POLICY_NAMES


class Unreadable:
    """An aux table whose length must not be asked for."""

    def __len__(self):
        raise AssertionError("len(aux) read with no ratio bound set")


class Structure:
    """What ``retrain_due`` reads, and nothing else."""

    retrain_due = DeepMapping.retrain_due
    aux_ratio = DeepMapping.aux_ratio
    _aux_rows = DeepMapping._aux_rows

    def __init__(self, n_rows=1000, aux_rows=0, bytes_since=0, aux=None):
        self.n_rows = n_rows
        self.aux = aux if aux is not None else range(aux_rows)
        self.tracker = ModificationTracker()
        self.tracker.record(bytes_since)

    def __len__(self):
        return self.n_rows


class TestPolicies:
    """The truth table of the one rule."""

    def test_bytes_threshold(self):
        assert not Structure(bytes_since=99).retrain_due(100, None)
        assert Structure(bytes_since=100).retrain_due(100, None)
        # The bytes bound alone never counts T_aux.
        assert Structure(bytes_since=100,
                         aux=Unreadable()).retrain_due(100, None)

    def test_bytes_threshold_none_never_fires(self):
        shard = Structure(bytes_since=10**12, aux=Unreadable())
        assert not shard.retrain_due(None, None)

    def test_bytes_threshold_validation(self):
        with pytest.raises(ValueError):
            LifecycleConfig(retrain_bytes=0)
        with pytest.raises(ValueError):
            DeepMappingConfig(retrain_threshold_bytes=0)

    def test_aux_ratio(self):
        assert not Structure(aux_rows=499).retrain_due(None, 0.5)
        assert Structure(aux_rows=500).retrain_due(None, 0.5)
        # Either bound suffices.
        assert Structure(aux_rows=500, bytes_since=1).retrain_due(100, 0.5)
        assert Structure(aux_rows=0, bytes_since=100).retrain_due(100, 0.5)

    def test_aux_ratio_min_rows_guard(self):
        """A freshly materialized micro-shard (all rows in aux) must not
        thrash through retrains."""
        assert MIN_ROWS_FOR_RATIO_RETRAIN == 64
        assert not Structure(n_rows=63, aux_rows=63).retrain_due(None, 0.5)
        assert Structure(n_rows=64, aux_rows=64).retrain_due(None, 0.5)
        assert Structure(n_rows=64, aux_rows=32).retrain_due(None, 0.5)
        assert not Structure(n_rows=64, aux_rows=31).retrain_due(None, 0.5)

    def test_aux_ratio_validation(self):
        with pytest.raises(ValueError):
            LifecycleConfig(aux_ratio=0.0)
        with pytest.raises(ValueError):
            LifecycleConfig(aux_ratio=1.5)

    def test_never(self):
        shard = Structure(bytes_since=10**12, n_rows=1000, aux_rows=1000)
        assert not shard.retrain_due(None, None)

    def test_empty_shard_ratio_is_zero(self):
        empty = Structure(n_rows=0)
        assert empty.aux_ratio() == 0.0
        assert not empty.retrain_due(None, 0.01)


class TestLifecycleConfig:
    def test_defaults_valid(self):
        config = LifecycleConfig()
        assert config.policy == "bytes"
        assert not config.rebalance

    def test_state_round_trip(self):
        config = LifecycleConfig(policy="aux-ratio", aux_ratio=0.3,
                                 rebalance=True, split_balance=3.0,
                                 max_shards=16)
        restored = LifecycleConfig.from_state(config.to_state())
        assert restored == config

    def test_from_state_ignores_unknown_keys(self):
        """Manifests written by a newer version — or an older one that
        still saved ``policy_min_rows`` or the per-shard sizing knobs —
        must still load."""
        state = LifecycleConfig().to_state()
        state["future_knob"] = 42
        state["policy_min_rows"] = 1
        state["per_shard_mhas"] = True
        state["sizing_reference_rows"] = 4096
        assert LifecycleConfig.from_state(state) == LifecycleConfig()

    def test_retrain_bounds_per_policy_name(self):
        bounds = {name: LifecycleConfig(policy=name, retrain_bytes=10,
                                        aux_ratio=0.25).retrain_bounds(99)
                  for name in POLICY_NAMES}
        assert bounds == {"bytes": (10, None), "aux-ratio": (None, 0.25),
                          "never": (None, None)}

    def test_retrain_bounds_falls_back_to_config_threshold(self):
        assert LifecycleConfig(policy="bytes").retrain_bounds(12345) \
            == (12345, None)
        assert LifecycleConfig(policy="bytes", retrain_bytes=99) \
            .retrain_bounds(12345) == (99, None)
        # No threshold anywhere: the bytes bound is off.
        assert LifecycleConfig(policy="bytes").retrain_bounds(None) \
            == (None, None)

    def test_validation(self):
        with pytest.raises(ValueError):
            LifecycleConfig(policy="sometimes")
        with pytest.raises(ValueError):
            LifecycleConfig(split_balance=1.0)
        with pytest.raises(ValueError):
            LifecycleConfig(merge_balance=2.5, split_balance=2.0)
        with pytest.raises(ValueError):
            LifecycleConfig(min_shards=8, max_shards=4)
        with pytest.raises(ValueError):
            LifecycleConfig(max_actions_per_run=0)
