"""Tests for the frozen InferenceSession: the stored model, which runs
no forward pass of its own (``reference_logits`` is its test oracle)."""

import pickle

import numpy as np
import pytest

from repro.nn import ArchitectureSpec, InferenceSession, MultiTaskMLP
from repro.testing.oracles import reference_logits


def codes(logits):
    return {task: out.argmax(axis=1) for task, out in logits.items()}


def trained_model(rng):
    spec = ArchitectureSpec(
        input_dim=5,
        shared_sizes=(12,),
        private_sizes={"a": (6,), "b": ()},
        output_dims={"a": 4, "b": 3},
    )
    return MultiTaskMLP(spec, rng=rng)


@pytest.fixture
def np_rng():
    return np.random.default_rng(21)


class TestFreeze:
    def test_float32_session_matches_model_exactly(self, np_rng):
        model = trained_model(np_rng)
        session = InferenceSession.from_model(model, weight_dtype="float32")
        x = np_rng.normal(size=(40, 5)).astype(np.float32)
        np.testing.assert_array_equal(
            codes(reference_logits(session, x))["a"],
            codes(model.forward(x, train=False))["a"])

    def test_float16_session_predictions_close(self, np_rng):
        model = trained_model(np_rng)
        session = InferenceSession.from_model(model, weight_dtype="float16")
        x = np_rng.normal(size=(200, 5)).astype(np.float32)
        agreement = (codes(reference_logits(session, x))["a"]
                     == codes(model.forward(x, train=False))["a"]).mean()
        assert agreement > 0.95

    def test_float16_halves_model_bytes(self, np_rng):
        model = trained_model(np_rng)
        half = InferenceSession.from_model(model, weight_dtype="float16").nbytes
        full = InferenceSession.from_model(model, weight_dtype="float32").nbytes
        assert half < full * 0.75

    def test_param_count_matches_model(self, np_rng):
        model = trained_model(np_rng)
        session = InferenceSession.from_model(model)
        assert session.param_count() == model.param_count()


class TestRun:
    def test_run_logits_shapes(self, np_rng):
        session = InferenceSession.from_model(trained_model(np_rng))
        logits = reference_logits(session, np.zeros((7, 5), dtype=np.float32))
        assert logits["a"].shape == (7, 4)
        assert logits["b"].shape == (7, 3)

    def test_tasks_property(self, np_rng):
        session = InferenceSession.from_model(trained_model(np_rng))
        assert session.tasks == ("a", "b")


class TestSerialization:
    def test_roundtrip_preserves_predictions(self, np_rng):
        model = trained_model(np_rng)
        session = InferenceSession.from_model(model)
        clone = InferenceSession.from_state(session.to_state())
        x = np_rng.normal(size=(30, 5)).astype(np.float32)
        np.testing.assert_array_equal(reference_logits(session, x)["a"],
                                      reference_logits(clone, x)["a"])
        assert clone.spec == session.spec

    def test_nbytes_equals_serialized_length(self, np_rng):
        session = InferenceSession.from_model(trained_model(np_rng))
        assert session.nbytes == len(pickle.dumps(
            session.to_state(), protocol=pickle.HIGHEST_PROTOCOL))

    def test_nbytes_memoized(self, np_rng, monkeypatch):
        """Weights are frozen, so the state is pickled at most once."""
        session = InferenceSession.from_model(trained_model(np_rng))
        calls = []
        original = InferenceSession.to_state
        monkeypatch.setattr(
            InferenceSession, "to_state",
            lambda self: (calls.append(1), original(self))[1])
        expected = session.nbytes
        assert session.nbytes == expected
        assert repr(session)  # __repr__ paths must not re-pickle either
        assert len(calls) <= 1
