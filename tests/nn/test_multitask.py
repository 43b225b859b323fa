"""Tests for ArchitectureSpec and MultiTaskMLP, incl. memorization."""

import numpy as np
import pytest

from repro.nn import Adam, ArchitectureSpec, MultiTaskMLP, Parameter, Trainer

from .gradcheck import check_param_grad


def small_spec():
    return ArchitectureSpec(
        input_dim=6,
        shared_sizes=(8,),
        private_sizes={"type": (5,), "status": ()},
        output_dims={"type": 3, "status": 2},
    )


@pytest.fixture
def np_rng():
    return np.random.default_rng(5)


class TestArchitectureSpec:
    def test_tasks_sorted(self):
        assert small_spec().tasks == ("status", "type")

    def test_trunk_output_dim(self):
        assert small_spec().trunk_output_dim() == 8
        spec = ArchitectureSpec(4, (), {"t": ()}, {"t": 2})
        assert spec.trunk_output_dim() == 4

    def test_layer_plan_covers_all_layers(self):
        plan = small_spec().layer_plan()
        scopes = [scope for scope, _, _ in plan]
        assert scopes == ["shared/0", "status/out", "type/private/0", "type/out"]

    def test_param_count(self):
        spec = ArchitectureSpec(2, (3,), {"t": ()}, {"t": 4})
        # 2*3+3 shared + 3*4+4 head
        assert spec.param_count() == 9 + 16

    def test_validation(self):
        with pytest.raises(ValueError):
            ArchitectureSpec(0, (), {"t": ()}, {"t": 2})
        with pytest.raises(ValueError):
            ArchitectureSpec(2, (), {"a": ()}, {"b": 2})
        with pytest.raises(ValueError):
            ArchitectureSpec(2, (), {}, {})
        with pytest.raises(ValueError):
            ArchitectureSpec(2, (), {"t": ()}, {"t": 0})


class TestForward:
    def test_output_shapes(self, np_rng):
        model = MultiTaskMLP(small_spec(), rng=np_rng)
        x = np_rng.normal(size=(10, 6)).astype(np.float32)
        out = model.forward(x, train=False)
        assert out["type"].shape == (10, 3)
        assert out["status"].shape == (10, 2)

    def test_param_count_matches_spec(self, np_rng):
        spec = small_spec()
        model = MultiTaskMLP(spec, rng=np_rng)
        assert model.param_count() == spec.param_count()


class TestBackward:
    def test_whole_model_gradients_match_numeric(self, np_rng):
        model = MultiTaskMLP(small_spec(), rng=np_rng)
        # Run the check in float64 with a tiny eps so ReLU kinks and float32
        # rounding don't pollute the numeric gradient.
        for param in model.parameters():
            param.value = param.value.astype(np.float64)
            param.grad = np.zeros_like(param.value)
        x = np_rng.normal(size=(12, 6)).astype(np.float64)
        labels = {
            "type": np_rng.integers(0, 3, size=12),
            "status": np_rng.integers(0, 2, size=12),
        }

        def loss_fn():
            logits = model.forward(x, train=False)
            total = 0.0
            from repro.nn import softmax_cross_entropy

            for task, lg in logits.items():
                total += softmax_cross_entropy(lg, labels[task])[0]
            return total

        model.loss_and_grad(x, labels)
        for param in model.parameters():
            check_param_grad(loss_fn, param, np_rng, n_checks=4, eps=1e-5,
                             rtol=1e-3, atol=1e-7)

    def test_shared_trunk_receives_both_heads(self, np_rng):
        model = MultiTaskMLP(small_spec(), rng=np_rng)
        x = np_rng.normal(size=(4, 6)).astype(np.float32)
        labels = {"type": np.zeros(4, dtype=np.int64),
                  "status": np.zeros(4, dtype=np.int64)}
        model.loss_and_grad(x, labels)
        trunk_grad = model.shared[0].weight.grad
        assert np.abs(trunk_grad).sum() > 0


class TestWeightSharing:
    def test_external_weight_provider_used(self, np_rng):
        bank = {}

        def provider(scope, in_dim, out_dim):
            key = (scope, in_dim, out_dim)
            if key not in bank:
                bank[key] = (
                    Parameter(np.zeros((in_dim, out_dim), dtype=np.float32)),
                    Parameter(np.zeros(out_dim, dtype=np.float32)),
                )
            return bank[key]

        first = MultiTaskMLP(small_spec(), weights=provider)
        second = MultiTaskMLP(small_spec(), weights=provider)
        assert first.shared[0].weight is second.shared[0].weight


class TestMemorization:
    def test_memorizes_small_correlated_mapping(self, np_rng):
        """Core paper premise: a small MLP can memorize a structured
        key->value mapping perfectly."""
        n, dim = 200, 16
        keys = np.arange(n)
        # Structured labels: derived from key bits (high key-value correlation).
        y_type = (keys // 64) % 3
        y_status = (keys // 16) % 2
        x = ((keys[:, None] >> np.arange(dim)) & 1).astype(np.float32)
        spec = ArchitectureSpec(
            input_dim=dim,
            shared_sizes=(64,),
            private_sizes={"type": (32,), "status": (32,)},
            output_dims={"type": 3, "status": 2},
        )
        model = MultiTaskMLP(spec, rng=np_rng)
        trainer = Trainer(model, Adam(0.01), batch_size=64, tol=0.0,
                          rng=np_rng)
        trainer.fit(x, {"type": y_type, "status": y_status}, epochs=150)
        logits = model.forward(x, train=False)
        assert (logits["type"].argmax(axis=1) == y_type).mean() == 1.0
        assert (logits["status"].argmax(axis=1) == y_status).mean() == 1.0

    def test_state_arrays_named(self, np_rng):
        model = MultiTaskMLP(small_spec(), rng=np_rng)
        arrays = model.state_arrays()
        assert "shared/0.W" in arrays
        assert any(key.startswith("type/") for key in arrays)
