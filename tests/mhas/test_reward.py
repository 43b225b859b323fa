"""Tests for the Eq. 1 reward estimators."""

import numpy as np
import pytest

from repro.core.mhas import (
    approx_model_bytes,
    estimate_ratio,
    flops_per_lookup,
    measure_aux_bytes_per_row,
)
from repro.nn import ArchitectureSpec, InferenceSession, MultiTaskMLP
from repro.nn.inference import WIDTH_CANDIDATES, choose_width


def make_spec(shared=(16,), private=(8,)):
    return ArchitectureSpec(
        input_dim=10,
        shared_sizes=shared,
        private_sizes={"a": private},
        output_dims={"a": 4},
    )


class TestApproxModelBytes:
    def test_tracks_serialized_size(self):
        """Within 0.5-2x of the real ``nbytes`` at every width the
        freeze may choose — the estimate the search ranks candidates by
        counts the bytes that are persisted."""
        spec = make_spec()
        model = MultiTaskMLP(spec, rng=np.random.default_rng(0))
        for dtype in ("float16", "float32"):
            for bits in WIDTH_CANDIDATES:
                session = InferenceSession.from_model(model, dtype, bits=bits)
                estimate = approx_model_bytes(spec, bits, dtype)
                assert 0.5 * session.nbytes < estimate < 2.0 * session.nbytes

    def test_grows_with_width(self):
        small = approx_model_bytes(make_spec(shared=(8,)))
        large = approx_model_bytes(make_spec(shared=(256,)))
        assert large > small
        wide = make_spec(shared=(256,))
        assert (approx_model_bytes(wide, 3) < approx_model_bytes(wide, 8)
                < approx_model_bytes(wide) < approx_model_bytes(
                    wide, weight_dtype="float32"))


class TestAuxBytesPerRow:
    def test_positive_and_bounded(self):
        keys = np.arange(1000, dtype=np.int64)
        labels = {"a": keys % 5}
        per_row = measure_aux_bytes_per_row(keys, labels)
        assert 0.25 <= per_row < 64

    def test_empty_input(self):
        assert measure_aux_bytes_per_row(np.empty(0, dtype=np.int64), {}) == 1.0

    def test_random_rows_cost_more_than_structured(self):
        keys = np.arange(4000, dtype=np.int64)
        rng = np.random.default_rng(0)
        structured = measure_aux_bytes_per_row(keys, {"a": keys % 3})
        noisy = measure_aux_bytes_per_row(
            keys, {"a": rng.integers(0, 1000, size=4000)}
        )
        assert noisy > structured


class TestEstimateRatio:
    def test_perfect_model_excludes_aux(self):
        """No row is lost at any width, so the ratio is the model alone,
        sized at the narrowest candidate — the width the freeze takes."""
        rng = np.random.default_rng(1)
        spec = make_spec(shared=(32,), private=(16,))
        model = MultiTaskMLP(spec, rng=rng)
        x = rng.normal(size=(200, 10)).astype(np.float32)
        idx = np.arange(200)
        ratio = estimate_ratio(model, x, {"a": np.zeros(200, np.int64)},
                               n_rows=200, aux_bytes_per_row=0.0,
                               overhead_bytes=0, dataset_bytes=100_000,
                               sample_idx=idx)
        assert ratio == pytest.approx(
            approx_model_bytes(spec, min(WIDTH_CANDIDATES[1:])) / 100_000,
            rel=1e-6)

    def test_sized_at_the_width_the_freeze_chooses(self):
        """The search and the freeze minimise one expression: the
        estimate equals Eq. 1 recomputed at the chooser's own pick, and
        ``weight_dtype`` bounds it from above."""
        rng = np.random.default_rng(4)
        spec = make_spec(shared=(32,), private=(16,))
        model = MultiTaskMLP(spec, rng=rng)
        x = rng.normal(size=(300, 10)).astype(np.float32)
        labels = {"a": InferenceSession.from_model(
            model, "float32").run(x)["a"]}
        idx = np.arange(300)

        def wrong(session):
            return float((session.run(x)["a"] != labels["a"]).mean())

        for dtype in ("float16", "float32"):
            ratio = estimate_ratio(model, x, labels, n_rows=3000,
                                   aux_bytes_per_row=2.5, overhead_bytes=7,
                                   dataset_bytes=50_000, sample_idx=idx,
                                   weight_dtype=dtype)
            chosen, _ = choose_width(
                model, dtype, lambda s: wrong(s) * 3000 * 2.5)
            expected = (approx_model_bytes(spec, chosen.bits, dtype)
                        + wrong(chosen) * 3000 * 2.5 + 7) / 50_000
            assert ratio == pytest.approx(expected, rel=1e-9)
            unpacked = (approx_model_bytes(spec, None, dtype) + 7) / 50_000
            assert ratio <= unpacked

    def test_bad_model_pays_aux(self):
        rng = np.random.default_rng(2)
        spec = make_spec()
        model = MultiTaskMLP(spec, rng=rng)
        x = rng.normal(size=(100, 10)).astype(np.float32)
        wrong = (model.predict_codes(x)["a"] + 1) % 4
        idx = np.arange(100)
        ratio = estimate_ratio(model, x, {"a": wrong}, n_rows=100,
                               aux_bytes_per_row=50.0, overhead_bytes=0,
                               dataset_bytes=10_000, sample_idx=idx)
        assert ratio >= (100 * 50.0) / 10_000

    def test_dataset_bytes_validated(self):
        rng = np.random.default_rng(3)
        model = MultiTaskMLP(make_spec(), rng=rng)
        with pytest.raises(ValueError):
            estimate_ratio(model, np.zeros((1, 10), dtype=np.float32),
                           {"a": np.zeros(1, dtype=np.int64)}, n_rows=1,
                           aux_bytes_per_row=1.0, overhead_bytes=0,
                           dataset_bytes=0, sample_idx=np.arange(1))


class TestFlops:
    def test_counts_mac_per_layer(self):
        spec = make_spec(shared=(16,), private=(8,))
        # 10*16 + 16*8 + 8*4
        assert flops_per_lookup(spec) == 160 + 128 + 32

    def test_deeper_costs_more(self):
        assert flops_per_lookup(make_spec(shared=(64, 64))) > flops_per_lookup(
            make_spec(shared=(64,))
        )
