"""Tests for the MHAS search loop (paper Algorithm 2)."""

import importlib

import numpy as np
import pytest

from repro import DeepMapping
from repro.core import DeepMappingConfig
from repro.core.mhas import MHASConfig, measure_aux_bytes_per_row, search
from repro.data import KeyEncoder, synthetic


def search_problem(n=1500):
    """Training input, labels, softmax widths, ``size(D)``, and the
    keyword arguments that price candidates as a build would."""
    table = synthetic.multi_column(n, "high")
    keys = table.column("key").astype(np.int64)
    encoder = KeyEncoder().fit(int(keys.max()))
    x = encoder.encode(keys)
    labels = {c: table.column(c) for c in table.value_columns}
    dims = {c: int(labels[c].max()) + 1 for c in labels}
    pricing = dict(flat_keys=keys, key_encoder=encoder,
                   aux_bytes_per_row=measure_aux_bytes_per_row(keys, labels))
    return x, labels, dims, table.uncompressed_bytes(), pricing


def quick_config(**overrides):
    defaults = dict(
        iterations=8,
        controller_every=2,
        controller_samples=2,
        model_epochs=1,
        model_batch=512,
        size_choices=(16, 32),
        eval_sample=512,
    )
    defaults.update(overrides)
    return MHASConfig(**defaults)


class TestSearch:
    def test_returns_spec_model_history(self):
        x, labels, dims, nbytes, pricing = search_problem()
        outcome = search(x, labels, dims, dataset_bytes=nbytes,
                         overhead_bytes=100, **pricing, config=quick_config(),
                         rng=np.random.default_rng(0))
        assert outcome.spec.input_dim == x.shape[1]
        assert set(outcome.spec.output_dims) == set(dims)
        assert len(outcome.history) > 0
        assert outcome.best_ratio < float("inf")

    def test_history_records_both_phases(self):
        x, labels, dims, nbytes, pricing = search_problem()
        outcome = search(x, labels, dims, dataset_bytes=nbytes,
                         overhead_bytes=100, **pricing, config=quick_config(),
                         rng=np.random.default_rng(1))
        phases = {s.phase for s in outcome.history}
        assert phases == {"model", "controller"}

    def test_best_ratio_is_min_of_history(self):
        x, labels, dims, nbytes, pricing = search_problem()
        outcome = search(x, labels, dims, dataset_bytes=nbytes,
                         overhead_bytes=100, **pricing, config=quick_config(),
                         rng=np.random.default_rng(2))
        assert outcome.best_ratio == pytest.approx(outcome.ratios().min())

    def test_ratios_improve_over_search(self):
        """Fig. 9's shape: the best ratio found keeps improving as shared
        weights train; the final best clearly beats the first sample."""
        x, labels, dims, nbytes, pricing = search_problem(n=2500)
        outcome = search(x, labels, dims, dataset_bytes=nbytes,
                         overhead_bytes=100, **pricing,
                         config=quick_config(iterations=16),
                         rng=np.random.default_rng(3))
        ratios = outcome.ratios()
        assert outcome.best_ratio < ratios[0]
        # Running best (the paper smooths with a window) is monotone and
        # must improve beyond the initial flat region.
        running_best = np.minimum.accumulate(ratios)
        assert running_best[-1] < running_best[len(ratios) // 4]

    def test_returned_model_uses_best_spec(self):
        x, labels, dims, nbytes, pricing = search_problem()
        outcome = search(x, labels, dims, dataset_bytes=nbytes,
                         overhead_bytes=100, **pricing, config=quick_config(),
                         rng=np.random.default_rng(4))
        assert outcome.model.spec == outcome.spec

    def test_early_stop_on_plateau(self):
        x, labels, dims, nbytes, pricing = search_problem(n=400)
        config = quick_config(iterations=200, controller_every=1, tol=1e9,
                              patience=2)
        outcome = search(x, labels, dims, dataset_bytes=nbytes,
                         overhead_bytes=100, **pricing, config=config,
                         rng=np.random.default_rng(5))
        assert outcome.converged
        assert outcome.iterations_run < 200

    def test_deterministic_given_rng(self):
        x, labels, dims, nbytes, pricing = search_problem(n=400)
        a = search(x, labels, dims, dataset_bytes=nbytes, overhead_bytes=100, **pricing,
                   config=quick_config(), rng=np.random.default_rng(7))
        b = search(x, labels, dims, dataset_bytes=nbytes, overhead_bytes=100, **pricing,
                   config=quick_config(), rng=np.random.default_rng(7))
        assert a.spec == b.spec
        np.testing.assert_allclose(a.ratios(), b.ratios())


def test_fit_prices_aux_rows_with_the_build_codec(monkeypatch):
    """The search charges a ``T_aux`` row what the build will pay: one
    price, measured on the real flat keys with the configured codec and
    partition size."""
    search_module = importlib.import_module("repro.core.mhas.search")
    original = search_module.estimate_ratio
    prices = []

    def spy(*args, **kwargs):
        prices.append(kwargs["aux_bytes_per_row"])
        return original(*args, **kwargs)

    monkeypatch.setattr(search_module, "estimate_ratio", spy)
    table = synthetic.multi_column(600, "high")
    config = DeepMappingConfig(
        use_search=True, search=quick_config(iterations=2), epochs=2,
        aux_codec="lzma", aux_partition_bytes=4096)
    dm = DeepMapping.fit(table, config)
    flat = dm.model.key_codec.flatten(table.key_columns_dict())
    labels = dm.model.fdecode.encode(table.value_columns_dict())
    lzma = measure_aux_bytes_per_row(flat, labels, codec="lzma",
                                     partition_bytes=4096)
    assert prices and set(prices) == {lzma}
    assert lzma != measure_aux_bytes_per_row(flat, labels)
