"""Tests for the benchmark measurement harness."""

import numpy as np
import pytest

from repro import DeepMapping
from repro.bench import (
    build_system,
    dm_with_codec,
    key_batches,
    measure_lookup,
    run_comparison,
    storage_of,
)
from repro.core import DeepMappingConfig
from repro.data import synthetic


@pytest.fixture(scope="module")
def table():
    return synthetic.single_column(600, "high")


FAST_DM = DeepMappingConfig(epochs=20, batch_size=256, shared_sizes=(32,),
                            private_sizes=(16,))


class TestBuildSystem:
    def test_builds_baseline(self, table):
        store = build_system("ABC-Z", table)
        assert store.name == "ABC-Z"
        assert storage_of(store) > 0

    def test_builds_dm(self, table):
        dm = build_system("DM-Z", table, dm_config=FAST_DM)
        assert isinstance(dm, DeepMapping)
        assert dm.config.aux_codec == "zstd"

    def test_dm_template_reuse(self, table):
        template = build_system("DM-Z", table, dm_config=FAST_DM)
        clone = build_system("DM-L", table, dm_template=template)
        assert clone.config.aux_codec == "lzma"
        # The model is shared, not retrained.
        assert clone.model.session is template.model.session


class TestDmWithCodec:
    def test_clone_answers_identically(self, table):
        dm = DeepMapping.fit(table, FAST_DM)
        clone = dm_with_codec(dm, "lzma")
        probe = {"key": table.column("key")[:100]}
        a, b = dm.lookup(probe), clone.lookup(probe)
        np.testing.assert_array_equal(a.found, b.found)
        np.testing.assert_array_equal(a.values["value"], b.values["value"])

    def test_lzma_aux_not_larger(self, table):
        low = synthetic.single_column(2000, "low")
        dm = DeepMapping.fit(low, FAST_DM)
        clone = dm_with_codec(dm, "lzma")
        assert (clone.size_report().aux_bytes
                <= dm.size_report().aux_bytes)


class TestMeasure:
    def test_measure_lookup_positive(self, table):
        store = build_system("AB", table)
        batches = key_batches(table, 32, repeats=2)
        seconds = measure_lookup(store, batches)
        assert seconds is not None and seconds > 0

    def test_failed_system_reports_none(self, table):
        from repro.storage import BufferPool

        pool = BufferPool(budget_bytes=64, strict=True)
        ds = build_system("DS", table, pool=pool)
        batches = key_batches(table, 8, repeats=1)
        assert measure_lookup(ds, batches) is None


class TestRunComparison:
    def test_full_comparison_rows(self, table):
        results = run_comparison(
            table,
            systems=["AB", "ABC-Z", "DM-Z", "DM-L"],
            batch_sizes=[16, 64],
            dm_config=FAST_DM,
            repeats=1,
            partition_bytes=4096,
        )
        assert [r.system for r in results] == ["AB", "ABC-Z", "DM-Z", "DM-L"]
        for result in results:
            assert result.storage_bytes > 0
            assert set(result.latencies) == {16, 64}
            assert all(v is not None for v in result.latencies.values())

    def test_ds_fails_under_tight_budget(self, table):
        results = run_comparison(
            table,
            systems=["DS"],
            batch_sizes=[8],
            memory_budget=64,
            repeats=1,
        )
        assert results[0].latencies[8] is None

    def test_breakdown_collected(self, table):
        results = run_comparison(
            table, systems=["ABC-Z"], batch_sizes=[64],
            repeats=1, partition_bytes=1024,
        )
        assert any(k.endswith("_seconds") for k in results[0].breakdown)
