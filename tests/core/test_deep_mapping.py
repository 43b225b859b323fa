"""Tests for the DeepMapping hybrid structure: build, lookup, persistence.

The heart of the suite: *losslessness* — whatever the model's accuracy,
every stored row must come back exactly, and absent keys must come back
NULL (no hallucination).
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DeepMapping, DeepMappingConfig
from repro.data import ColumnTable, synthetic, tpch

from .conftest import fast_config


class TestFitValidation:
    def test_duplicate_keys_rejected(self):
        table = ColumnTable(
            {"k": np.array([1, 1, 2]), "v": np.array([1, 2, 3])}, key=("k",)
        )
        with pytest.raises(ValueError, match="uniquely"):
            DeepMapping.fit(table, fast_config())

    def test_no_value_columns_rejected(self):
        table = ColumnTable({"k": np.arange(5)}, key=("k",))
        with pytest.raises(ValueError, match="value columns"):
            DeepMapping.fit(table, fast_config())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DeepMappingConfig(epochs=0)
        with pytest.raises(ValueError):
            DeepMappingConfig(key_base=1)
        with pytest.raises(ValueError):
            DeepMappingConfig(retrain_threshold_bytes=0)
        with pytest.raises(ValueError):
            DeepMappingConfig(key_headroom_fraction=-0.5)


class TestLosslessness:
    """Desideratum #1: no missing data, no spurious results."""

    def test_every_row_returned_exactly_high_corr(self, small_high_table):
        dm = DeepMapping.fit(small_high_table, fast_config())
        result = dm.lookup({"key": small_high_table.column("key")})
        assert result.found.all()
        for col in small_high_table.value_columns:
            np.testing.assert_array_equal(
                result.values[col], small_high_table.column(col)
            )

    def test_every_row_returned_exactly_low_corr(self, small_low_table):
        """Even when the model memorizes almost nothing, T_aux guarantees
        exact answers."""
        dm = DeepMapping.fit(small_low_table, fast_config(epochs=3))
        result = dm.lookup({"key": small_low_table.column("key")})
        assert result.found.all()
        for col in small_low_table.value_columns:
            np.testing.assert_array_equal(
                result.values[col], small_low_table.column(col)
            )

    def test_untrained_model_still_lossless(self, small_low_table):
        dm = DeepMapping.fit(small_low_table, fast_config(epochs=1))
        result = dm.lookup({"key": small_low_table.column("key")})
        assert result.found.all()

    def test_absent_keys_return_null(self, sparse_table):
        dm = DeepMapping.fit(sparse_table, fast_config())
        missing = sparse_table.column("key")[:-1] + 1  # gaps of 3
        result = dm.lookup({"key": missing})
        assert not result.found.any()
        # A miss reads the blank, not a stored value ("A", "B", "C").
        assert (result.values["status"] == "").all()

    def test_out_of_domain_keys_return_null(self, fitted_high):
        result = fitted_high.lookup({"key": np.array([-1, 10**9])})
        assert not result.found.any()

    def test_mixed_batch(self, sparse_table):
        dm = DeepMapping.fit(sparse_table, fast_config())
        batch = np.array([0, 1, 3, 4, 6])  # exist, miss, exist, miss, exist
        result = dm.lookup({"key": batch})
        assert result.found.tolist() == [True, False, True, False, True]

    def test_string_values_roundtrip(self, sparse_table):
        dm = DeepMapping.fit(sparse_table, fast_config())
        result = dm.lookup({"key": sparse_table.column("key")})
        np.testing.assert_array_equal(
            result.values["status"], sparse_table.column("status")
        )


class TestCompositeKeys:
    def test_lineitem_style_composite_key(self):
        table = tpch.generate("lineitem", scale=0.02)
        dm = DeepMapping.fit(table, fast_config(epochs=5))
        result = dm.lookup(
            {"l_orderkey": table.column("l_orderkey"),
             "l_linenumber": table.column("l_linenumber")}
        )
        assert result.found.all()
        np.testing.assert_array_equal(
            result.values["l_shipmode"], table.column("l_shipmode")
        )

    def test_absent_composite_key(self):
        table = tpch.generate("lineitem", scale=0.02)
        dm = DeepMapping.fit(table, fast_config(epochs=2))
        # linenumber 0 never exists (domain is 1..7)
        probe = {"l_orderkey": table.column("l_orderkey")[:5],
                 "l_linenumber": np.zeros(5, dtype=np.int64)}
        result = dm.lookup(probe)
        assert not result.found.any()

    def test_table_as_keys_argument(self):
        table = tpch.generate("lineitem", scale=0.02)
        dm = DeepMapping.fit(table, fast_config(epochs=2))
        result = dm.lookup(table)
        assert result.found.all()


class TestLookupAPI:
    def test_plain_array_for_single_key(self, fitted_high):
        result = fitted_high.lookup(np.array([0, 1, 2]))
        assert result.found.all()

    def test_2d_array_for_composite_key(self):
        table = tpch.generate("lineitem", scale=0.02)
        dm = DeepMapping.fit(table, fast_config(epochs=2))
        probe = np.stack(
            [table.column("l_orderkey")[:4], table.column("l_linenumber")[:4]],
            axis=1,
        )
        assert dm.lookup(probe).found.all()

    def test_missing_key_column_rejected(self, fitted_high):
        with pytest.raises(KeyError):
            fitted_high.lookup({"wrong": np.array([1])})

    def test_lookup_one(self, small_high_table):
        dm = DeepMapping.fit(small_high_table, fast_config())
        row = dm.lookup_one(key=5)
        assert row is not None
        assert row["v0"] == small_high_table.column("v0")[5]
        assert dm.lookup_one(key=10**8) is None

    def test_lookup_one_validates_key_names(self, fitted_high):
        with pytest.raises(KeyError):
            fitted_high.lookup_one(wrong=1)

    def test_result_rows_iterator(self, sparse_table):
        dm = DeepMapping.fit(sparse_table, fast_config(epochs=2))
        result = dm.lookup({"key": np.array([0, 1])})
        rows = list(result.rows())
        assert rows[0] is not None and rows[1] is None

    def test_duplicate_query_keys(self, fitted_high):
        result = fitted_high.lookup({"key": np.array([7, 7, 7])})
        assert result.found.all()
        assert len({result.values["v0"][i] for i in range(3)}) == 1


class TestSizeReport:
    def test_report_fields(self, fitted_high):
        report = fitted_high.size_report()
        assert report.model_bytes > 0
        assert report.exist_bytes > 0
        assert report.decode_bytes > 0
        assert report.total_bytes == (
            report.model_bytes + report.aux_bytes + report.exist_bytes
            + report.decode_bytes
        )

    def test_high_corr_compresses_well(self, small_high_table):
        dm = DeepMapping.fit(
            small_high_table,
            fast_config(epochs=120, shared_sizes=(64,), private_sizes=(32,)),
        )
        report = dm.size_report()
        assert report.compression_ratio < 0.6
        assert report.memorized_fraction > 0.5

    def test_low_corr_aux_dominates(self, small_low_table):
        """Fig. 6's pattern: with little key-value structure the auxiliary
        table holds the bulk of the bytes."""
        dm = DeepMapping.fit(small_low_table, fast_config(epochs=3))
        report = dm.size_report()
        assert report.aux_bytes > report.model_bytes * 0.5
        assert report.memorized_fraction < 0.7

    def test_breakdown_sums_to_100(self, fitted_high):
        breakdown = fitted_high.size_report().breakdown()
        assert sum(breakdown.values()) == pytest.approx(100.0)

    def test_len_counts_live_keys(self, small_high_table):
        dm = DeepMapping.fit(small_high_table, fast_config())
        assert len(dm) == small_high_table.n_rows


class TestPersistence:
    def test_save_load_roundtrip(self, small_high_table, tmp_path):
        dm = DeepMapping.fit(small_high_table, fast_config())
        path = os.path.join(tmp_path, "dm.bin")
        nbytes = dm.save(path)
        assert nbytes > 0
        clone = DeepMapping.open(path)
        probe = {"key": small_high_table.column("key")}
        a, b = dm.lookup(probe), clone.lookup(probe)
        np.testing.assert_array_equal(a.found, b.found)
        for col in small_high_table.value_columns:
            np.testing.assert_array_equal(a.values[col], b.values[col])

    def test_loaded_structure_supports_modifications(self, small_high_table,
                                                     tmp_path):
        dm = DeepMapping.fit(small_high_table,
                             fast_config(key_headroom_fraction=1.0))
        path = os.path.join(tmp_path, "dm.bin")
        dm.save(path)
        clone = DeepMapping.open(path)
        clone.delete({"key": np.array([0])})
        assert clone.lookup_one(key=0) is None


class TestToTable:
    def test_materializes_original_content(self, small_high_table):
        dm = DeepMapping.fit(small_high_table, fast_config())
        out = dm.to_table()
        assert out.n_rows == small_high_table.n_rows
        # Key order is ascending flat order == ascending key here.
        np.testing.assert_array_equal(
            out.column("key"), small_high_table.column("key")
        )
        for col in small_high_table.value_columns:
            np.testing.assert_array_equal(
                out.column(col), small_high_table.column(col)
            )


@settings(max_examples=8, deadline=None)
@given(
    n=st.integers(min_value=20, max_value=120),
    cardinality=st.integers(min_value=2, max_value=6),
    seed=st.integers(min_value=0, max_value=100),
)
def test_losslessness_property_random_tables(n, cardinality, seed):
    """Property: DeepMapping is lossless on arbitrary random tables, with
    a deliberately under-trained model."""
    rng = np.random.default_rng(seed)
    keys = np.sort(rng.choice(n * 4, size=n, replace=False)).astype(np.int64)
    table = ColumnTable(
        {"k": keys, "v": rng.integers(0, cardinality, size=n)}, key=("k",)
    )
    dm = DeepMapping.fit(table, fast_config(epochs=2))
    result = dm.lookup({"k": keys})
    assert result.found.all()
    np.testing.assert_array_equal(result.values["v"], table.column("v"))
    absent = np.setdiff1d(np.arange(n * 4), keys)[:20]
    assert not dm.lookup({"k": absent}).found.any()
