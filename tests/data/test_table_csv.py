"""Tests for ColumnTable CSV interchange."""

import numpy as np
import pytest

from repro.data import ColumnTable, tpch


class TestRoundtrip:
    def test_integer_and_string_columns(self, tmp_path):
        table = ColumnTable(
            {
                "k": np.arange(5, dtype=np.int64),
                "label": np.array(["a", "b", "c", "d", "e"]),
                "n": np.array([10, 20, 30, 40, 50], dtype=np.int64),
            },
            key=("k",),
        )
        path = str(tmp_path / "t.csv")
        table.to_csv(path)
        loaded = ColumnTable.from_csv(path, key=("k",))
        assert loaded.column("k").dtype == np.int64
        np.testing.assert_array_equal(loaded.column("k"), table.column("k"))
        assert list(loaded.column("label")) == list(table.column("label"))
        np.testing.assert_array_equal(loaded.column("n"), table.column("n"))

    def test_tpch_roundtrip(self, tmp_path):
        table = tpch.generate("orders", scale=0.05)
        path = str(tmp_path / "orders.csv")
        table.to_csv(path)
        loaded = ColumnTable.from_csv(path, key=table.key, name="orders")
        assert loaded.n_rows == table.n_rows
        np.testing.assert_array_equal(loaded.column("o_orderkey"),
                                      table.column("o_orderkey"))
        assert list(loaded.column("o_orderstatus")) == list(
            table.column("o_orderstatus"))

    def test_loaded_table_feeds_deepmapping(self, tmp_path):
        from repro.core import DeepMappingConfig
        from repro import DeepMapping

        table = tpch.generate("supplier", scale=1.0)
        path = str(tmp_path / "s.csv")
        table.to_csv(path)
        loaded = ColumnTable.from_csv(path, key=("s_suppkey",))
        dm = DeepMapping.fit(loaded, DeepMappingConfig(
            epochs=10, batch_size=64, shared_sizes=(16,), private_sizes=(8,)))
        assert dm.lookup({"s_suppkey": loaded.column("s_suppkey")}).found.all()


class TestErrors:
    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            ColumnTable.from_csv(str(path), key=("k",))

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(ValueError, match="fields"):
            ColumnTable.from_csv(str(path), key=("a",))

    def test_missing_key_column_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(KeyError):
            ColumnTable.from_csv(str(path), key=("missing",))
