"""Tests for the SELECT layer (the paper's SQL point-query framing)."""

import numpy as np
import pytest

from repro import DeepMapping
from repro.core.query import QueryError, run_select, select
from repro.data import ColumnTable, tpch

from .conftest import fast_config


@pytest.fixture(scope="module")
def orders_dm():
    table = tpch.generate("orders", scale=0.1, seed=30)
    return table, DeepMapping.fit(table, fast_config(epochs=5))


class TestSelect:
    def test_projection(self, orders_dm):
        table, dm = orders_dm
        key = int(table.column("o_orderkey")[0])
        rows = select(dm, ["o_orderstatus"], {"o_orderkey": key})
        assert len(rows) == 1
        assert rows[0] == {"o_orderstatus": table.column("o_orderstatus")[0]}

    def test_star_projects_all_value_columns(self, orders_dm):
        table, dm = orders_dm
        key = int(table.column("o_orderkey")[0])
        rows = select(dm, ["*"], {"o_orderkey": key})
        assert set(rows[0]) == set(table.value_columns)

    def test_absent_key_is_none(self, orders_dm):
        _, dm = orders_dm
        assert select(dm, ["*"], {"o_orderkey": 3}) == [None]

    def test_batch_where(self, orders_dm):
        table, dm = orders_dm
        keys = table.column("o_orderkey")[:5]
        rows = select(dm, ["o_year"], {"o_orderkey": keys})
        assert len(rows) == 5
        assert all(r is not None for r in rows)

    def test_unknown_column_rejected(self, orders_dm):
        _, dm = orders_dm
        with pytest.raises(QueryError, match="unknown column"):
            select(dm, ["o_totalprice"], {"o_orderkey": 1})

    def test_where_must_cover_key(self, orders_dm):
        _, dm = orders_dm
        with pytest.raises(QueryError, match="WHERE"):
            select(dm, ["*"], {"o_year": 1995})

    def test_ragged_batch_rejected(self):
        table = tpch.generate("lineitem", scale=0.02)
        dm = DeepMapping.fit(table, fast_config(epochs=2))
        with pytest.raises(QueryError, match="equal lengths"):
            select(dm, ["*"], {"l_orderkey": [1, 2],
                               "l_linenumber": [1]})


class TestRunSelect:
    def test_paper_example_shape(self, orders_dm):
        """The paper's motivating query: SELECT Order_Type FROM Orders
        WHERE Order_ID = <k>."""
        table, dm = orders_dm
        key = int(table.column("o_orderkey")[10])
        rows = run_select(
            dm, f"SELECT o_orderstatus FROM orders WHERE o_orderkey = {key}")
        assert rows[0]["o_orderstatus"] == table.column("o_orderstatus")[10]

    def test_from_clause_optional(self, orders_dm):
        table, dm = orders_dm
        key = int(table.column("o_orderkey")[0])
        rows = run_select(dm, f"select o_year where o_orderkey = {key}")
        assert rows[0]["o_year"] == table.column("o_year")[0]

    def test_multi_column_projection(self, orders_dm):
        table, dm = orders_dm
        key = int(table.column("o_orderkey")[0])
        rows = run_select(
            dm, f"SELECT o_year, o_orderstatus WHERE o_orderkey = {key}")
        assert set(rows[0]) == {"o_year", "o_orderstatus"}

    def test_composite_key_with_and(self):
        table = tpch.generate("lineitem", scale=0.02)
        dm = DeepMapping.fit(table, fast_config(epochs=2))
        ok, ln = int(table.column("l_orderkey")[0]), int(
            table.column("l_linenumber")[0])
        rows = run_select(
            dm,
            f"SELECT l_shipmode WHERE l_orderkey = {ok} AND l_linenumber = {ln}",
        )
        assert rows[0]["l_shipmode"] == table.column("l_shipmode")[0]

    def test_trailing_semicolon(self, orders_dm):
        table, dm = orders_dm
        key = int(table.column("o_orderkey")[0])
        rows = run_select(dm, f"SELECT o_year WHERE o_orderkey = {key};")
        assert rows[0] is not None

    def test_malformed_statement_rejected(self, orders_dm):
        _, dm = orders_dm
        with pytest.raises(QueryError):
            run_select(dm, "DELETE FROM orders")
        with pytest.raises(QueryError):
            run_select(dm, "SELECT * WHERE o_orderkey > 5")
        with pytest.raises(QueryError):
            run_select(dm, "SELECT * WHERE o_orderkey = abc")
        with pytest.raises(QueryError, match="duplicate"):
            run_select(dm, "SELECT * WHERE o_orderkey = 1 AND o_orderkey = 2")
