"""Tests for multi-key and multi-relation mappings (paper Sec. III)."""

import numpy as np
import pytest

from repro.core import MultiKeyDeepMapping, MultiRelationDeepMapping
from repro.data import ColumnTable

from .conftest import fast_config


def two_key_table(n=300):
    """A relation where both `id` and `alt_id` uniquely identify rows."""
    rng = np.random.default_rng(17)
    ids = np.arange(n, dtype=np.int64)
    alt = rng.permutation(n).astype(np.int64) + 10_000
    return ColumnTable(
        {
            "id": ids,
            "alt_id": alt,
            "grade": rng.integers(0, 5, size=n),
        },
        key=("id",),
        name="two_key",
    )


def star_schema(n_orders=200, n_customers=40):
    rng = np.random.default_rng(23)
    customers = ColumnTable(
        {
            "c_id": np.arange(n_customers, dtype=np.int64),
            "c_segment": rng.integers(0, 5, size=n_customers),
        },
        key=("c_id",),
        name="customers",
    )
    orders = ColumnTable(
        {
            "o_id": np.arange(n_orders, dtype=np.int64),
            "o_customer": rng.integers(0, n_customers, size=n_orders),
            "o_status": rng.integers(0, 3, size=n_orders),
        },
        key=("o_id",),
        name="orders",
    )
    return customers, orders


class TestMultiKey:
    def test_lookup_through_both_keys(self):
        table = two_key_table()
        mk = MultiKeyDeepMapping.fit(table, keys=[("id",), ("alt_id",)],
                                     config=fast_config(epochs=3))
        by_id = mk.lookup(("id",), {"id": table.column("id")[:10]})
        assert by_id.found.all()
        np.testing.assert_array_equal(by_id.values["grade"],
                                      table.column("grade")[:10])
        by_alt = mk.lookup(("alt_id",), {"alt_id": table.column("alt_id")[:10]})
        assert by_alt.found.all()
        np.testing.assert_array_equal(by_alt.values["grade"],
                                      table.column("grade")[:10])

    def test_unknown_key_designation_rejected(self):
        table = two_key_table()
        mk = MultiKeyDeepMapping.fit(table, keys=[("id",)],
                                     config=fast_config(epochs=2))
        with pytest.raises(KeyError):
            mk.lookup(("alt_id",), {"alt_id": np.array([10000])})

    def test_non_unique_key_rejected(self):
        table = two_key_table()
        with pytest.raises(ValueError, match="uniquely"):
            MultiKeyDeepMapping.fit(table, keys=[("grade",)],
                                    config=fast_config(epochs=2))

    def test_storage_bytes_sums_mappings(self):
        table = two_key_table()
        mk = MultiKeyDeepMapping.fit(table, keys=[("id",), ("alt_id",)],
                                     config=fast_config(epochs=2))
        total = mk.storage_bytes()
        parts = sum(mk.mapping_for(k).storage_bytes() for k in mk.keys)
        assert total == parts

    def test_requires_one_designation(self):
        with pytest.raises(ValueError):
            MultiKeyDeepMapping({})


class TestMultiRelation:
    def test_per_relation_lookup(self):
        customers, orders = star_schema()
        mr = MultiRelationDeepMapping.fit(
            {"customers": customers, "orders": orders},
            config=fast_config(epochs=3),
        )
        result = mr.lookup("orders", {"o_id": orders.column("o_id")[:5]})
        assert result.found.all()

    def test_foreign_key_chase(self):
        customers, orders = star_schema()
        mr = MultiRelationDeepMapping.fit(
            {"customers": customers, "orders": orders},
            config=fast_config(epochs=30),
        )
        fact, dim = mr.lookup_via(
            "orders", {"o_id": orders.column("o_id")[:20]},
            fk_column="o_customer", dimension="customers",
        )
        assert fact.found.all() and dim.found.all()
        expected = customers.column("c_segment")[
            orders.column("o_customer")[:20]
        ]
        np.testing.assert_array_equal(dim.values["c_segment"], expected)

    def test_fk_chase_propagates_missing_fact_rows(self):
        customers, orders = star_schema()
        mr = MultiRelationDeepMapping.fit(
            {"customers": customers, "orders": orders},
            config=fast_config(epochs=3),
        )
        fact, dim = mr.lookup_via(
            "orders", {"o_id": np.array([0, 10**6])},
            fk_column="o_customer", dimension="customers",
        )
        assert fact.found.tolist() == [True, False]
        assert dim.found.tolist() == [True, False]

    def test_missing_fact_row_reads_as_a_dimension_miss(self):
        # A dimension with a live key -1: a missing fact row must not
        # read the -1 row's values, but exactly what a plain miss reads:
        # the blank, which no live row holds.
        n = 50
        segment = np.full(n + 1, 3, dtype=np.int64)
        segment[0] = 9
        customers = ColumnTable(
            {"c_id": np.arange(-1, n, dtype=np.int64), "c_seg": segment},
            key=("c_id",), name="customers")
        orders = ColumnTable(
            {"o_id": np.arange(20, dtype=np.int64),
             "o_customer": np.arange(20, dtype=np.int64) % n},
            key=("o_id",), name="orders")
        mr = MultiRelationDeepMapping.fit(
            {"customers": customers, "orders": orders},
            config=fast_config(epochs=3))
        fact, dim = mr.lookup_via(
            "orders", {"o_id": np.array([0, 10**6])},
            fk_column="o_customer", dimension="customers")
        plain_miss = mr.lookup("customers", {"c_id": np.array([10**6])})
        assert fact.found.tolist() == [True, False]
        assert dim.found.tolist() == [True, False]
        assert dim.values["c_seg"].tolist() == [3, 0]
        assert plain_miss.values["c_seg"].tolist() == [0]

    def test_unknown_relation_rejected(self):
        customers, _ = star_schema()
        mr = MultiRelationDeepMapping.fit({"customers": customers},
                                          config=fast_config(epochs=2))
        with pytest.raises(KeyError):
            mr.lookup("orders", {"o_id": np.array([0])})

    def test_unknown_fk_column_rejected(self):
        customers, orders = star_schema()
        mr = MultiRelationDeepMapping.fit(
            {"customers": customers, "orders": orders},
            config=fast_config(epochs=2),
        )
        with pytest.raises(KeyError):
            mr.lookup_via("orders", {"o_id": np.array([0])},
                          fk_column="nope", dimension="customers")

    def test_requires_one_relation(self):
        with pytest.raises(ValueError):
            MultiRelationDeepMapping({})
