"""Deterministic TPC-H-shaped dataset generator.

The official ``dbgen`` tool is unavailable offline, so this module generates
tables with the same names, key structure, categorical vocabularies, and
key-value correlation character as the TPC-H tables the paper evaluates
(float attributes removed, per Sec. V-A1).  Row counts are scaled to
laptop size: one unit of scale factor corresponds to 1/100th of the official
row counts (see :data:`ROWS_PER_SF`), keeping the relative table sizes —
and therefore the paper's per-table storyline — intact.

Correlation calibration: TPC-H value columns are mostly independent of the
primary key (the paper measures a Pearson correlation of about 1e-4 for
``OrderKey -> OrderStatus``), with a few weakly date/key-structured columns.
Each generated column mixes a periodic key-derived signal with uniform noise
to land in that regime.
"""

from __future__ import annotations

import zlib
from typing import Dict, Tuple

import numpy as np

from ._patterns import noisy_choice, structured_column
from .schema import ColumnSpec, ColumnType, Schema
from .table import ColumnTable

__all__ = ["ROWS_PER_SF", "TPCH_TABLES", "generate", "schema_for"]

#: Rows per unit scale factor (1/100th of official TPC-H).
ROWS_PER_SF: Dict[str, int] = {
    "supplier": 100,
    "part": 2_000,
    "customer": 1_500,
    "orders": 15_000,
    "lineitem": 60_000,
}

TPCH_TABLES: Tuple[str, ...] = tuple(sorted(ROWS_PER_SF))

_ORDER_STATUS = np.array(["F", "O", "P"])
_PRIORITY = np.array(["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"])
_SHIPMODE = np.array(["AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"])
_SHIPINSTRUCT = np.array(
    ["COLLECT COD", "DELIVER IN PERSON", "NONE", "TAKE BACK RETURN"]
)
_RETURNFLAG = np.array(["A", "N", "R"])
_LINESTATUS = np.array(["F", "O"])
_SEGMENTS = np.array(["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"])
_CONTAINERS = np.array(
    [f"{size} {kind}" for size in ("SM", "MED", "LG", "JUMBO", "WRAP")
     for kind in ("BAG", "BOX", "CAN", "CASE", "DRUM", "JAR", "PACK", "PKG")]
)
_MFGRS = np.array([f"Manufacturer#{i}" for i in range(1, 6)])


def _rows(table: str, scale: float) -> int:
    count = int(round(ROWS_PER_SF[table] * scale))
    return max(count, 10)


def generate(table: str, scale: float = 1.0, seed: int = 0) -> ColumnTable:
    """Generate one TPC-H table at the given (scaled-down) scale factor.

    Parameters
    ----------
    table:
        One of :data:`TPCH_TABLES`.
    scale:
        Paper "SF" equivalent; rows = ``ROWS_PER_SF[table] * scale``.
    seed:
        Generation seed; same (table, scale, seed) is bit-identical.
    """
    if table not in ROWS_PER_SF:
        raise KeyError(f"unknown TPC-H table {table!r}; have {TPCH_TABLES}")
    # crc32, not hash(): str hashes are salted per process.
    rng = np.random.default_rng((seed, zlib.crc32(table.encode())))
    n = _rows(table, scale)
    builder = {
        "supplier": _supplier,
        "part": _part,
        "customer": _customer,
        "orders": _orders,
        "lineitem": _lineitem,
    }[table]
    return builder(n, rng, scale)


def _supplier(n: int, rng: np.random.Generator, scale: float) -> ColumnTable:
    keys = np.arange(1, n + 1, dtype=np.int64)
    nation = structured_column(keys, 25, period=3, noise=0.2, rng=rng)
    region = nation // 5  # nations group into 5 regions deterministically
    rating = structured_column(keys, 5, period=2, noise=0.15, rng=rng) + 1
    return ColumnTable(
        {
            "s_suppkey": keys,
            "s_nationkey": nation,
            "s_region": region,
            "s_rating": rating,
        },
        key=("s_suppkey",),
        name="supplier",
    )


def _part(n: int, rng: np.random.Generator, scale: float) -> ColumnTable:
    keys = np.arange(1, n + 1, dtype=np.int64)
    mfgr_code = structured_column(keys, 5, period=8, noise=0.1, rng=rng)
    # Brand nests in manufacturer; its low digit follows the key cycle too.
    brand = mfgr_code * 5 + structured_column(keys, 5, period=3, noise=0.15,
                                              rng=rng)
    size = structured_column(keys, 50, period=7, noise=0.15, rng=rng) + 1
    container = structured_column(keys, len(_CONTAINERS), period=16, noise=0.15,
                                  rng=rng)
    return ColumnTable(
        {
            "p_partkey": keys,
            "p_mfgr": _MFGRS[mfgr_code],
            "p_brand": brand,
            "p_size": size,
            "p_container": _CONTAINERS[container],
        },
        key=("p_partkey",),
        name="part",
    )


def _customer(n: int, rng: np.random.Generator, scale: float) -> ColumnTable:
    keys = np.arange(1, n + 1, dtype=np.int64)
    nation = structured_column(keys, 25, period=9, noise=0.2, rng=rng)
    segment = structured_column(keys, 5, period=12, noise=0.15, rng=rng)
    balance_bucket = structured_column(keys, 11, period=5, noise=0.25, rng=rng)
    return ColumnTable(
        {
            "c_custkey": keys,
            "c_nationkey": nation,
            "c_mktsegment": _SEGMENTS[segment],
            "c_acctbal_bucket": balance_bucket,
        },
        key=("c_custkey",),
        name="customer",
    )


def _orders(n: int, rng: np.random.Generator, scale: float) -> ColumnTable:
    # Real TPC-H order keys are sparse in their domain (only 1/4 present);
    # keep that so the existence bit vector has real work to do.
    keys = np.arange(0, 4 * n, 4, dtype=np.int64) + 1
    n_customers = _rows("customer", scale)
    status = structured_column(keys, 3, period=max(4 * n // 3, 1), noise=0.08,
                               rng=rng)
    year = structured_column(keys, 7, period=max(4 * n // 7, 1), noise=0.05,
                             rng=rng)
    # Orders arrive in key order, so customers cluster along the key
    # dimension (sessions) with a noisy tail — learnable but not trivial.
    custkey = structured_column(keys, n_customers, period=3, noise=0.2,
                                rng=rng) + 1
    return ColumnTable(
        {
            "o_orderkey": keys,
            "o_custkey": custkey,
            "o_orderstatus": _ORDER_STATUS[status],
            "o_orderpriority": _PRIORITY[structured_column(
                keys, 5, period=11, noise=0.15, rng=rng)],
            "o_year": 1992 + year,
        },
        key=("o_orderkey",),
        name="orders",
    )


def _lineitem(n: int, rng: np.random.Generator, scale: float) -> ColumnTable:
    # Composite key (l_orderkey, l_linenumber): 1..7 lines per order.
    n_orders = _rows("orders", scale)
    order_keys_domain = np.arange(0, 4 * n_orders, 4, dtype=np.int64) + 1
    lines_per_order = rng.integers(1, 8, size=n_orders)
    order_idx = np.repeat(np.arange(n_orders), lines_per_order)[:n]
    if order_idx.size < n:
        extra = rng.integers(0, n_orders, size=n - order_idx.size)
        order_idx = np.concatenate([order_idx, extra])
    linenumber = np.concatenate(
        [np.arange(1, c + 1) for c in lines_per_order]
    )[:n]
    if linenumber.size < n:
        linenumber = np.concatenate(
            [linenumber, rng.integers(1, 8, size=n - linenumber.size)]
        )
    orderkey = order_keys_domain[order_idx]
    # Deduplicate composite keys introduced by the tail fill.
    flat = orderkey * 8 + linenumber
    _, unique_idx = np.unique(flat, return_index=True)
    unique_idx.sort()
    orderkey = orderkey[unique_idx]
    linenumber = linenumber[unique_idx]
    m = orderkey.size

    returnflag = structured_column(orderkey, 3, period=max(4 * n_orders // 3, 1),
                                   noise=0.1, rng=rng)
    linestatus = structured_column(orderkey, 2, period=max(4 * n_orders // 2, 1),
                                   noise=0.05, rng=rng)
    # Ship mode/instructions follow warehouse rotations along the key with
    # a noisy tail; quantity is the least predictable column.
    shipmode = structured_column(orderkey * 8 + linenumber, 7, period=5,
                                 noise=0.15, rng=rng)
    shipinstruct = structured_column(orderkey * 8 + linenumber, 4, period=9,
                                     noise=0.12, rng=rng)
    quantity = structured_column(orderkey * 8 + linenumber, 50, period=6,
                                 noise=0.3, rng=rng)
    return ColumnTable(
        {
            "l_orderkey": orderkey,
            "l_linenumber": linenumber.astype(np.int64),
            "l_returnflag": _RETURNFLAG[returnflag],
            "l_linestatus": _LINESTATUS[linestatus],
            "l_shipmode": _SHIPMODE[shipmode],
            "l_shipinstruct": _SHIPINSTRUCT[shipinstruct],
            "l_quantity": quantity + 1,
        },
        key=("l_orderkey", "l_linenumber"),
        name="lineitem",
    )


def schema_for(table: str) -> Schema:
    """Schema metadata for a TPC-H table."""
    integer, categorical = ColumnType.INTEGER, ColumnType.CATEGORICAL
    schemas = {
        "supplier": Schema(
            "supplier",
            (
                ColumnSpec("s_suppkey", integer),
                ColumnSpec("s_nationkey", integer, 25),
                ColumnSpec("s_region", integer, 5),
                ColumnSpec("s_rating", integer, 5),
            ),
            key=("s_suppkey",),
        ),
        "part": Schema(
            "part",
            (
                ColumnSpec("p_partkey", integer),
                ColumnSpec("p_mfgr", categorical, 5),
                ColumnSpec("p_brand", integer, 25),
                ColumnSpec("p_size", integer, 50),
                ColumnSpec("p_container", categorical, 40),
            ),
            key=("p_partkey",),
        ),
        "customer": Schema(
            "customer",
            (
                ColumnSpec("c_custkey", integer),
                ColumnSpec("c_nationkey", integer, 25),
                ColumnSpec("c_mktsegment", categorical, 5),
                ColumnSpec("c_acctbal_bucket", integer, 11),
            ),
            key=("c_custkey",),
        ),
        "orders": Schema(
            "orders",
            (
                ColumnSpec("o_orderkey", integer),
                ColumnSpec("o_custkey", integer),
                ColumnSpec("o_orderstatus", categorical, 3),
                ColumnSpec("o_orderpriority", categorical, 5),
                ColumnSpec("o_year", integer, 7),
            ),
            key=("o_orderkey",),
        ),
        "lineitem": Schema(
            "lineitem",
            (
                ColumnSpec("l_orderkey", integer),
                ColumnSpec("l_linenumber", integer, 7),
                ColumnSpec("l_returnflag", categorical, 3),
                ColumnSpec("l_linestatus", categorical, 2),
                ColumnSpec("l_shipmode", categorical, 7),
                ColumnSpec("l_shipinstruct", categorical, 4),
                ColumnSpec("l_quantity", integer, 50),
            ),
            key=("l_orderkey", "l_linenumber"),
        ),
    }
    if table not in schemas:
        raise KeyError(f"unknown TPC-H table {table!r}")
    return schemas[table]
