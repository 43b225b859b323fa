"""Tiny exact-match SELECT layer over a DeepMapping.

The paper frames lookups as SQL point queries (Sec. I):

    SELECT Order_Type FROM Orders WHERE Order_ID = 19

This module provides that surface: a programmatic :func:`select` plus a
minimal parser for single-table exact-match statements
(:func:`run_select`).  Anything beyond projections and ``AND``-ed key
equality predicates is rejected — richer queries belong to a real engine;
DeepMapping is the access method underneath.

Both entry points accept any mapping exposing ``key_names`` /
``value_names`` / ``lookup`` — a :class:`repro.DeepMapping`, or a test
double standing in for one.  Execution flows through the mapping's
batched ``lookup``, i.e. through the fused
:class:`~repro.nn.compiled.CompiledSession` kernel (existence-gated,
gather-based inference; see ``docs/performance.md``) unless the build
config disables it.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

if TYPE_CHECKING:  # avoid a runtime import cycle (shard imports core)
    from ..shard import DeepMapping

__all__ = ["select", "run_select", "QueryError", "MappingLike"]

#: Any point-lookup structure select() can execute over.
MappingLike = "DeepMapping"


class QueryError(ValueError):
    """Raised for malformed or unsupported SELECT statements."""


def select(
    mapping: MappingLike,
    columns: Sequence[str],
    where: Dict[str, object],
) -> List[Optional[Dict[str, object]]]:
    """Programmatic point SELECT over a store.

    Parameters
    ----------
    columns:
        Value columns to project, or ``["*"]`` for all of them.
    where:
        Equality predicates; must cover exactly the key columns.  Values
        may be scalars or equal-length sequences (a batch of rows).

    Returns one dict (or ``None`` for absent keys) per queried row.
    """
    if list(columns) == ["*"]:
        columns = list(mapping.value_names)
    unknown = [c for c in columns if c not in mapping.value_names]
    if unknown:
        raise QueryError(f"unknown column(s) {unknown}; "
                         f"have {list(mapping.value_names)}")
    if set(where) != set(mapping.key_names):
        raise QueryError(
            f"WHERE must constrain exactly the key columns "
            f"{tuple(mapping.key_names)}; got {tuple(sorted(where))}"
        )
    keys = {
        name: np.atleast_1d(np.asarray(value))
        for name, value in where.items()
    }
    lengths = {arr.size for arr in keys.values()}
    if len(lengths) != 1:
        raise QueryError("WHERE values must have equal lengths")
    result = mapping.lookup(keys)
    out: List[Optional[Dict[str, object]]] = []
    for i in range(result.found.size):
        if result.found[i]:
            out.append({c: result.values[c][i] for c in columns})
        else:
            out.append(None)
    return out


_SELECT_RE = re.compile(
    r"^\s*select\s+(?P<cols>.+?)\s+(?:from\s+\S+\s+)?where\s+(?P<preds>.+?)\s*;?\s*$",
    re.IGNORECASE | re.DOTALL,
)
_PRED_RE = re.compile(r"^\s*(?P<col>\w+)\s*=\s*(?P<val>'[^']*'|\S+)\s*$")


def run_select(
    mapping: MappingLike, statement: str
) -> List[Optional[Dict[str, object]]]:
    """Parse and execute a point-SELECT statement.

    Supported grammar (case-insensitive)::

        SELECT <col> [, <col>...] | * [FROM <anything>]
        WHERE <key_col> = <int|'str'> [AND <key_col> = ...]
    """
    match = _SELECT_RE.match(statement)
    if not match:
        raise QueryError(
            "unsupported statement; expected "
            "SELECT cols [FROM t] WHERE key = value [AND ...]"
        )
    columns = [c.strip() for c in match.group("cols").split(",")]
    if not all(columns):
        raise QueryError("empty column in projection list")

    where: Dict[str, object] = {}
    for predicate in re.split(r"\s+and\s+", match.group("preds"),
                              flags=re.IGNORECASE):
        pred_match = _PRED_RE.match(predicate)
        if not pred_match:
            raise QueryError(f"unsupported predicate {predicate!r}; only "
                             "key equality is available")
        column = pred_match.group("col")
        raw = pred_match.group("val")
        if column in where:
            raise QueryError(f"duplicate predicate for {column!r}")
        if raw.startswith("'"):
            where[column] = raw[1:-1]
        else:
            try:
                where[column] = int(raw)
            except ValueError:
                raise QueryError(f"non-integer key literal {raw!r}") from None
    return select(mapping, columns, where)
