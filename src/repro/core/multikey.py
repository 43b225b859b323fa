"""Multiple-key and multiple-relation mappings (paper Sec. III).

The paper's problem statement generalizes single-relation single-key
mappings in two directions; both are built from the core structure:

- :class:`MultiKeyDeepMapping` — *single relation, multiple keys*: the same
  relation queried through different key columns (e.g. look Orders up by
  ``o_orderkey`` or by ``o_custkey``).  One DeepMapping per key designation,
  built over the same rows.
- :class:`MultiRelationDeepMapping` — *multiple relations, multiple keys*:
  a set of relations (e.g. a star schema) each carrying its own mapping,
  addressed by relation name, with cross-relation lookups chaining through
  foreign keys (:meth:`MultiRelationDeepMapping.lookup_via`).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..data.table import ColumnTable
from .config import DeepMappingConfig
from .deep_mapping import DeepMapping
from .plan import LookupResult, blank

__all__ = ["MultiKeyDeepMapping", "MultiRelationDeepMapping"]


class MultiKeyDeepMapping:
    """One relation queryable through several alternative keys.

    Each key designation gets its own hybrid structure; keys whose values
    do not uniquely identify rows are rejected at build time (the paper
    requires ``d_mu`` to return *the* value for a key).
    """

    def __init__(self, mappings: Dict[Tuple[str, ...], DeepMapping]):
        if not mappings:
            raise ValueError("at least one key designation required")
        self._mappings = dict(mappings)

    @classmethod
    def fit(
        cls,
        table: ColumnTable,
        keys: Sequence[Sequence[str]],
        config: Optional[DeepMappingConfig] = None,
    ) -> "MultiKeyDeepMapping":
        """Build one DeepMapping per key designation over ``table``."""
        mappings: Dict[Tuple[str, ...], DeepMapping] = {}
        for key in keys:
            key = tuple(key)
            rekeyed = ColumnTable(table.columns_dict(), key=key, name=table.name)
            mappings[key] = DeepMapping.fit(rekeyed, config)
        return cls(mappings)

    @property
    def keys(self) -> Tuple[Tuple[str, ...], ...]:
        """Available key designations."""
        return tuple(self._mappings)

    def mapping_for(self, key: Sequence[str]) -> DeepMapping:
        """The structure serving one key designation."""
        try:
            return self._mappings[tuple(key)]
        except KeyError:
            raise KeyError(
                f"no mapping keyed by {tuple(key)}; have {self.keys}"
            ) from None

    def lookup(self, key: Sequence[str], keys_batch) -> LookupResult:
        """Lookup through the chosen key designation."""
        return self.mapping_for(key).lookup(keys_batch)

    def storage_bytes(self) -> int:
        """Total footprint across all key designations."""
        return sum(m.storage_bytes() for m in self._mappings.values())

    def __repr__(self) -> str:
        return f"MultiKeyDeepMapping(keys={list(self.keys)})"


class MultiRelationDeepMapping:
    """A set of relations, each with its own DeepMapping, supporting
    foreign-key chained lookups across relations."""

    def __init__(self, mappings: Dict[str, DeepMapping]):
        if not mappings:
            raise ValueError("at least one relation required")
        self._mappings = dict(mappings)

    @classmethod
    def fit(
        cls,
        tables: Dict[str, ColumnTable],
        config: Optional[DeepMappingConfig] = None,
        configs: Optional[Dict[str, DeepMappingConfig]] = None,
    ) -> "MultiRelationDeepMapping":
        """Build one DeepMapping per relation.

        ``configs`` overrides ``config`` per relation name when present.
        """
        mappings = {}
        for name, table in tables.items():
            chosen = (configs or {}).get(name, config)
            mappings[name] = DeepMapping.fit(table, chosen)
        return cls(mappings)

    @property
    def relations(self) -> Tuple[str, ...]:
        """Relation names, sorted."""
        return tuple(sorted(self._mappings))

    def relation(self, name: str) -> DeepMapping:
        """The structure for one relation."""
        try:
            return self._mappings[name]
        except KeyError:
            raise KeyError(
                f"unknown relation {name!r}; have {self.relations}"
            ) from None

    def lookup(self, relation: str, keys_batch) -> LookupResult:
        """Point lookup in one relation."""
        return self.relation(relation).lookup(keys_batch)

    def lookup_via(
        self,
        fact: str,
        fact_keys,
        fk_column: str,
        dimension: str,
    ) -> Tuple[LookupResult, LookupResult]:
        """Cross-relation lookup: fetch fact rows, follow a foreign key
        into a dimension relation (the paper's star-schema scenario).

        Returns ``(fact_result, dimension_result)``; dimension rows for
        fact keys that were not found are marked missing.
        """
        fact_map = self.relation(fact)
        if fk_column not in fact_map.value_names:
            raise KeyError(f"{fk_column!r} is not a value column of {fact!r}")
        dim_map = self.relation(dimension)
        if len(dim_map.key_names) != 1:
            raise ValueError("dimension relation must have a single-column key")

        fact_result = fact_map.lookup(fact_keys)
        hit = fact_result.found
        fk_values = np.asarray(fact_result.values[fk_column], dtype=np.int64)
        # Only found rows' foreign keys are probed (any key value, -1
        # included, may be a live dimension row); the rest read exactly
        # as a dimension miss does, the blank.
        probed = dim_map.lookup({dim_map.key_names[0]: fk_values[hit]})
        found = np.zeros(hit.size, dtype=bool)
        found[hit] = probed.found
        values = {}
        for name, column in probed.values.items():
            values[name] = blank(hit.size, column.dtype)
            values[name][hit] = column
        return fact_result, LookupResult(found=found, values=values)

    def storage_bytes(self) -> int:
        """Total footprint across relations."""
        return sum(m.storage_bytes() for m in self._mappings.values())

    def __repr__(self) -> str:
        return f"MultiRelationDeepMapping(relations={list(self.relations)})"
