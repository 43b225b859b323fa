"""Verification utilities: audit a structure against source data.

DeepMapping's contract is *losslessness* (paper Desideratum #1): every
stored row returns exactly, no spurious rows appear.  :func:`verify`
re-checks that contract against a source table — useful after builds,
migrations, or long modification histories — and reports the evidence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..data.table import ColumnTable

__all__ = ["VerificationReport", "verify"]


@dataclass
class VerificationReport:
    """Outcome of :func:`verify`."""

    rows_checked: int
    rows_missing: int
    cells_wrong: int
    spurious_hits: int
    #: Per-column mismatch counts (only columns with errors appear).
    wrong_by_column: Dict[str, int] = field(default_factory=dict)
    #: Up to 10 offending flat keys per failure class, for debugging.
    examples: Dict[str, List[int]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when the structure is exactly lossless and hallucination-free."""
        return (self.rows_missing == 0 and self.cells_wrong == 0
                and self.spurious_hits == 0)

    def __repr__(self) -> str:
        status = "OK" if self.ok else "FAILED"
        return (
            f"VerificationReport({status}, checked={self.rows_checked}, "
            f"missing={self.rows_missing}, wrong_cells={self.cells_wrong}, "
            f"spurious={self.spurious_hits})"
        )


def verify(
    mapping,
    table: ColumnTable,
    probe_absent: int = 1000,
    batch_size: int = 65536,
    rng: Optional[np.random.Generator] = None,
) -> VerificationReport:
    """Audit ``mapping`` (a :class:`repro.DeepMapping`) against ``table``.

    Checks (1) every row of ``table`` is found and returns exactly its
    values, and (2) up to ``probe_absent`` keys *not* in the table return
    NULL (no hallucination).  ``table`` must use the same key columns.
    """
    if tuple(table.key) != tuple(mapping.key_names):
        raise ValueError(
            f"table key {table.key} != mapping key {mapping.key_names}"
        )
    rng = rng if rng is not None else np.random.default_rng(0)
    report = VerificationReport(rows_checked=table.n_rows, rows_missing=0,
                                cells_wrong=0, spurious_hits=0)

    # Pass 1: presence + exactness, in batches.
    for start in range(0, table.n_rows, batch_size):
        chunk = table.take(np.arange(start, min(start + batch_size,
                                                table.n_rows)))
        keys = {k: chunk.column(k) for k in table.key}
        result = mapping.lookup(keys)
        missing = ~result.found
        if missing.any():
            report.rows_missing += int(missing.sum())
            report.examples.setdefault("missing", []).extend(
                np.flatnonzero(missing)[:10].tolist())
        for column in mapping.value_names:
            wrong = result.found & (result.values[column]
                                    != chunk.column(column))
            if wrong.any():
                count = int(wrong.sum())
                report.cells_wrong += count
                report.wrong_by_column[column] = (
                    report.wrong_by_column.get(column, 0) + count)
                report.examples.setdefault(f"wrong:{column}", []).extend(
                    np.flatnonzero(wrong)[:10].tolist())

    # Pass 2: hallucination probes on keys absent from the table.
    if probe_absent > 0:
        key_codec = mapping.model.key_codec
        flat_present, in_domain = key_codec.try_flatten(
            table.key_columns_dict())
        present = set(flat_present[in_domain].tolist())
        domain = key_codec.domain_size
        candidates = rng.integers(0, domain, size=probe_absent * 3)
        absent = np.array([c for c in candidates.tolist()
                           if c not in present][:probe_absent],
                          dtype=np.int64)
        if absent.size:
            key_cols = key_codec.unflatten(absent)
            result = mapping.lookup(key_cols)
            if result.found.any():
                report.spurious_hits = int(result.found.sum())
                report.examples.setdefault("spurious", []).extend(
                    absent[result.found][:10].tolist())
    return report
