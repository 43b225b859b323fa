"""Range-query extensions (paper Sec. IV-E).

Two approaches, as sketched in the paper:

1. **Batch-inference** (:func:`lookup_range`): filter the existence index
   for keys inside the range, then run the normal batch lookup over them.
   Exact results.
2. **View-based** (:func:`build_range_view`): materialize sampled range-
   aggregate results into a view keyed by (lower, upper) and learn a
   DeepMapping over that view; queries with known boundaries become point
   lookups.  Approximate by construction (only sampled boundaries exist).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..data.table import ColumnTable
from .config import DeepMappingConfig
from .plan import LookupResult

__all__ = ["lookup_range", "build_range_view"]


def lookup_range(
    mapping,
    low: Dict[str, int],
    high: Dict[str, int],
) -> Tuple[Dict[str, np.ndarray], LookupResult]:
    """Exact range lookup over ``mapping``'s (a
    :class:`repro.DeepMapping`'s) key domain.

    ``low``/``high`` give inclusive per-key-column bounds.  Returns
    ``(key_columns, result)`` for every existing key inside the box; the
    result's ``found`` is all-True by construction.
    """
    missing = [k for k in mapping.key_names if k not in low or k not in high]
    if missing:
        raise KeyError(f"bounds missing for key columns: {missing}")

    # Step 1 (paper): range-filter the existence index.
    live = mapping.exist.existing_keys()
    key_cols = mapping.model.key_codec.unflatten(live)
    mask = np.ones(live.size, dtype=bool)
    for name in mapping.key_names:
        col = key_cols[name]
        mask &= (col >= int(low[name])) & (col <= int(high[name]))
    selected = {name: arr[mask] for name, arr in key_cols.items()}

    # Step 2: batch inference over the collected keys.
    result = mapping.lookup(selected)
    return selected, result


def build_range_view(
    mapping,
    column: str,
    ranges: Sequence[Tuple[int, int]],
    config: Optional[DeepMappingConfig] = None,
):
    """Learn a DeepMapping over materialized range-aggregate results.

    For each ``(low, high)`` range over the *first* key column, the count
    of existing keys whose ``column`` values take the range's modal value
    is materialized; the view maps ``(range_low, range_high) -> (mode,
    count_bucket)``.  This is the paper's approximate view-based approach,
    suitable for range-aggregation workloads.
    """
    if column not in mapping.value_names:
        raise KeyError(f"unknown value column {column!r}")
    if not ranges:
        raise ValueError("at least one range is required")
    first = mapping.key_names[0]

    lows, highs, modes, buckets = [], [], [], []
    for low, high in ranges:
        bounds_lo = {name: -(2**31) for name in mapping.key_names}
        bounds_hi = {name: 2**31 for name in mapping.key_names}
        bounds_lo[first] = low
        bounds_hi[first] = high
        _, result = lookup_range(mapping, bounds_lo, bounds_hi)
        values = result.values[column]
        if values.size:
            uniq, counts = np.unique(values, return_counts=True)
            mode = uniq[counts.argmax()]
            count = int(counts.max())
        else:
            mode, count = "", 0
        lows.append(low)
        highs.append(high)
        modes.append(mode)
        buckets.append(min(count.bit_length(), 20))  # log2 count bucket

    view = ColumnTable(
        {
            "range_low": np.array(lows, dtype=np.int64),
            "range_high": np.array(highs, dtype=np.int64),
            "mode_value": np.array(modes),
            "count_bucket": np.array(buckets, dtype=np.int64),
        },
        key=("range_low", "range_high"),
        name=f"range_view_{column}",
    )
    view_config = config if config is not None else DeepMappingConfig(
        epochs=40, batch_size=256, shared_sizes=(64,), private_sizes=(32,)
    )
    from ..shard.store import DeepMapping  # the store imports core
    return DeepMapping.fit(view, view_config)
