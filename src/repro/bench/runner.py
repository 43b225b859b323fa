"""Measurement harness: build systems, time lookups, collect breakdowns.

This module reproduces the paper's experimental mechanics:

- every system (DeepMapping variants and baselines) is built over the same
  :class:`~repro.data.table.ColumnTable` and queried with identical random
  key batches;
- the available memory is modelled by a byte-budgeted LRU
  :class:`~repro.storage.buffer_pool.BufferPool` shared by a system's
  partitions (the paper's small/medium/large machines);
- per-bucket timers provide the Figure 7 latency breakdown;
- systems that cannot operate under the budget (DeepSqueeze's whole-table
  decode) are reported as ``failed`` like in Table I.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..baselines import make_baseline
from ..core.config import DeepMappingConfig
from ..core.deep_mapping import DeepMapping
from ..core.model import Model
from ..data.table import ColumnTable
from ..storage.buffer_pool import BufferPool, MemoryBudgetError
from ..storage.stats import StoreStats
from .workload import key_batches

__all__ = [
    "SystemResult",
    "build_system",
    "dm_with_codec",
    "measure_lookup",
    "run_comparison",
    "DM_VARIANTS",
]

#: DeepMapping variants by auxiliary codec, in the paper's naming.
DM_VARIANTS = {"DM-Z": "zstd", "DM-L": "lzma"}


@dataclass
class SystemResult:
    """Storage and latency outcome for one system on one workload."""

    system: str
    storage_bytes: int
    #: batch size -> mean seconds per batch (None = failed / OOM).
    latencies: Dict[int, Optional[float]] = field(default_factory=dict)
    #: Figure 7 buckets from the final run (seconds).
    breakdown: Dict[str, float] = field(default_factory=dict)
    #: Peak bytes resident in the system's buffer pool during the runs —
    #: the paper's run-time memory footprint desideratum.
    peak_pool_bytes: int = 0

    def latency_ms(self, batch: int) -> Optional[float]:
        """Convenience: latency in milliseconds."""
        value = self.latencies.get(batch)
        return None if value is None else value * 1000.0


def build_system(
    name: str,
    table: ColumnTable,
    pool: Optional[BufferPool] = None,
    stats: Optional[StoreStats] = None,
    dm_config: Optional[DeepMappingConfig] = None,
    partition_bytes: int = 64 * 1024,
    dm_template: Optional[DeepMapping] = None,
):
    """Build a named system ("DM-Z", "DM-L", or any baseline) over a table.

    ``dm_template`` lets DM variants share one trained model: the template's
    model/existence/decoder are reused and only the auxiliary table is
    rebuilt with the variant's codec (the two differ only there).
    """
    stats = stats if stats is not None else StoreStats()
    if name in DM_VARIANTS:
        if dm_template is not None:
            return dm_with_codec(dm_template, DM_VARIANTS[name], pool=pool,
                                 stats=stats)
        config = dm_config if dm_config is not None else DeepMappingConfig()
        config = _with_aux(config, DM_VARIANTS[name], partition_bytes)
        return DeepMapping.fit(table, config, pool=pool, stats=stats)
    store = make_baseline(name, target_partition_bytes=partition_bytes,
                          pool=pool, stats=stats)
    return store.build(table)


def _with_aux(config: DeepMappingConfig, codec: str,
              partition_bytes: int) -> DeepMappingConfig:
    from dataclasses import replace

    return replace(config, aux_codec=codec,
                   aux_partition_bytes=partition_bytes)


def dm_with_codec(
    template: DeepMapping,
    codec: str,
    pool: Optional[BufferPool] = None,
    stats: Optional[StoreStats] = None,
) -> DeepMapping:
    """Clone a DeepMapping, re-compressing only its auxiliary table.

    DM-Z and DM-L share the trained model; cloning avoids retraining when
    benchmarking both (the paper evaluates them as codec variants).
    """
    from dataclasses import replace

    from ..core.aux_table import AuxiliaryTable

    stats = stats if stats is not None else StoreStats()
    keys, codes = template.aux.scan()
    aux = AuxiliaryTable(
        tasks=template.fdecode.columns,
        codec=codec,
        target_partition_bytes=template.config.aux_partition_bytes,
        pool=pool,
        stats=stats,
        auto_compact_rows=template.config.aux_auto_compact_rows,
    )
    aux.build(keys, codes)
    model = Model(replace(template.config, aux_codec=codec),
                  template.key_codec, template.key_encoder,
                  template.session, template.fdecode,
                  template.model.dataset_bytes)
    return DeepMapping(model, aux, template.exist, stats=stats)


def storage_of(system) -> int:
    """Uniform storage accessor for DeepMapping and baselines."""
    if isinstance(system, DeepMapping):
        return system.storage_bytes()
    return system.stored_bytes()


def measure_lookup(
    system,
    batches: Sequence[Dict[str, np.ndarray]],
) -> Optional[float]:
    """Mean wall seconds per batch; None when the system fails (OOM)."""
    took: List[float] = []
    try:
        for batch in batches:
            start = time.perf_counter()
            system.lookup(batch)
            took.append(time.perf_counter() - start)
    except MemoryBudgetError:
        return None
    return float(np.mean(took))


def run_comparison(
    table: ColumnTable,
    systems: Sequence[str],
    batch_sizes: Sequence[int],
    memory_budget: Optional[int] = None,
    repeats: int = 3,
    dm_config: Optional[DeepMappingConfig] = None,
    partition_bytes: int = 64 * 1024,
    strict_pool_for: Sequence[str] = ("DS",),
    seed: int = 0,
) -> List[SystemResult]:
    """Build every system over ``table`` and time random-key lookups.

    Mirrors the paper's per-workload tables: one row per system with its
    offline storage size plus the mean lookup latency per batch size.
    Each system gets a private pool with the same byte budget; systems in
    ``strict_pool_for`` fail hard when a working set exceeds it.
    """
    results: List[SystemResult] = []
    dm_template: Optional[DeepMapping] = None
    for name in systems:
        stats = StoreStats()
        pool = BufferPool(budget_bytes=memory_budget, stats=stats,
                          strict=name in strict_pool_for)
        system = build_system(
            name, table, pool=pool, stats=stats, dm_config=dm_config,
            partition_bytes=partition_bytes, dm_template=dm_template,
        )
        if isinstance(system, DeepMapping) and dm_template is None:
            dm_template = system
        result = SystemResult(system=name, storage_bytes=storage_of(system))
        for batch_size in batch_sizes:
            batches = key_batches(table, batch_size, repeats, seed=seed)
            stats_reset_safe(system)
            result.latencies[batch_size] = measure_lookup(system, batches)
        result.breakdown = dict(stats.snapshot())
        result.peak_pool_bytes = pool.peak_bytes
        results.append(result)
    return results


def stats_reset_safe(system) -> None:
    """Reset a system's stats sink if it has one."""
    stats = getattr(system, "stats", None)
    if stats is not None:
        stats.reset()
