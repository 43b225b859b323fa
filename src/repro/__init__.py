"""DeepMapping reproduction: learned data mapping for lossless compression
and efficient lookup (Zhou, Candan, Zou — ICDE 2024).

Public API highlights
---------------------
- :func:`repro.open` / :func:`repro.build` — THE way in: build a store
  over a table and reopen it later by URL (``file://``, ``mem://``,
  ``zip://``) or bare path.
- :class:`repro.store.DataStore` — the protocol every store satisfies
  (lookup / lookup_async / insert / delete / update / rebuild / save /
  size_report / close, context-managed).
- :class:`repro.DeepMapping` / :class:`repro.DeepMappingConfig` — the
  store (one model + one existence bit vector + decode map, its
  auxiliary table in N key shards, one by default) and its build knobs.
- :class:`repro.ShardingConfig` — the store's shard count, placement,
  executor strategy, buffer-pool budget and lifecycle.
- :class:`repro.LifecycleConfig` / :mod:`repro.lifecycle` — write-side
  maintenance: a retrain bound per policy name and range shard
  split/merge rebalancing.
- :func:`repro.serving` / :mod:`repro.serve` — the serving tier: a
  coalescing lookup server that merges many small concurrent requests
  into fused batches over a shared read-only store (in-process client,
  TCP/JSON-lines transport, ``python -m repro serve`` CLI).
- :mod:`repro.resilience` — the failure-handling layer every tier
  shares: :class:`repro.Deadline` budgets, :func:`repro.retry` with
  jittered backoff, per-backend :class:`repro.CircuitBreaker`\\ s,
  :class:`repro.PartialResult` shard fault isolation, and the typed
  error taxonomy (:class:`repro.StoreCorruptedError`,
  :class:`repro.StoreNotFoundError`, :class:`repro.DeadlineExceeded`).
  :mod:`repro.testing` holds the matching chaos-injection doubles.
- :mod:`repro.storage` — storage substrate, including the pluggable
  :class:`~repro.storage.StorageBackend` persistence layer.
- :mod:`repro.core.mhas` — multi-task hybrid architecture search.
- :mod:`repro.baselines` — AB/ABC-*, HB/HBC-*, DeepSqueeze comparators.
- :mod:`repro.data` — TPC-H / TPC-DS / synthetic / crop dataset generators.
- :mod:`repro.bench` — workload generation and latency/size measurement.

Quickstart
----------
Build a store over any :class:`~repro.data.ColumnTable`, persist it to a
URL, and reopen it — losslessness holds whatever the model learned:

>>> import numpy as np
>>> import repro
>>> table = repro.ColumnTable(
...     {"sku": np.arange(64, dtype=np.int64),
...      "price": (np.arange(64, dtype=np.int64) * 7) % 13},
...     key=("sku",))
>>> store = repro.build(table, repro.DeepMappingConfig(epochs=2, seed=0),
...                     url="mem://quickstart")
>>> int(store.lookup_one(sku=3)["price"])
8
>>> store.lookup_one(sku=999) is None
True
>>> with repro.open("mem://quickstart") as clone:
...     int(clone.lookup_one(sku=3)["price"])
8
"""

__version__ = "1.1.0"

from . import (baselines, bench, core, data, lifecycle, nn, resilience,
               serve, shard, storage, store, testing)
from .core import (
    DeepMappingConfig,
    LookupResult,
    MultiKeyDeepMapping,
    MultiRelationDeepMapping,
    SizeReport,
    build_range_view,
    lookup_range,
)
from .data import ColumnTable
from .lifecycle import LifecycleConfig, MaintenanceEngine
from .resilience import (CircuitBreaker, Deadline, DeadlineExceeded,
                         PartialResult, RetryPolicy, StoreCorruptedError,
                         StoreNotFoundError, retry)
from .shard import DeepMapping, ShardingConfig
from .store import DataStore, build_store, open_store, serving
from .store import build_store as build
from .store import open_store as open

__all__ = [
    "__version__",
    "open",
    "build",
    "open_store",
    "build_store",
    "serving",
    "DataStore",
    "DeepMapping",
    "DeepMappingConfig",
    "LookupResult",
    "SizeReport",
    "MultiKeyDeepMapping",
    "MultiRelationDeepMapping",
    "ShardingConfig",
    "LifecycleConfig",
    "MaintenanceEngine",
    "lookup_range",
    "build_range_view",
    "ColumnTable",
    "Deadline",
    "DeadlineExceeded",
    "RetryPolicy",
    "retry",
    "CircuitBreaker",
    "PartialResult",
    "StoreCorruptedError",
    "StoreNotFoundError",
    "baselines",
    "bench",
    "core",
    "data",
    "lifecycle",
    "nn",
    "resilience",
    "serve",
    "shard",
    "storage",
    "store",
    "testing",
]
