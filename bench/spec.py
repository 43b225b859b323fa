"""Frozen shape of the benchmark: store, workloads, operation sizes.

Everything a result depends on is a constant here, so two runs of one
commit measure the same work and a later PR cannot move a number by
editing a default somewhere else.  ``BENCHMARK.json`` (one directory up)
is the source of the metric and workload *names*; this module is the
source of the *sizes*.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from dataclasses import dataclass

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
#: Scratch space, inside the checkout (the driver allows no other place)
#: and outside ``bench/`` (which holds the benchmark and nothing else).
WORK_DIR = os.path.join(ROOT, ".bench_work")

WORKLOADS = ("bulk_scan", "serve_point", "tight_pool", "mutate_mix")


def import_product():
    """Put the checkout's ``src/`` first on ``sys.path``.

    The benchmark measures *this* checkout, never an installed copy."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise SystemExit(f"bench: no product source at {src}")
    if src not in sys.path:
        sys.path.insert(0, src)


def load_benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@dataclass(frozen=True)
class Scale:
    """Sizes of one benchmark scale (``full`` or ``smoke``)."""

    rows: int
    #: Set-ups per untraced run; ``setup_s`` is their median.
    setup_repeats: int
    #: ``bulk_scan`` batch; ``tight_pool`` batch.
    bulk_batch: int
    pool_batch: int
    #: Distinct pre-generated requests each read workload cycles through.
    bulk_pool: int
    tight_pool: int
    serve_pool: int
    #: ``mutate_mix`` rounds per second of ``--seconds`` (a count, so a
    #: seed's lifecycle events and final bytes repeat exactly).
    rounds_per_second: float


#: 50k rows is what fits: the driver gives 92 runs 3420 s, each run
#: sets up three times, and this box runs at half speed for minutes at
#: a time.  Calibrated on 2 cores: build ~2 s, aux_ratio ~0.25, so the
#: model and ``T_aux`` both have real work.
FULL = Scale(rows=50_000, setup_repeats=3, bulk_batch=50_000,
             pool_batch=1_000, bulk_pool=8, tight_pool=64,
             serve_pool=1_024, rounds_per_second=4.0)
SMOKE = Scale(rows=20_000, setup_repeats=1, bulk_batch=10_000,
              pool_batch=500, bulk_pool=4, tight_pool=16,
              serve_pool=256, rounds_per_second=8.0)

#: Keys per small request (``serve_point`` and every ``solo`` phase).
REQUEST_KEYS = 16
#: Distinct small requests every ``solo`` phase cycles through.
SOLO_POOL = 128
#: Request mix: uniform live / 64 hot live keys / in-domain gaps / out
#: of domain.  The hot keys are what cross-request dedup can merge; the
#: two kinds of miss exercise ``V_exist`` and the manifest filters.
REQUEST_MIX = (0.6, 0.2, 0.1, 0.1)
HOT_KEYS = 64
#: ``serve_point`` fan-in: connections x requests pipelined on each.
FANIN_CONNECTIONS = 2
FANIN_PIPELINE = 8
#: Share of each measured segment spent on the solo phase.
SOLO_SHARE = 0.3
#: The measured window is cut into this many equal segments; timings are
#: the median of the segments' medians, so a burst from a noisy
#: neighbour moves one segment and not the result.
SEGMENTS = 5
#: One measured operation in this many is checked, clock stopped.
CHECK_EVERY = 8
#: ``tight_pool`` budget: this share of the decompressed ``T_aux``.
POOL_SHARE = 1 / 8

#: ``mutate_mix`` round: rows inserted / updated / deleted, keys read.
ROUND_INSERT = 100
ROUND_UPDATE = 50
ROUND_DELETE = 50
ROUND_READ = 200
#: One round in this many appends past the key domain ("low"-correlated
#: rows, which also forces the tail shard to rebuild over a wider
#: domain, ~0.5 s); the others insert "high"-correlated rows into gaps.
#: One in four puts p95 of the round well inside the append band and p50
#: well inside the in-gap band, instead of either on an edge.
APPEND_EVERY = 4
#: Reads favour keys written in the last this-many rounds (half of them).
RECENT_ROUNDS = 10
#: A write call this many times slower than the median write call of
#: its kind is counted as a lifecycle stall.
STALL_FACTOR = 10.0


def store_configs():
    """The one store every workload runs against (frozen)."""
    from repro import DeepMappingConfig, LifecycleConfig, ShardingConfig

    config = DeepMappingConfig(
        epochs=12, batch_size=512, shared_sizes=(64,), private_sizes=(32,),
        # 4 KiB partitions cut the 50k-row table's T_aux into ~30
        # partitions; the default 64 KiB would leave one per shard and
        # nothing for a tight pool to evict.
        aux_partition_bytes=4 * 1024)
    sharding = ShardingConfig(
        n_shards=8, strategy="range",
        lifecycle=LifecycleConfig(policy="aux-ratio", aux_ratio=0.5,
                                  rebalance=True))
    return config, sharding


def generate_table(rows: int, seed: int):
    """Gaps in the key domain, so ``V_exist`` and in-domain misses matter."""
    from repro.data import synthetic

    return synthetic.single_column(rows, "high", seed=seed,
                                   domain_factor=2.0)


def digest(*arrays) -> str:
    """SHA-256 over arrays: detects drift in ``repro.data`` (outside
    ``bench/``) that would silently change a workload."""
    import numpy as np

    sha = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        sha.update(str(array.dtype).encode())
        sha.update(array.tobytes())
    return sha.hexdigest()


def disk_bytes(path: str) -> dict:
    """Bytes of every file under a saved store, manifest apart."""
    total = manifest = 0
    for directory, _, files in os.walk(path):
        for name in files:
            size = os.path.getsize(os.path.join(directory, name))
            total += size
            if name == "manifest.json":
                manifest += size
    return {"total": total, "manifest": manifest,
            "payload": total - manifest}
