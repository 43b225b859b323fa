"""Paper Sec. V-D "Training Time vs Compression Time".

Builds every representation of the scaled lineitem table once and reports
wall-clock build time alongside the resulting size — the paper's
comparison of DM's expensive search+train against DS encoding and the
plain compressors (zstd: 80s, lzma: 86s, HBC-Z: 82s, DS: 11min, DM: ~1.5h
at full scale).

Expected shape: DM build (search + train) is orders of magnitude slower
than the syntactic compressors; DS sits in between; DM's ratio wins.
"""

import time

import pytest

from repro import DeepMapping
from repro.bench.runner import build_system, storage_of
from repro.bench import format_table
from repro.core import DeepMappingConfig
from repro.core.mhas import MHASConfig
from repro.data import tpch

from conftest import write_report

SYSTEMS = ["ABC-Z", "ABC-L", "HBC-Z", "HBC-L", "DS"]


def test_build_time(benchmark):
    table = tpch.generate("lineitem", scale=0.15, seed=11)
    rows = []
    times = {}
    for name in SYSTEMS:
        t0 = time.perf_counter()
        system = build_system(name, table, partition_bytes=16 * 1024)
        elapsed = time.perf_counter() - t0
        times[name] = elapsed
        rows.append([name, elapsed, storage_of(system) / 1024.0])

    config = DeepMappingConfig(
        use_search=True,
        search=MHASConfig(iterations=12, controller_every=3,
                          controller_samples=2, model_epochs=2,
                          model_batch=2048, size_choices=(32, 64, 128)),
        epochs=60, batch_size=2048,
    )
    t0 = time.perf_counter()
    dm = DeepMapping.fit(table, config)
    times["DM-Z (MHAS+train)"] = time.perf_counter() - t0
    rows.append(["DM-Z (MHAS+train)", times["DM-Z (MHAS+train)"],
                 dm.storage_bytes() / 1024.0])

    report = format_table(
        ["system", "build seconds", "storage KB"],
        rows,
        title="Build time vs. compression time (lineitem, scaled; "
              "paper Sec. V-D)",
    )
    write_report("build_time", report)

    # Paper shape: DM construction costs far more than plain compression.
    assert times["DM-Z (MHAS+train)"] > 5 * times["ABC-Z"]

    benchmark.pedantic(
        lambda: dm.lookup({k: table.column(k)[:200] for k in table.key}),
        rounds=3, iterations=1,
    )
