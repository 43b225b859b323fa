"""Paper Figure 10: compression/latency trade-off progression during MHAS.

Every architecture the search samples is a dot (compression ratio, lookup
FLOPs as the latency proxy); dots are grouped into early / middle / late
search stages.

Expected shape (paper): early samples scatter widely; as the search
progresses the cloud contracts into a small low-ratio region (the paper's
"samples start clustering in an increasingly shrinking region").
"""

import numpy as np
import pytest

from repro.bench import format_table
from repro.core import DeepMapping, DeepMappingConfig
from repro.core.mhas import MHASConfig
from repro.data import tpch

from conftest import write_report

SEARCH = MHASConfig(
    iterations=36,
    controller_every=3,
    controller_samples=3,
    model_epochs=2,
    model_batch=1024,
    size_choices=(16, 32, 64, 128),
    eval_sample=2048,
    tol=0.0,
)


def test_fig10_mhas_progression(benchmark):
    table = tpch.generate("part", scale=0.4, seed=10)
    config = DeepMappingConfig(use_search=True, search=SEARCH,
                               epochs=40, batch_size=1024)
    dm = DeepMapping.fit(table, config)
    history = dm.model.search_history.history

    thirds = np.array_split(np.arange(len(history)), 3)
    rows = []
    spreads = []
    for label, idx in zip(("early", "middle", "late"), thirds):
        ratios = np.array([history[i].ratio for i in idx])
        flops = np.array([history[i].flops for i in idx], dtype=float)
        spreads.append(float(ratios.std()))
        rows.append([
            label, len(idx), float(ratios.mean()), float(ratios.std()),
            float(flops.mean() / 1000.0),
        ])
    report = format_table(
        ["stage", "samples", "mean ratio", "ratio stddev", "mean kFLOPs"],
        rows,
        title="Figure 10: sampled (ratio, latency-proxy) by search stage "
              "(TPC-H part)",
    )
    write_report("fig10_mhas_progression", report)

    # Paper shape: the sampled-cloud mean ratio improves from the early
    # stage to the late stage.
    assert rows[2][2] <= rows[0][2]

    benchmark.pedantic(
        lambda: dm.lookup({"p_partkey": table.column("p_partkey")[:500]}),
        rounds=3, iterations=1,
    )
