"""Paper Figure 9: compression ratio of sampled models during MHAS.

Runs the architecture search on scaled TPC-H tables and prints the sampled
ratio series (smoothed with a running average, as the paper's plots are).

Expected shape (paper): an initial flat region where sampled models cannot
yet memorize (ratios can exceed 1.0 — the structure is larger than the
data), followed by a clear decline as the shared weights train and the
controller concentrates on good architectures.
"""

import numpy as np
import pytest

from repro.bench import format_series, running_average
from repro.core import DeepMapping, DeepMappingConfig
from repro.core.mhas import MHASConfig
from repro.data import tpch

from conftest import write_report

SEARCH = MHASConfig(
    iterations=30,
    controller_every=3,
    controller_samples=3,
    model_epochs=2,
    model_batch=1024,
    size_choices=(16, 32, 64, 128),
    eval_sample=2048,
    tol=0.0,  # run all iterations so the trace covers the full search
)


_SCALES = {"orders": 0.2, "part": 0.5, "customer": 0.5}


@pytest.mark.parametrize("table_name", list(_SCALES))
def test_fig9_mhas_convergence(benchmark, table_name):
    table = tpch.generate(table_name, scale=_SCALES[table_name], seed=9)
    config = DeepMappingConfig(use_search=True, search=SEARCH,
                               epochs=40, batch_size=1024)
    dm = DeepMapping.fit(table, config)
    outcome = dm.model.search_history
    ratios = outcome.ratios()
    smoothed = running_average(ratios, window=max(3, len(ratios) // 6))

    xs = list(range(1, len(smoothed) + 1, max(1, len(smoothed) // 12)))
    report = "\n".join([
        f"Figure 9 [{table_name}]: sampled compression ratio during MHAS "
        f"({len(ratios)} samples, best={outcome.best_ratio:.4f})",
        format_series("  smoothed ratio", xs,
                      [float(smoothed[i - 1]) for i in xs]),
    ])
    write_report(f"fig9_mhas_{table_name}", report)

    # Paper shape: the trace leaves its initial flat region — the smoothed
    # curve ends at/below its early-phase peak (5% tolerance: on workloads
    # whose auxiliary table dominates every candidate, the trace is nearly
    # flat), and the best sampled ratio strictly improves on the first
    # sample.
    early_peak = smoothed[: max(3, len(smoothed) // 4)].max()
    assert smoothed[-1] <= early_peak * 1.05
    assert outcome.best_ratio < ratios[0]

    benchmark.pedantic(
        lambda: dm.lookup({k: table.column(k)[:500] for k in table.key}),
        rounds=3, iterations=1,
    )
