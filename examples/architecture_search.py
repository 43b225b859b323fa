"""MHAS demo: let the controller find the hybrid structure.

Runs the multi-task hybrid architecture search (paper Sec. IV-C) on the
TPC-DS customer_demographics table — the paper's flagship compressible
workload — and prints the search trace (Fig. 9's curve) plus the chosen
architecture.

Run:  python examples/architecture_search.py
(exits non-zero unless the searched structure answers losslessly)
"""

import sys

import numpy as np

import repro
from repro import DeepMappingConfig
from repro.bench import running_average
from repro.core.mhas import MHASConfig
from repro.data import tpcds


def main() -> bool:
    table = tpcds.generate("customer_demographics", scale=0.2, seed=5)
    print(f"dataset: {table.name}, {table.n_rows} rows, "
          f"{len(table.value_columns)} value columns "
          f"({table.uncompressed_bytes() // 1024} KB raw)\n")

    config = DeepMappingConfig(
        use_search=True,
        search=MHASConfig(
            iterations=24,
            controller_every=3,
            controller_samples=3,
            model_epochs=2,
            model_batch=1024,
            size_choices=(16, 32, 64, 128),
        ),
        epochs=100,
        batch_size=1024,
    )
    dm = repro.build(table, config)
    outcome = dm.model.search_history

    print(f"search explored {len(outcome.history)} candidate architectures "
          f"over {outcome.iterations_run} iterations "
          f"(space size: {4 ** 2 * 4 ** (2 * 6):,}-ish)")
    ratios = outcome.ratios()
    smoothed = running_average(ratios, window=5)
    print("smoothed sampled ratio (Fig. 9 shape):")
    for i in range(0, len(smoothed), max(1, len(smoothed) // 8)):
        bar = "#" * max(1, int(smoothed[i] * 60))
        print(f"  sample {i:3d}: {smoothed[i]:.3f} {bar}")

    spec = dm.model.session.spec
    print(f"\nchosen architecture: shared={spec.shared_sizes}, private="
          f"{ {t: spec.private_sizes[t] for t in spec.tasks} }")
    report = dm.size_report()
    print(f"final hybrid: {report.total_bytes // 1024} KB "
          f"(ratio {report.compression_ratio:.1%}), "
          f"{report.memorized_fraction:.0%} memorized")

    # Verify losslessness after the search, like any other build.
    probe = {"cd_demo_sk": table.column("cd_demo_sk")}
    result = dm.lookup(probe)
    exact = all(np.array_equal(result.values[c], table.column(c))
                for c in table.value_columns)
    print(f"lossless: {exact}")
    return exact


if __name__ == "__main__":
    sys.exit(0 if main() else 1)
