"""Modification-path benchmark: skewed inserts, rebalancing, shard balance.

Streams a hot-tail insert workload (every batch appends past the current
key maximum, so a range-sharded store funnels the whole stream into its
last shard — the classic append-skew failure) into two 4-shard range
stores:

- **baseline** — unmanaged: the hot shard grows without bound;
- **rebalanced** — a :class:`~repro.lifecycle.MaintenanceEngine` with
  split/merge rebalancing enabled.

After the stream, a drain phase deletes most of the inserted rows so the
engine's merge path runs too.  The benchmark records the shard-balance
trajectory (max/mean row-count ratio after every batch), insert
throughput, split/merge counts, and the store's model bytes at build and
after the stream and drain: the store has one model, and a split or
merge only repartitions its rows, so the model footprint stays flat.
Losslessness is asserted throughout — every live key must answer
exactly, from the store's read path and from the reference-engine
oracle (``repro.testing.oracles``) alike.

Writes ``BENCH_modify.json`` at the repo root so the trajectory is
machine-readable from PR to PR; ``docs/lifecycle.md`` explains how to
read and refresh it.  Run::

    PYTHONPATH=src python benchmarks/bench_modify.py           # full
    PYTHONPATH=src python benchmarks/bench_modify.py --smoke   # CI seconds

The full run enforces the acceptance bars: rebalanced max/mean <= 2.0
where the baseline exceeds 3.5, at least one split and one merge
performed, and the rebalanced store's model bytes after all of it equal
to its model bytes at build.  Smoke mode shrinks everything (while still
exercising one split and one merge) and writes its JSON under
``benchmarks/results/`` instead of the repo root.
"""

import argparse
import json
import os
import time

import numpy as np

from repro.bench import format_table
from repro.core import DeepMappingConfig
from repro.data import synthetic
from repro.lifecycle import LifecycleConfig
from repro.shard import DeepMapping, ShardingConfig
from repro.testing.oracles import barrier_lookup, reference_lookup

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "results")

BASELINE_RATIO_BAR = 3.5
REBALANCED_RATIO_BAR = 2.0


def bench_config(smoke: bool) -> DeepMappingConfig:
    return DeepMappingConfig(
        epochs=2 if smoke else 6,
        batch_size=2048,
        shared_sizes=(64,),
        private_sizes=(32,),
        aux_partition_bytes=16 * 1024,
        key_headroom_fraction=1.0,  # absorb some appends without rebuilds
    )


def lifecycle_config(smoke: bool) -> LifecycleConfig:
    return LifecycleConfig(
        policy="never",           # isolate rebalancing from retrain noise
        rebalance=True,
        split_balance=1.6,
        split_min_rows=32 if smoke else 128,
        merge_balance=0.4,
        max_actions_per_run=8,
        max_shards=64,
    )


def verify_lossless(store, truth: dict) -> None:
    """Every live key answers its exact row, from the store's read path
    and from the reference engine behind the barrier merge."""
    keys = np.fromiter(truth.keys(), dtype=np.int64, count=len(truth))
    expected = np.array([truth[int(k)] for k in keys])
    query = {"key": keys}
    for engine, result in (
            ("compiled", store.lookup(query)),
            ("reference", barrier_lookup(store, query,
                                         shard_lookup=reference_lookup))):
        assert result.found.all(), (
            f"{int((~result.found).sum())} misses with the {engine} engine")
        mismatches = int((result.values["value"] != expected).sum())
        assert mismatches == 0, (
            f"{mismatches} wrong values with the {engine} engine")


def balance_ratio(store) -> float:
    counts = np.asarray(store.shard_row_counts(), dtype=np.float64)
    return float(counts.max() / counts.mean())


def run_modify_benchmark(rows: int = 2000, stream: int = 12_000,
                         batch: int = 500, verify_every: int = 4,
                         smoke: bool = False):
    table = synthetic.single_column(rows, "high", seed=1)
    config = bench_config(smoke)

    rebalanced = DeepMapping.fit(
        table, config,
        ShardingConfig(n_shards=4,
                       lifecycle=lifecycle_config(smoke)))
    baseline = DeepMapping.fit(
        table, config, ShardingConfig(n_shards=4))
    built_model_bytes = rebalanced.size_report().model_bytes

    truth = {int(k): v for k, v in zip(table.column("key"),
                                       table.column("value"))}
    rng = np.random.default_rng(7)
    base_values = table.column("value")

    # ---- hot-tail insert stream --------------------------------------
    trajectory = []
    insert_seconds = {"baseline": 0.0, "rebalanced": 0.0}
    next_key = int(table.column("key").max()) + 1
    n_batches = stream // batch
    for index in range(n_batches):
        keys = np.arange(next_key, next_key + batch, dtype=np.int64)
        next_key += batch
        values = rng.choice(base_values, size=batch)
        rows_batch = {"key": keys, "value": values}
        for key, value in zip(keys, values):
            truth[int(key)] = value

        start = time.perf_counter()
        rebalanced.insert({k: v.copy() for k, v in rows_batch.items()})
        insert_seconds["rebalanced"] += time.perf_counter() - start

        start = time.perf_counter()
        baseline.insert({k: v.copy() for k, v in rows_batch.items()})
        insert_seconds["baseline"] += time.perf_counter() - start

        trajectory.append({
            "batch": index + 1,
            "rows_total": len(truth),
            "baseline_counts": baseline.shard_row_counts(),
            "rebalanced_counts": rebalanced.shard_row_counts(),
            "baseline_ratio": balance_ratio(baseline),
            "rebalanced_ratio": balance_ratio(rebalanced),
            "splits": rebalanced.engine.n_splits,
            "merges": rebalanced.engine.n_merges,
        })
        if (index + 1) % verify_every == 0:
            verify_lossless(rebalanced, truth)

    verify_lossless(rebalanced, truth)
    verify_lossless(baseline, truth)
    post_stream = {
        "baseline_ratio": balance_ratio(baseline),
        "rebalanced_ratio": balance_ratio(rebalanced),
        "rebalanced_shards": rebalanced.n_shards,
        "splits": rebalanced.engine.n_splits,
    }

    # ---- drain phase: exercise merges --------------------------------
    inserted = np.array(sorted(k for k in truth
                               if k > int(table.column("key").max())),
                        dtype=np.int64)
    drain = inserted[:int(inserted.size * 0.9)]
    rebalanced.delete({"key": drain})
    for key in drain:
        del truth[int(key)]
    verify_lossless(rebalanced, truth)
    post_drain = {
        "rebalanced_ratio": balance_ratio(rebalanced),
        "rebalanced_shards": rebalanced.n_shards,
        "merges": rebalanced.engine.n_merges,
    }

    # ---- model footprint: splits and merges train nothing -------------
    final_model_bytes = rebalanced.size_report().model_bytes
    footprint = {
        "n_shards": rebalanced.n_shards,
        "built_model_bytes": int(built_model_bytes),
        "final_model_bytes": int(final_model_bytes),
    }
    model_bytes_flat = final_model_bytes == built_model_bytes

    report = {
        "benchmark": "modify",
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "mode": "smoke" if smoke else "full",
        "rows": rows,
        "stream": stream,
        "batch": batch,
        "config": {
            "epochs": config.epochs,
            "shared_sizes": list(config.shared_sizes),
            "private_sizes": list(config.private_sizes),
            "key_headroom_fraction": config.key_headroom_fraction,
        },
        "lifecycle": lifecycle_config(smoke).to_state(),
        "insert_rows_per_second": {
            label: stream / seconds
            for label, seconds in insert_seconds.items()
        },
        "trajectory": trajectory,
        "post_stream": post_stream,
        "post_drain": post_drain,
        "model_footprint": footprint,
        "acceptance": {
            "rebalanced_ratio_bar": REBALANCED_RATIO_BAR,
            "baseline_ratio_bar": BASELINE_RATIO_BAR,
            "rebalanced_ratio": post_stream["rebalanced_ratio"],
            "baseline_ratio": post_stream["baseline_ratio"],
            "splits": post_stream["splits"],
            "merges": post_drain["merges"],
            "model_bytes_flat": model_bytes_flat,
            "passed": (
                post_stream["rebalanced_ratio"] <= REBALANCED_RATIO_BAR
                and post_stream["baseline_ratio"] > BASELINE_RATIO_BAR
                and post_stream["splits"] >= 1
                and post_drain["merges"] >= 1
                and model_bytes_flat
            ),
        },
    }

    sampled = trajectory[:: max(1, len(trajectory) // 8)]
    print(format_table(
        ["batch", "rows", "baseline max/mean", "rebalanced max/mean",
         "shards", "splits", "merges"],
        [[t["batch"], t["rows_total"], t["baseline_ratio"],
          t["rebalanced_ratio"], len(t["rebalanced_counts"]),
          t["splits"], t["merges"]] for t in sampled],
        title=(f"Hot-tail insert stream (base rows={rows}, "
               f"stream={stream}, batch={batch})"),
    ))
    print(f"insert throughput: "
          f"baseline {report['insert_rows_per_second']['baseline']:,.0f} "
          f"rows/s, rebalanced "
          f"{report['insert_rows_per_second']['rebalanced']:,.0f} rows/s")
    print(f"post-drain: {post_drain['rebalanced_shards']} shards after "
          f"{post_drain['merges']} merges "
          f"(ratio {post_drain['rebalanced_ratio']:.2f})")
    print(f"model footprint: {built_model_bytes:,} B at build, "
          f"{final_model_bytes:,} B after {post_stream['splits']} splits "
          f"and {post_drain['merges']} merges")

    # A smoke run must still exercise the full lifecycle once.
    assert post_stream["splits"] >= 1, "no split performed"
    assert post_drain["merges"] >= 1, "no merge performed"
    assert model_bytes_flat, "a split or merge changed the model"
    if not smoke:
        acceptance = report["acceptance"]
        assert acceptance["passed"], f"acceptance bars missed: {acceptance}"

    for store in (baseline, rebalanced):
        store.close()
    return report


def write_json(report, out_path: str) -> None:
    os.makedirs(os.path.dirname(out_path) or ".", exist_ok=True)
    with open(out_path, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"[benchmark JSON saved to {out_path}]")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny config for CI (seconds, not minutes); "
                             "writes under benchmarks/results/ instead of "
                             "the repo root")
    parser.add_argument("--out", default=None,
                        help="override the output JSON path")
    args = parser.parse_args(argv)
    if args.smoke:
        report = run_modify_benchmark(rows=600, stream=1800, batch=300,
                                      verify_every=2, smoke=True)
        out = args.out or os.path.join(RESULTS_DIR,
                                       "BENCH_modify_smoke.json")
    else:
        report = run_modify_benchmark()
        out = args.out or os.path.join(REPO_ROOT, "BENCH_modify.json")
    write_json(report, out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
