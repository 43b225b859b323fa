"""Ablations of DeepMapping's design choices (DESIGN.md checklist).

Not a paper table — these isolate the decisions the paper argues for:

1. **Hybrid vs. model-only**: forcing a model to 100% accuracy (so no
   T_aux is needed) costs far more bytes than a small model plus an
   exception table (the paper's Sec. IV-B argument and Fig. 6 observation).
2. **Shared trunk vs. per-column models**: multi-task sharing beats
   training one network per column at equal budget (Sec. IV-A).
3. **Aux partition size sweep**: the Sec. V-A5 tuning discussion.
4. **Aux codec (Z vs L)**: the DM-Z / DM-L trade-off.
5. **Existence vector**: without V_exist every absent key would
   hallucinate a value (Sec. IV-B's spurious-result hazard).
"""

import numpy as np
import pytest

from repro import DeepMapping
from repro.bench import format_table, key_batches, measure_lookup
from repro.core import DeepMappingConfig
from repro.data import synthetic, tpch

from conftest import dm_config, write_report


def test_ablation_hybrid_vs_model_only(benchmark):
    """A small model + aux table beats inflating the model to 100%."""
    table = synthetic.multi_column(4000, "high")
    hybrid = DeepMapping.fit(table, dm_config("high"))
    hybrid_report = hybrid.size_report()

    rows = [["hybrid (64/32 + aux)", hybrid_report.model_bytes / 1024.0,
             hybrid_report.aux_bytes / 1024.0,
             hybrid_report.total_bytes / 1024.0,
             100 * hybrid_report.memorized_fraction]]
    # Grow the model until it memorizes everything (or we give up).
    model_only_total = None
    for width in (128, 256, 512):
        cfg = dm_config("high", shared_sizes=(width,),
                        private_sizes=(width // 2,), epochs=250)
        dm = DeepMapping.fit(table, cfg)
        report = dm.size_report()
        rows.append([f"model-only candidate ({width}/{width // 2})",
                     report.model_bytes / 1024.0,
                     report.aux_bytes / 1024.0,
                     report.total_bytes / 1024.0,
                     100 * report.memorized_fraction])
        if report.memorized_fraction == 1.0:
            model_only_total = report.total_bytes
            break
    report_text = format_table(
        ["configuration", "model KB", "aux KB", "total KB", "memorized %"],
        rows, title="Ablation 1: hybrid vs. grow-the-model")
    write_report("ablation_hybrid_vs_model_only", report_text)

    if model_only_total is not None:
        assert hybrid_report.total_bytes < model_only_total

    batch = key_batches(table, 1000, repeats=1)[0]
    benchmark.pedantic(lambda: hybrid.lookup(batch), rounds=3, iterations=1)


def test_ablation_shared_trunk_vs_per_column(benchmark):
    """One multi-task network vs. one single-task network per column."""
    table = synthetic.multi_column(4000, "high")
    shared = DeepMapping.fit(table, dm_config("high"))

    separate_total = 0
    separate_mis = 0
    for column in table.value_columns:
        single = table.take(np.arange(table.n_rows))
        from repro.data import ColumnTable

        sub = ColumnTable({"key": table.column("key"),
                           column: table.column(column)}, key=("key",))
        dm = DeepMapping.fit(sub, dm_config("high"))
        rep = dm.size_report()
        separate_total += rep.total_bytes
        separate_mis += rep.n_in_aux

    shared_rep = shared.size_report()
    report_text = format_table(
        ["configuration", "total KB", "rows in aux"],
        [["shared trunk (multi-task)", shared_rep.total_bytes / 1024.0,
          shared_rep.n_in_aux],
         ["per-column models", separate_total / 1024.0, separate_mis]],
        title="Ablation 2: shared trunk vs. per-column models")
    write_report("ablation_shared_trunk", report_text)

    # Sharing the trunk must not cost more storage in total.
    assert shared_rep.total_bytes < separate_total

    batch = key_batches(table, 1000, repeats=1)[0]
    benchmark.pedantic(lambda: shared.lookup(batch), rounds=3, iterations=1)


def test_ablation_aux_partition_size(benchmark):
    """Sec. V-A5: partition size trades loading against decompression."""
    table = synthetic.multi_column(10_000, "low")
    rows = []
    latencies = {}
    for partition in (2 * 1024, 16 * 1024, 128 * 1024):
        dm = DeepMapping.fit(table, dm_config(
            "low", aux_partition_bytes=partition))
        batches = key_batches(table, 2000, repeats=3, seed=5)
        latency = measure_lookup(dm, batches) * 1000.0
        latencies[partition] = latency
        rows.append([f"{partition // 1024}KB",
                     dm.shards[0].aux.partition_count,
                     dm.storage_bytes() / 1024.0, latency])
    report_text = format_table(
        ["aux partition", "partitions", "storage KB", "B=2000 latency ms"],
        rows, title="Ablation 3: auxiliary partition size sweep")
    write_report("ablation_partition_size", report_text)

    dm = DeepMapping.fit(table, dm_config("low"))
    batch = key_batches(table, 2000, repeats=1)[0]
    benchmark.pedantic(lambda: dm.lookup(batch), rounds=3, iterations=1)


def test_ablation_aux_codec(benchmark):
    """DM-Z vs DM-L: the fast/large vs slow/small auxiliary codec."""
    table = synthetic.multi_column(10_000, "low")
    from repro.bench.runner import dm_with_codec

    dm_z = DeepMapping.fit(table, dm_config("low", aux_codec="zstd"))
    dm_l = dm_with_codec(dm_z, "lzma")
    batches = key_batches(table, 2000, repeats=3, seed=6)
    rows = [
        ["DM-Z", dm_z.storage_bytes() / 1024.0,
         measure_lookup(dm_z, batches) * 1000.0],
        ["DM-L", dm_l.storage_bytes() / 1024.0,
         measure_lookup(dm_l, batches) * 1000.0],
    ]
    report_text = format_table(
        ["variant", "storage KB", "B=2000 latency ms"],
        rows, title="Ablation 4: auxiliary codec (Z vs L)")
    write_report("ablation_aux_codec", report_text)

    # LZMA must not be larger than the fast codec.
    assert rows[1][1] <= rows[0][1]

    batch = key_batches(table, 2000, repeats=1)[0]
    benchmark.pedantic(lambda: dm_z.lookup(batch), rounds=3, iterations=1)


def test_ablation_multi_base_key_encoding(benchmark):
    """Single-base vs multi-base key features on a cross-product table.

    TPC-DS customer_demographics columns are mixed-radix digits of the
    surrogate key; residues modulo 7/4 are invisible to base-10 digit
    features, so a small model cannot learn them.  Concatenating co-prime
    base expansions (10, 7, 4) makes every dimension CRT-readable and the
    table collapses into the model — our reproduction-side extension of
    the paper's encoding.
    """
    from repro.data import tpcds

    table = tpcds.generate("customer_demographics", scale=0.25, seed=13)
    rows = []
    reports = {}
    for label, base in (("base 10 (paper)", 10),
                        ("bases (10, 7, 4)", (10, 7, 4))):
        cfg = dm_config("high", key_base=base, epochs=200, batch_size=256,
                        shared_sizes=(48,), private_sizes=(24,), tol=1e-6)
        dm = DeepMapping.fit(table, cfg)
        report = dm.size_report()
        reports[label] = report
        rows.append([label, 100 * report.memorized_fraction,
                     report.total_bytes / 1024.0,
                     report.compression_ratio])
    report_text = format_table(
        ["key encoding", "memorized %", "total KB", "ratio"],
        rows, title="Ablation 7: single- vs multi-base key encoding "
                    "(customer_demographics)")
    write_report("ablation_multi_base", report_text)

    assert (reports["bases (10, 7, 4)"].memorized_fraction
            > reports["base 10 (paper)"].memorized_fraction + 0.3)

    batch = key_batches(table, 1000, repeats=1)[0]
    dm = DeepMapping.fit(table, dm_config("high", key_base=(10, 7, 4),
                                          epochs=60, batch_size=256))
    benchmark.pedantic(lambda: dm.lookup(batch), rounds=3, iterations=1)


def test_ablation_warm_start_retraining(benchmark):
    """Paper Sec. V-D future work: model reuse for the retrain path.

    A warm-started retrain (initialized from the previous model) reaches
    the early-stopping tolerance in no more epochs than a cold retrain,
    cutting the dominant cost of the DM-Z1 variant.
    """
    import time

    table = synthetic.multi_column(6000, "high")
    config = dm_config("high", tol=1e-4)
    warm = DeepMapping.fit(table, config)

    t0 = time.perf_counter()
    warm.rebuild()  # warm-started from the model it replaces
    warm_seconds = time.perf_counter() - t0
    t0 = time.perf_counter()
    cold = DeepMapping.fit(table, config)
    cold_seconds = time.perf_counter() - t0

    report_text = format_table(
        ["retrain", "epochs run", "seconds", "final ratio"],
        [["warm start", warm.model.last_training.epochs_run, warm_seconds,
          warm.size_report().compression_ratio],
         ["cold start", cold.model.last_training.epochs_run, cold_seconds,
          cold.size_report().compression_ratio]],
        title="Ablation 6: warm-started vs cold retraining")
    write_report("ablation_warm_start", report_text)

    assert warm.model.last_training.epochs_run <= cold.model.last_training.epochs_run

    batch = key_batches(table, 1000, repeats=1)[0]
    benchmark.pedantic(lambda: warm.lookup(batch), rounds=3, iterations=1)


def test_ablation_existence_vector(benchmark):
    """Without V_exist, absent keys hallucinate plausible values."""
    table = tpch.generate("orders", scale=0.2, seed=12)  # sparse keys
    dm = DeepMapping.fit(table, dm_config("low"))
    absent = table.column("o_orderkey") + 1  # gaps of 4 guarantee absence

    masked = dm.lookup({"o_orderkey": absent})
    hallucinated_with_vexist = int(masked.found.sum())

    # Simulate dropping the existence check: run the raw model path.
    flat, _ = dm.model.key_codec.try_flatten({"o_orderkey": absent})
    raw_predictions = dm.model.compiled_session().run(flat)
    hallucinated_without = int(raw_predictions["o_orderstatus"].size)

    report_text = format_table(
        ["configuration", "absent keys probed", "spurious answers"],
        [["with V_exist", absent.size, hallucinated_with_vexist],
         ["without V_exist", absent.size, hallucinated_without]],
        title="Ablation 5: existence vector necessity")
    write_report("ablation_existence_vector", report_text)

    assert hallucinated_with_vexist == 0
    assert hallucinated_without == absent.size  # every probe hallucinates

    batch = key_batches(table, 1000, repeats=1)[0]
    benchmark.pedantic(lambda: dm.lookup(batch), rounds=3, iterations=1)
