"""Smoke test of the benchmark itself (collected by the tier-1 command).

Runs all four workloads at ``--smoke`` scale (20k rows, about a second
of operations), untraced and traced, and checks the *shape* of what
comes out: exactly the names ``BENCHMARK.json`` declares, finite values,
no failed operation, layer rows that add up.  No timing is asserted.
"""

import json
import math
import os
import re
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)


def run_smoke(trace: int, out_dir) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--smoke",
         "--seconds", "1", "--seed", "7", "--trace", str(trace),
         "--out", str(out_dir)],
        cwd=ROOT, capture_output=True, text=True, timeout=55)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    lines = [json.loads(line) for line in done.stdout.splitlines()
             if line.startswith('{"correct"')]
    with open(os.path.join(out_dir, "results.json")) as handle:
        names = list(json.load(handle)["workloads"])
    assert len(lines) == len(names)
    return dict(zip(names, lines))


def check_lines(lines: dict, declared: list) -> None:
    assert list(lines) == [w["name"] for w in BENCHMARK["workloads"]]
    units = {entry["name"]: entry["unit"] for entry in declared}
    for workload, line in lines.items():
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0, workload
        assert line["attempted"] >= 1
        assert set(line["metrics"]) == set(units), workload
        for name, metric in line["metrics"].items():
            assert NAME.match(name), name
            assert metric["unit"] == units[name]
            assert math.isfinite(metric["value"]), (workload, name)


def test_untraced_smoke_emits_every_end_to_end_metric(tmp_path):
    lines = run_smoke(0, tmp_path)
    check_lines(lines, BENCHMARK["end_to_end"])
    for workload, line in lines.items():
        for name, metric in line["metrics"].items():
            assert metric["value"] > 0, (workload, name)


def test_traced_smoke_emits_every_layer_metric_and_rows_add_up(tmp_path):
    lines = run_smoke(1, tmp_path)
    check_lines(lines, BENCHMARK["per_layer"])
    for workload, line in lines.items():
        metrics = {k: v["value"] for k, v in line["metrics"].items()}
        rows = sum(v for k, v in metrics.items()
                   if k.endswith(".self_ms_per_op"))
        assert metrics["traced_op_ms"] > 0
        # serve_point's rows are differences of medians taken in two
        # processes at two moments, on a box whose speed drifts between
        # them; the other tables are spans of one process.
        slack = 0.25 if workload == "serve_point" else 0.10
        assert abs(metrics["traced_op_ms"] - rows) \
            <= slack * metrics["traced_op_ms"], (workload, metrics)
        assert os.path.exists(tmp_path / f"trace-{workload}.jsonl")


def test_names_in_benchmark_json_are_well_formed_and_unique():
    names = [entry["name"] for part in ("workloads", "end_to_end",
                                        "per_layer")
             for entry in BENCHMARK[part]]
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    assert any(e["name"] == "setup_s" and e["unit"] == "s"
               and e["better"] == "lower" for e in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("forbidden", ["repro.bench", "benchmarks", "tests"])
def test_benchmark_imports_only_the_public_product_surface(forbidden):
    """Later PRs may rework ``repro.bench``, ``benchmarks/`` and
    ``tests/``; none of that may change what is measured."""
    pattern = re.compile(
        r"^\s*(from|import)\s+" + re.escape(forbidden) + r"\b", re.M)
    for name in sorted(os.listdir(BENCH_DIR)):
        if name.endswith(".py") and name != os.path.basename(__file__):
            with open(os.path.join(BENCH_DIR, name)) as handle:
                assert not pattern.search(handle.read()), (name, forbidden)
