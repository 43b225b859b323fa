"""Run-to-run spread of every end-to-end metric, the way the driver takes it.

    python3 bench/spread.py [--runs 10] [--first-seed 100] [--workload NAME]...

Runs the benchmark ``--runs`` times per workload, each time with another
seed, and prints for each metric the distance between the first and the
third quartile of its values (``statistics.quantiles(values, n=4)``) as
a share of their median, beside the metric's bound.  A benchmark is
steady enough when every spread is below a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys

import spec


def main() -> int:
    benchmark = spec.load_benchmark_json()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--workload", action="append",
                        choices=spec.WORKLOADS)
    args = parser.parse_args()
    command = benchmark["command"] + [
        "--seconds", str(benchmark["run_seconds"]), "--trace", "0"]
    worst = 0
    for workload in args.workload or spec.WORKLOADS:
        values = {entry["name"]: [] for entry in benchmark["end_to_end"]}
        slowdowns = []
        for run in range(args.runs):
            done = subprocess.run(
                command + ["--workload", workload,
                           "--seed", str(args.first_seed + run)],
                cwd=spec.ROOT, capture_output=True, text=True, timeout=180)
            if done.returncode != 0:
                print(done.stdout[-2000:], done.stderr[-2000:])
                return 1
            line = json.loads(done.stdout.strip().splitlines()[-1])
            slowdowns.append(float(
                re.search(r"ran ([0-9.]+)x slower", done.stdout).group(1)))
            for name, metric in line["metrics"].items():
                values[name].append(metric["value"])
        for entry in benchmark["end_to_end"]:
            series = values[entry["name"]]
            q1, _, q3 = statistics.quantiles(series, n=4)
            median = statistics.median(series)
            spread = (q3 - q1) / median
            verdict = "ok" if spread <= entry["bound"] / 3 else (
                "wide" if spread <= entry["bound"] else "TOO WIDE")
            if verdict == "TOO WIDE" and entry["name"] != "setup_s":
                worst = 1
            print(f"{workload:<12}{entry['name']:<16}median "
                  f"{median:>12.6g} {entry['unit']:<7} spread "
                  f"{spread * 100:6.2f}% of bound "
                  f"{entry['bound'] * 100:4.0f}%  {verdict}", flush=True)
        q1, _, q3 = statistics.quantiles(slowdowns, n=4)
        print(f"{workload:<12}the box ran {min(slowdowns):.2f}x to "
              f"{max(slowdowns):.2f}x slower than the reference speed "
              f"(spread {(q3 - q1) / statistics.median(slowdowns) * 100:.1f}"
              f"%), which the timings above have had divided out",
              flush=True)
    return worst


if __name__ == "__main__":
    sys.exit(main())
