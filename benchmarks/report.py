"""Merge every tracked ``BENCH_*.json`` into one trajectory summary.

Each perf PR checks a full benchmark run into the repo root
(``BENCH_modify.json``, ``BENCH_api.json``, ``BENCH_prune.json``, ...).
This tool reads them all and renders one table — the benchmark
trajectory — so a reader (or a doc) sees the current state of every
tracked claim without opening each JSON file::

    PYTHONPATH=src python benchmarks/report.py             # aligned table
    PYTHONPATH=src python benchmarks/report.py --markdown  # for docs
    PYTHONPATH=src python benchmarks/report.py --check     # exit 1 if any
                                                           # acceptance failed

Unknown future benchmarks are handled generically: any JSON with an
``acceptance`` object contributes a row; well-known ones get a tighter
headline column.
"""

import argparse
import glob
import json
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _fmt(value, kind=""):
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if kind == "pct":
            return f"{value:+.2%}"
        if kind == "pct_abs":
            return f"{value:.1%}"
        if kind == "x":
            return f"{value:.2f}x"
        return f"{value:.3g}"
    return str(value)


def _headline(name, data):
    """(headline, target, measured) for one benchmark report."""
    acceptance = data.get("acceptance", {})
    if name == "api":
        return ("worst facade overhead vs direct",
                f"< {_fmt(acceptance.get('target'), 'pct')}",
                _fmt(acceptance.get("measured"), "pct"))
    if name == "modify":
        return ("rebalanced max/mean shard load",
                f"<= {_fmt(acceptance.get('rebalanced_ratio_bar'))}",
                _fmt(acceptance.get("rebalanced_ratio")))
    if name == "serving":
        ratio = _fmt(acceptance.get("coalesce_ratio"), "x")
        measured = (f"{_fmt(acceptance.get('measured'), 'x')} "
                    f"(coalesce {ratio})")
        overhead = data.get("resilience_overhead", {})
        if overhead.get("p50_overhead_pct") is not None:
            measured += (f"; deadline p50 "
                         f"{overhead['p50_overhead_pct']:+.1f}%")
        overload = data.get("overload", {})
        if overload.get("goodput_ratio") is not None:
            measured += (f"; flood: light p99 "
                         f"{_fmt(overload.get('light_p99_factor'), 'x')} "
                         f"goodput {_fmt(overload.get('goodput_ratio'))} "
                         f"lost {overload.get('drain_lost', '?')}")
        hedging = data.get("hedging", {})
        if hedging.get("tail_factor") is not None:
            measured += (f"; hedged tail "
                         f"{_fmt(hedging.get('tail_factor'), 'x')}")
        return (f"coalesced vs sequential lookups, "
                f"{acceptance.get('clients', '?')} clients",
                f">= {_fmt(acceptance.get('target'), 'x')}",
                measured)
    if name == "prune":
        pruning = data.get("pruning", {})
        miss = pruning.get("all_miss", {})
        return ("all-miss batch: keys pruned, shard plans; manifest bytes",
                f"all, 0; <= {acceptance.get('manifest_bytes_limit', '?')}",
                f"{miss.get('pruned_keys', '?')} of "
                f"{pruning.get('batch', '?')}, {miss.get('shard_plans', '?')}"
                f"; {pruning.get('manifest_bytes', '?')}")
    if name == "remote":
        skew = _fmt(acceptance.get("skew_fraction_measured"), "pct_abs")
        warm = _fmt(acceptance.get("warm_ratio_measured"), "x")
        cold = _fmt(data.get("cold_open", {}).get("fraction_of_store"),
                    "pct_abs")
        return ("skewed-workload download fraction; warm cached reopen",
                f"<= {_fmt(acceptance.get('skew_fraction_limit'), 'pct_abs')}; "
                f"<= {_fmt(acceptance.get('warm_ratio_limit'), 'x')}",
                f"{skew}; {warm} (cold open {cold} of store)")
    return (acceptance.get("metric", "(acceptance)"),
            _fmt(acceptance.get("target")),
            _fmt(acceptance.get("measured")))


def collect(root=REPO_ROOT):
    """Rows of (benchmark, generated, headline, target, measured, passed)."""
    rows = []
    for path in sorted(glob.glob(os.path.join(root, "BENCH_*.json"))):
        with open(path) as handle:
            data = json.load(handle)
        name = data.get("benchmark",
                        os.path.basename(path)[len("BENCH_"):-len(".json")])
        headline, target, measured = _headline(name, data)
        rows.append({
            "benchmark": name,
            "file": os.path.basename(path),
            "generated": data.get("generated", "-"),
            "headline": headline,
            "target": target,
            "measured": measured,
            "passed": bool(data.get("acceptance", {}).get("passed", False)),
        })
    return rows


def render(rows, markdown=False):
    header = ["benchmark", "headline metric", "target", "measured",
              "passed", "generated"]
    cells = [[r["benchmark"], r["headline"], r["target"], r["measured"],
              _fmt(r["passed"]), r["generated"]] for r in rows]
    if markdown:
        lines = ["| " + " | ".join(header) + " |",
                 "|" + "|".join("---" for _ in header) + "|"]
        lines += ["| " + " | ".join(str(c) for c in row) + " |"
                  for row in cells]
        return "\n".join(lines)
    widths = [max(len(str(x)) for x in [header[i]] + [row[i] for row in cells])
              for i in range(len(header))]
    lines = ["  ".join(header[i].ljust(widths[i]) for i in range(len(header)))]
    lines.append("  ".join("-" * w for w in widths))
    lines += ["  ".join(str(row[i]).ljust(widths[i])
                        for i in range(len(header))) for row in cells]
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--markdown", action="store_true",
                        help="emit a markdown table (for docs)")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero when any acceptance failed")
    parser.add_argument("--root", default=REPO_ROOT,
                        help="directory holding BENCH_*.json")
    args = parser.parse_args()

    rows = collect(args.root)
    if not rows:
        print(f"no BENCH_*.json found under {args.root}")
        return 1
    print(render(rows, markdown=args.markdown))
    if args.check and not all(r["passed"] for r in rows):
        failed = ", ".join(r["benchmark"] for r in rows if not r["passed"])
        print(f"\nFAILED acceptance: {failed}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
