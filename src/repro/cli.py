"""Command-line interface for the DeepMapping reproduction.

Subcommands:

- ``build``  — fit a store over a generated dataset and save it
- ``info``   — print a saved store's size report
- ``query``  — point lookups against a saved store
- ``serve``  — long-lived coalescing lookup server (TCP/JSON-lines)
- ``bench``  — quick size/latency comparison against baselines

``build --shards N`` splits the store's ``T_aux`` across N shards (one
by default).  A saved store is a container: manifest, model, existence
index and one payload per non-empty shard.

Store targets are URLs — ``file://`` (the default for bare paths, a
directory), ``mem://`` (process-local scratch), ``zip://`` (the
single-file form) — resolved through :func:`repro.open`, which reads a
bare path as ``file://``.

Examples::

    python -m repro build --dataset tpch:orders --scale 0.2 --out orders.dms
    python -m repro build --dataset tpch:orders --shards 4 --out orders4.dms
    python -m repro build --dataset tpch:orders --out zip://orders.zip
    python -m repro info orders.dms
    python -m repro query zip://orders.zip --key o_orderkey=1
    python -m repro serve orders.dms --port 7474 --max-delay-ms 2
    python -m repro bench --dataset synthetic:multi-high --systems DM-Z,ABC-Z
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional

import numpy as np

from .bench import format_storage_latency_table, run_comparison
from .core import DeepMappingConfig
from .data import ColumnTable, crop, synthetic, tpcds, tpch
from .lifecycle import LifecycleConfig, POLICY_NAMES
from .shard import MANIFEST_NAME, DeepMapping, ShardingConfig
from .shard.persistence import is_shard_blob
from .storage import read_blob_view
from .store import EXECUTOR_NAMES, build_store, describe_target, open_store

__all__ = ["main", "load_dataset"]


def load_dataset(spec: str, scale: float, seed: int) -> ColumnTable:
    """Resolve a dataset spec of the form ``family:name``.

    Families: ``tpch`` (supplier/part/customer/orders/lineitem), ``tpcds``
    (customer_demographics/catalog_sales/catalog_returns), ``synthetic``
    (single-low/single-high/multi-low/multi-high, rows = 10000 * scale),
    and ``crop`` (raster edge = 100 * sqrt(scale)).
    """
    family, _, name = spec.partition(":")
    if family == "tpch":
        return tpch.generate(name, scale=scale, seed=seed)
    if family == "tpcds":
        return tpcds.generate(name, scale=scale, seed=seed)
    if family == "synthetic":
        rows = max(int(10_000 * scale), 100)
        kind, _, correlation = name.partition("-")
        if kind == "single":
            return synthetic.single_column(rows, correlation, seed=seed)
        if kind == "multi":
            return synthetic.multi_column(rows, correlation, seed=seed)
        raise SystemExit(f"unknown synthetic dataset {name!r}")
    if family == "crop":
        edge = max(int(100 * np.sqrt(scale)), 10)
        return crop.generate(edge, edge, seed=seed)
    raise SystemExit(f"unknown dataset family {family!r} in {spec!r}")


def _config_from_args(args: argparse.Namespace) -> DeepMappingConfig:
    kwargs = dict(
        epochs=args.epochs,
        batch_size=args.batch_size,
        learning_rate=args.learning_rate,
        aux_codec=args.aux_codec,
        key_headroom_fraction=args.headroom,
        use_search=args.search,
        seed=args.seed,
    )
    if args.shared:
        kwargs["shared_sizes"] = tuple(int(s) for s in args.shared.split(","))
    if args.private:
        kwargs["private_sizes"] = tuple(int(s) for s in args.private.split(","))
    return DeepMappingConfig(**kwargs)


def _load_structure(path: str, **open_kwargs) -> DeepMapping:
    """Open a saved store via :func:`repro.open`."""
    try:
        return open_store(path, **open_kwargs)
    except (FileNotFoundError, ValueError) as exc:
        # Both carry the accepted-scheme list in their message.
        raise SystemExit(str(exc)) from None


def _lifecycle_from_args(args: argparse.Namespace) -> Optional[LifecycleConfig]:
    """A LifecycleConfig when any lifecycle knob was given, else None."""
    wants = (args.rebalance or args.retrain_policy is not None
             or args.retrain_bytes is not None)
    if not wants:
        return None
    if args.retrain_policy == "bytes" and args.retrain_bytes is None:
        # A bytes bound with no threshold never fires — the explicitly
        # requested policy would silently behave like "never".
        raise SystemExit("--retrain-policy bytes needs --retrain-bytes")
    if args.retrain_policy is not None:
        policy = args.retrain_policy
    elif args.retrain_bytes is not None:
        policy = "bytes"
    else:
        # Only --rebalance given: no retrain trigger
        # was requested, so say so instead of a thresholdless "bytes".
        policy = "never"
    return LifecycleConfig(
        policy=policy,
        retrain_bytes=args.retrain_bytes,
        rebalance=args.rebalance,
    )


def _cmd_build(args: argparse.Namespace) -> int:
    if args.shards < 1:
        raise SystemExit(f"--shards must be >= 1, got {args.shards}")
    lifecycle = _lifecycle_from_args(args)
    table = load_dataset(args.dataset, args.scale, args.seed)
    print(f"building DeepMapping over {table.name}: {table.n_rows} rows, "
          f"{table.uncompressed_bytes() // 1024} KB raw")
    dm = build_store(
        table, _config_from_args(args),
        sharding=ShardingConfig(n_shards=args.shards,
                                executor=args.executor,
                                lifecycle=lifecycle))
    print(f"sharded range x{args.shards}: "
          f"rows/shard {dm.shard_row_counts()}")
    if dm.engine is not None:
        summary = dm.engine.summary()
        print(f"lifecycle: policy={summary['policy']} "
              f"rebalance={summary['rebalance']}")
    report = dm.size_report()
    print(f"hybrid: {report.total_bytes // 1024} KB "
          f"(ratio {report.compression_ratio:.3f}); "
          f"memorized {report.memorized_fraction:.0%} of tuples")
    nbytes = dm.save(args.out)
    print(f"saved {nbytes} bytes to {args.out}")
    return 0


def _on_disk_line(path: str, n_rows: int, paper_bytes: int) -> str:
    """The bytes the store's blobs really occupy, next to the paper's
    accounting (``total:``), which counts neither container framing nor
    the manifest."""
    backend, _ = describe_target(path)
    sizes = {name: read_blob_view(backend, name).nbytes
             for name in backend.list()}
    total = sum(sizes.values())
    shards = sum(size for name, size in sizes.items()
                 if is_shard_blob(name))
    return (f"on disk:      {total:>10,} B "
            f"({total / max(n_rows, 1):.2f} B/row, "
            f"{total / max(paper_bytes, 1):.2f}x total: "
            f"manifest {sizes[MANIFEST_NAME]:,} B, "
            f"shard payloads {shards:,} B)")


def _cmd_info(args: argparse.Namespace) -> int:
    dm = _load_structure(args.path)
    report = dm.size_report()
    print(f"keys: {dm.key_names}; values: {list(dm.value_names)}; "
          f"live rows: {len(dm)}")
    print(f"shards:       {dm.n_shards} "
          f"(range; rows {dm.shard_row_counts()})")
    if dm.engine is not None:
        summary = dm.engine.summary()
        print(f"lifecycle:    policy={summary['policy']}, "
              f"rebalance={summary['rebalance']}; "
              f"{summary['rebuilds']} rebuilds, "
              f"{summary['splits']} splits, {summary['merges']} merges")
    print(f"model:        {report.model_bytes:>10,} B "
          f"({dm.model.session.width_label})")
    print(f"aux table:    {report.aux_bytes:>10,} B ({report.n_in_aux} rows)")
    print(f"exist vector: {report.exist_bytes:>10,} B")
    print(f"decode map:   {report.decode_bytes:>10,} B")
    print(f"total:        {report.total_bytes:>10,} B "
          f"(ratio {report.compression_ratio:.3f} of "
          f"{report.dataset_bytes:,} B raw)")
    print(_on_disk_line(args.path, len(dm), report.total_bytes))
    print(f"memorized:    {report.memorized_fraction:.1%} of tuples")
    return 0


def _parse_key(pairs: List[str], key_names) -> Dict[str, np.ndarray]:
    parsed: Dict[str, List[int]] = {name: [] for name in key_names}
    row: Dict[str, int] = {}
    for pair in pairs:
        name, _, value = pair.partition("=")
        if name not in parsed:
            raise SystemExit(f"unknown key column {name!r}; "
                             f"expected {tuple(key_names)}")
        row[name] = int(value)
        if set(row) == set(key_names):
            for k, v in row.items():
                parsed[k].append(v)
            row = {}
    if row:
        raise SystemExit("incomplete trailing key (missing columns "
                         f"{sorted(set(key_names) - set(row))})")
    return {k: np.array(v, dtype=np.int64) for k, v in parsed.items()}


def _cmd_query(args: argparse.Namespace) -> int:
    dm = _load_structure(args.path)
    keys = _parse_key(args.key, dm.key_names)
    n = len(next(iter(keys.values())))
    if n == 0:
        raise SystemExit("no --key given")
    result = dm.lookup(keys)
    for i, row in enumerate(result.rows()):
        key_repr = ", ".join(f"{k}={keys[k][i]}" for k in dm.key_names)
        if row is None:
            print(f"({key_repr}) -> NULL")
        else:
            values = ", ".join(f"{k}={row[k]}" for k in dm.value_names)
            print(f"({key_repr}) -> {values}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve import AdmissionPolicy, LoadShedder, SheddingPolicy, \
        run_forever

    # Read-only open: the server shares the process-wide payload cache
    # and can never mutate the store it serves.
    dm = _load_structure(args.path, writable=False, executor=args.executor)
    policy = AdmissionPolicy(max_batch_keys=args.max_batch_keys,
                             max_delay_ms=args.max_delay_ms,
                             max_queue_requests=args.max_queue_requests,
                             tenant_quota_keys=args.tenant_quota_keys)
    shedder = None
    if args.shed_target_ms is not None:
        shedder = LoadShedder(SheddingPolicy(
            target_delay_ms=args.shed_target_ms,
            hard_delay_ms=max(args.shed_hard_ms, args.shed_target_ms)))

    def ready(port: int) -> None:
        print(f"serving {args.path} on {args.host}:{port} "
              f"(max_batch_keys={policy.max_batch_keys}, "
              f"max_delay_ms={policy.max_delay_ms:g}); "
              f"SIGTERM/Ctrl-C drains and exits", flush=True)

    # run_forever drains on SIGTERM/SIGINT: admission stops, every
    # admitted request completes, then we fall out and exit 0.
    run_forever(dm, host=args.host, port=args.port, policy=policy,
                shedder=shedder, on_ready=ready)
    dm.close()
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.shards > 1:
        raise SystemExit("bench compares one-shard stores; for shard "
                         "scaling run benchmarks/bench_sharding.py")
    table = load_dataset(args.dataset, args.scale, args.seed)
    systems = args.systems.split(",")
    results = run_comparison(
        table,
        systems=systems,
        batch_sizes=[args.batch],
        memory_budget=args.memory_budget,
        repeats=args.repeats,
        dm_config=_config_from_args(args),
        partition_bytes=args.partition_bytes,
    )
    print(format_storage_latency_table(
        results, [args.batch],
        title=f"{args.dataset} (rows={table.n_rows}, "
              f"raw={table.uncompressed_bytes() // 1024}KB)"))
    return 0


def _add_build_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--epochs", type=int, default=120)
    parser.add_argument("--batch-size", type=int, default=512)
    parser.add_argument("--learning-rate", type=float, default=0.003)
    parser.add_argument("--shared", default="",
                        help="comma-separated shared layer widths")
    parser.add_argument("--private", default="",
                        help="comma-separated private layer widths")
    parser.add_argument("--aux-codec", default="zstd",
                        choices=["none", "gzip", "zstd", "lzma"])
    parser.add_argument("--headroom", type=float, default=0.0,
                        help="key-domain headroom fraction for inserts")
    parser.add_argument("--search", action="store_true",
                        help="run MHAS instead of fixed layer sizes")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--shards", type=int, default=1,
                        help="split the store's T_aux across N key shards")
    parser.add_argument("--executor", default=None,
                        choices=list(EXECUTOR_NAMES),
                        help="executor strategy behind async lookups "
                             "(default: thread pool)")
    parser.add_argument("--rebalance", action="store_true",
                        help="enable range shard split/merge rebalancing "
                             "under inserts")
    parser.add_argument("--retrain-policy", default=None,
                        choices=list(POLICY_NAMES),
                        help="lifecycle retrain trigger")
    parser.add_argument("--retrain-bytes", type=int, default=None,
                        help="byte threshold for the 'bytes' retrain policy")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="DeepMapping reproduction CLI")
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="fit and save a store")
    p_build.add_argument("--dataset", required=True,
                         help="family:name, e.g. tpch:orders")
    p_build.add_argument("--scale", type=float, default=0.2)
    p_build.add_argument("--out", required=True,
                         help="output target: a directory path or file:// / "
                              "mem:// / zip:// URL")
    _add_build_options(p_build)
    p_build.set_defaults(func=_cmd_build)

    p_info = sub.add_parser("info", help="size report of a saved store")
    p_info.add_argument("path", help="store path or file:// / zip:// URL")
    p_info.set_defaults(func=_cmd_info)

    p_query = sub.add_parser("query", help="point lookups")
    p_query.add_argument("path", help="store path or file:// / zip:// URL")
    p_query.add_argument("--key", action="append", default=[],
                         help="column=value; repeat per key column and row")
    p_query.set_defaults(func=_cmd_query)

    p_serve = sub.add_parser(
        "serve", help="coalescing lookup server over a saved store")
    p_serve.add_argument("path", help="store path or file:// / zip:// URL "
                                      "(opened read-only)")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=0,
                         help="TCP port (0 picks a free one, printed on "
                              "startup)")
    p_serve.add_argument("--max-batch-keys", type=int, default=8192,
                         help="flush a forming batch at this many keys")
    p_serve.add_argument("--max-delay-ms", type=float, default=2.0,
                         help="max queueing delay before a partial batch "
                              "flushes")
    p_serve.add_argument("--max-queue-requests", type=int, default=None,
                         help="hard back-pressure bound on queued requests "
                              "(default: unbounded)")
    p_serve.add_argument("--tenant-quota-keys", type=int, default=None,
                         help="per-tenant fair-admission quota on queued "
                              "keys, scaled by tenant weight (default: off)")
    p_serve.add_argument("--shed-target-ms", type=float, default=None,
                         help="enable adaptive load shedding: estimated "
                              "backlog delay past which over-share work is "
                              "shed with a retry-after hint")
    p_serve.add_argument("--shed-hard-ms", type=float, default=100.0,
                         help="backlog delay past which ALL new work is shed "
                              "(with --shed-target-ms)")
    p_serve.add_argument("--executor", default=None,
                         choices=list(EXECUTOR_NAMES),
                         help="store executor strategy behind served "
                              "lookups (default: thread pool)")
    p_serve.set_defaults(func=_cmd_serve)

    p_bench = sub.add_parser("bench", help="compare against baselines")
    p_bench.add_argument("--dataset", required=True)
    p_bench.add_argument("--scale", type=float, default=0.2)
    p_bench.add_argument("--systems", default="DM-Z,ABC-Z,AB")
    p_bench.add_argument("--batch", type=int, default=1000)
    p_bench.add_argument("--repeats", type=int, default=2)
    p_bench.add_argument("--memory-budget", type=int, default=None)
    p_bench.add_argument("--partition-bytes", type=int, default=16 * 1024)
    _add_build_options(p_bench)
    p_bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
