"""`repro.open()` / `repro.build()`: the unified front door.

One store URL (or bare path) names any persisted store:

- ``orders.dm`` / ``file:///data/orders.dm`` — a monolithic
  :class:`~repro.core.deep_mapping.DeepMapping` payload file;
- ``store/`` / ``file:///data/store`` — a sharded store directory
  (``manifest.json`` + per-shard payloads);
- ``mem://name`` — a process-local in-memory container (tests, scratch);
- ``zip:///data/store.zip`` — all blobs in one zip archive (the
  object-store stand-in);
- ``http://host/store`` / ``https://...`` — a store published behind
  any range-capable HTTP server, opened read-only with lazy shard
  hydration; ``cached+http://`` adds a local disk cache tier so warm
  reopens are pure local mmap (``docs/remote.md``).

:func:`open_store` resolves the URL to a backend, sniffs whether it holds
a sharded manifest or a monolithic payload (the auto-detection that used
to live privately in the CLI), and returns the matching
:class:`~repro.store.protocol.DataStore`.  :func:`build_store` is the
forward direction: fit a store over a table — monolithic by default,
sharded when a sharding config (or shard count) is given — and optionally
persist it to a URL in the same breath.

Both are re-exported as :func:`repro.open` and :func:`repro.build`.
"""

from __future__ import annotations

import zipfile
from typing import Optional, Union

from ..resilience.errors import StoreNotFoundError
from ..storage.backends import (MONOLITHIC_BLOB, URL_SCHEMES, LocalDirBackend,
                                ZipBackend, backend_for_url, parse_url)
from .executors import ExecutorStrategy
from .protocol import DataStore

__all__ = ["open_store", "build_store", "serving", "describe_target"]

#: Blob name that marks a container as a sharded store (mirrors
#: ``repro.shard.manifest.MANIFEST_NAME``; duplicated here so the facade
#: stays importable without triggering the shard package's import chain).
_MANIFEST_BLOB = "manifest.json"


def _schemes_note() -> str:
    accepted = ", ".join(f"{scheme}://" for scheme in URL_SCHEMES)
    return (f"accepted URL schemes: {accepted} (a bare path is file://); "
            "a store is a .dm payload file or a container holding "
            f"'{_MANIFEST_BLOB}' (sharded) or '{MONOLITHIC_BLOB}' "
            "(monolithic)")


def describe_target(url_or_path: str):
    """Classify a store target: ``(backend, blob_or_None, kind)``.

    ``kind`` is ``"sharded"`` (container with a manifest), ``"monolithic"``
    (single payload blob), or ``"absent"`` (nothing there yet — the write
    side may create it).  Raises ``ValueError`` for unknown URL schemes.
    """
    import os

    scheme, path = parse_url(url_or_path)
    if scheme == "file":
        if os.path.isdir(path):
            return _classify_container(LocalDirBackend(path, create=False))
        if os.path.isfile(path):
            if zipfile.is_zipfile(path):
                # A zip-store addressed by bare path (zip:// omitted):
                # classify by the archive's contents, not as a payload.
                return _classify_container(ZipBackend(path))
            directory, blob = os.path.split(path)
            return LocalDirBackend(directory or ".", create=False), blob, \
                "monolithic"
        return None, None, "absent"
    return _classify_container(backend_for_url(url_or_path, create=False))


def _classify_container(backend):
    if backend.exists(_MANIFEST_BLOB):
        return backend, None, "sharded"
    if backend.exists(MONOLITHIC_BLOB):
        return backend, MONOLITHIC_BLOB, "monolithic"
    return backend, None, "absent"


def open_store(
    url_or_path: str,
    *,
    stats=None,
    max_workers: Optional[int] = None,
    pool_budget_bytes: Optional[int] = None,
    executor: Union[str, ExecutorStrategy, None] = None,
    writable: bool = True,
) -> DataStore:
    """Open a persisted store — monolithic or sharded — by URL or path.

    Parameters
    ----------
    url_or_path:
        ``file://`` / ``mem://`` / ``zip://`` URL, or a bare filesystem
        path (a ``.dm`` file or a sharded store directory).
    stats:
        Optional shared :class:`~repro.storage.stats.StoreStats` sink.
    max_workers / pool_budget_bytes:
        Sharded stores only: override the saved fan-out width / shared
        buffer-pool budget (e.g. reopen a big-box store on a laptop).
    executor:
        Executor strategy for fan-out and ``lookup_async`` — a name from
        :data:`repro.store.EXECUTOR_NAMES` or an
        :class:`~repro.store.executors.ExecutorStrategy` instance.
    writable:
        ``False`` opens the store read-only through the process-wide
        payload cache: payload arrays come up as zero-copy views
        (mmap-backed on local directories), repeated opens of the same
        unchanged store skip deserialization entirely, and mutating
        calls (``insert`` / ``delete`` / ``update`` / ``rebuild``)
        raise ``PermissionError``.  The default keeps every component
        private and mutable.  Remote targets (``http://`` /
        ``https://`` / ``cached+http://``) are *always* opened
        read-only — the transport refuses writes — and sharded remote
        opens hydrate shards lazily on first routed touch (see
        ``docs/remote.md``).
    """
    from ..core.persistence import open_payload
    from ..shard.store import ShardedDeepMapping

    backend, blob, kind = describe_target(url_or_path)
    if kind == "sharded":
        return ShardedDeepMapping.load(
            backend, stats=stats, max_workers=max_workers,
            pool_budget_bytes=pool_budget_bytes, executor=executor,
            writable=writable)
    if kind == "monolithic":
        try:
            store = open_payload(backend, blob, writable=writable,
                                 stats=stats)
        except ValueError as exc:
            # Intact bytes in a layout this version does not read (or
            # not a store at all).  A recognized container that fails its
            # checksums is *damage* and stays a StoreCorruptedError, so
            # operators can tell the two apart.
            raise ValueError(
                f"{url_or_path!r}: {exc} {_schemes_note()}") from exc
        if executor is not None:
            # Pass the raw spec through: set_executor owns strategies it
            # builds from names and leaves caller instances caller-owned.
            store.set_executor(executor)
        return store
    raise StoreNotFoundError(
        f"no store at {url_or_path!r}; {_schemes_note()}")


def build_store(
    table,
    config=None,
    *,
    sharding=None,
    shards: Optional[int] = None,
    url: Optional[str] = None,
    stats=None,
) -> DataStore:
    """Fit a store over ``table``; optionally persist it to ``url``.

    Monolithic by default; pass ``sharding=ShardingConfig(...)`` (or the
    ``shards=N`` shorthand) for a sharded store.  When ``url`` is given
    the fitted store is saved there before being returned, so
    ``repro.open(url)`` round-trips it.
    """
    from ..core.deep_mapping import DeepMapping
    from ..shard.store import ShardedDeepMapping, ShardingConfig

    if sharding is not None and shards is not None \
            and shards != sharding.n_shards:
        raise ValueError(
            f"conflicting shard counts: shards={shards} vs "
            f"sharding.n_shards={sharding.n_shards}")
    if sharding is None and shards is not None and shards > 1:
        sharding = ShardingConfig(n_shards=shards)

    if sharding is not None:
        store: DataStore = ShardedDeepMapping.fit(table, config, sharding,
                                                  stats=stats)
    else:
        store = DeepMapping.fit(table, config, stats=stats)
    if url is not None:
        store.save(url)
    return store


def serving(
    target,
    *,
    policy=None,
    stats=None,
    shedder=None,
    executor: Union[str, ExecutorStrategy, None] = None,
    max_workers: Optional[int] = None,
    pool_budget_bytes: Optional[int] = None,
):
    """A coalescing serving handle over a store: the third facade verb.

    ``open`` reads, ``build`` writes, ``serving`` *serves*: many caller
    threads share one :class:`~repro.serve.server.Client` whose
    :class:`~repro.serve.server.LookupServer` merges their small
    concurrent lookups into fused batches (see :mod:`repro.serve` and
    ``docs/serving.md``).

    ``target`` is a store URL/path — opened read-only through the shared
    payload cache, and closed again by ``Client.close()`` — or an
    already-open :class:`~repro.store.protocol.DataStore`, which stays
    caller-owned.  ``policy`` is an
    :class:`~repro.serve.policy.AdmissionPolicy` (default: 8192 keys /
    2 ms); ``stats`` an optional shared
    :class:`~repro.serve.stats.ServeStats` sink; ``shedder`` an
    optional :class:`~repro.serve.shedding.LoadShedder` for adaptive
    overload control (off by default).
    """
    from ..serve.server import Client
    from .protocol import DataStore as _DataStore

    if isinstance(target, str):
        store = open_store(target, max_workers=max_workers,
                           pool_budget_bytes=pool_budget_bytes,
                           executor=executor, writable=False)
        return Client(store, policy=policy, stats=stats, shedder=shedder,
                      close_store=True)
    if isinstance(target, _DataStore):
        if executor is not None:
            target.set_executor(executor)
        return Client(target, policy=policy, stats=stats, shedder=shedder,
                      close_store=False)
    raise TypeError("serving() takes a store URL/path or an open DataStore; "
                    f"got {type(target).__name__}")
