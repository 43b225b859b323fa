"""`repro.open()` / `repro.build()`: the unified front door.

One store URL (or bare path) names any persisted store:

- ``store/`` / ``file:///data/store`` — a store directory
  (``manifest.json``, ``model.rzc``, ``exist.rzc`` and one payload per
  non-empty shard);
- ``zip:///data/store.zip`` — the same blobs in one zip archive: the
  single-file form (a bare path to a zip archive opens it too);
- ``mem://name`` — a process-local in-memory container (tests, scratch);
- ``http://host/store`` / ``https://...`` — a store published behind
  any range-capable HTTP server, opened read-only with lazy shard
  hydration; ``cached+http://`` adds a local disk cache tier so warm
  reopens are pure local mmap (``docs/remote.md``).

:func:`open_store` resolves the URL to a backend, checks that it holds a
store manifest, and opens it (:func:`repro.shard.persistence.load`, the
one reader).  A monolithic payload — a single ``.dm`` file, or a
container holding ``deepmapping.dm`` and no manifest — is refused with a
``ValueError`` naming the last commit that reads it.
:func:`build_store` is the forward direction: fit a store over a table
and optionally persist it to a URL in the same breath.

Both are re-exported as :func:`repro.open` and :func:`repro.build`.
"""

from __future__ import annotations

import os
import zipfile
from typing import Optional, Union

from ..resilience.errors import StoreNotFoundError
from ..storage.backends import (MONOLITHIC_BLOB, URL_SCHEMES, LocalDirBackend,
                                ZipBackend, backend_for_url, parse_url)
from .executors import ExecutorStrategy
from .protocol import DataStore

__all__ = ["open_store", "build_store", "serving", "describe_target"]

#: Blob name that marks a container as a store (mirrors
#: ``repro.shard.manifest.MANIFEST_NAME``; duplicated here so the facade
#: stays importable without triggering the shard package's import chain).
_MANIFEST_BLOB = "manifest.json"

#: The last commit that reads a monolithic payload.
_LAST_MONOLITHIC_READER = "41e3f8f"


def _schemes_note() -> str:
    accepted = ", ".join(f"{scheme}://" for scheme in URL_SCHEMES)
    return (f"accepted URL schemes: {accepted} (a bare path is file://); "
            f"a store is a container holding '{_MANIFEST_BLOB}'")


def _monolithic(url_or_path: str, found: str) -> ValueError:
    return ValueError(
        f"{url_or_path!r} is {found}, not a store container: a monolithic "
        "DeepMapping payload, a layout this version does not read. Commit "
        f"{_LAST_MONOLITHIC_READER} is the last that reads it: check it "
        "out, take the rows with repro.open(path).to_table(), and rebuild "
        "the store from that table with repro.build.")


def describe_target(url_or_path: str):
    """Classify a store target: ``(backend, kind)``.

    ``kind`` is ``"store"`` (a container holding a manifest) or
    ``"absent"`` (nothing there yet — the write side may create it).
    Raises ``ValueError`` for an unknown URL scheme and for a monolithic
    payload: a regular file that is not a zip archive, or a container
    holding ``deepmapping.dm`` and no manifest.
    """
    scheme, path = parse_url(url_or_path)
    if scheme == "file":
        if os.path.isfile(path):
            if not zipfile.is_zipfile(path):
                raise _monolithic(url_or_path, "a single file")
            # A zip store addressed by bare path (zip:// omitted).
            backend = ZipBackend(path)
        elif os.path.isdir(path):
            backend = LocalDirBackend(path, create=False)
        else:
            return None, "absent"
    else:
        backend = backend_for_url(url_or_path, create=False)
    if backend.exists(_MANIFEST_BLOB):
        return backend, "store"
    if backend.exists(MONOLITHIC_BLOB):
        raise _monolithic(url_or_path, f"a container holding "
                          f"'{MONOLITHIC_BLOB}' and no manifest")
    return backend, "absent"


def open_store(
    url_or_path: str,
    *,
    stats=None,
    pool_budget_bytes: Optional[int] = None,
    executor: Union[str, ExecutorStrategy, None] = None,
    writable: bool = True,
) -> DataStore:
    """Open a persisted store by URL or path.

    Parameters
    ----------
    url_or_path:
        ``file://`` / ``mem://`` / ``zip://`` / ``http(s)://`` URL, or a
        bare filesystem path (a store directory or zip archive).
    stats:
        Optional shared :class:`~repro.storage.stats.StoreStats` sink.
    pool_budget_bytes:
        Override the saved shared buffer-pool budget (e.g. reopen a
        big-box store on a laptop).
    executor:
        Executor strategy for ``lookup_async`` — a name from
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
        read-only — the transport refuses writes — and hydrate shards
        lazily on first routed touch (see ``docs/remote.md``).
    """
    from ..shard.store import DeepMapping

    backend, kind = describe_target(url_or_path)
    if kind == "absent":
        raise StoreNotFoundError(
            f"no store at {url_or_path!r}; {_schemes_note()}")
    return DeepMapping.load(
        backend, stats=stats, pool_budget_bytes=pool_budget_bytes,
        executor=executor, writable=writable)


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

    One shard by default; pass ``sharding=ShardingConfig(...)`` (or the
    ``shards=N`` shorthand) for more.  When ``url`` is given the fitted
    store is saved there before being returned, so ``repro.open(url)``
    round-trips it.
    """
    from ..shard.store import DeepMapping, ShardingConfig

    if sharding is not None and shards is not None \
            and shards != sharding.n_shards:
        raise ValueError(
            f"conflicting shard counts: shards={shards} vs "
            f"sharding.n_shards={sharding.n_shards}")
    if sharding is None and shards is not None:
        sharding = ShardingConfig(n_shards=shards)
    store = DeepMapping.fit(table, config, sharding, stats=stats)
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
        store = open_store(target, pool_budget_bytes=pool_budget_bytes,
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
