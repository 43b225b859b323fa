"""Unified store API: one protocol, one facade, pluggable everything.

This package is the public way to use the library:

- :func:`repro.store.open_store` / :func:`repro.store.build_store` —
  re-exported as :func:`repro.open` / :func:`repro.build` — open or fit a
  store addressed by URL (``file://``, ``mem://``, ``zip://``) or bare
  path, auto-detecting monolithic vs sharded layouts;
- :class:`DataStore` — the structural protocol both
  :class:`~repro.DeepMapping` and :class:`~repro.ShardedDeepMapping`
  satisfy (locked by ``tests/api/test_public_surface.py``);
- :class:`~repro.storage.backends.StorageBackend` and its
  local-directory / in-memory / zip implementations — where payloads
  live, fully decoupled from how queries route;
- :class:`ExecutorStrategy` — how lookups fan out and how
  ``lookup_async`` schedules (serial / thread pool).

See ``docs/api.md`` for the full tour and the old→new migration table.
"""

from ..storage.backends import (MONOLITHIC_BLOB, URL_SCHEMES, InMemoryBackend,
                                LocalDirBackend, StorageBackend, ZipBackend,
                                backend_for_url, parse_url, resolve_blob_url)
from .executors import (EXECUTOR_NAMES, ExecutorStrategy, SerialStrategy,
                        ThreadPoolStrategy, make_executor)
from .facade import build_store, describe_target, open_store, serving
from .protocol import DataStore

__all__ = [
    "DataStore",
    "open_store",
    "build_store",
    "serving",
    "describe_target",
    "StorageBackend",
    "LocalDirBackend",
    "InMemoryBackend",
    "ZipBackend",
    "backend_for_url",
    "resolve_blob_url",
    "parse_url",
    "URL_SCHEMES",
    "MONOLITHIC_BLOB",
    "ExecutorStrategy",
    "SerialStrategy",
    "ThreadPoolStrategy",
    "EXECUTOR_NAMES",
    "make_executor",
]
