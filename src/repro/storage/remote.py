"""HTTP(S) object-store backends: range reads + a local hydration cache.

Two backends turn any HTTP server that supports ``Range`` requests (any
object store, any static file server) into a read-only
:class:`~repro.storage.backends.StorageBackend`:

- :class:`HttpBackend` (``http://`` / ``https://``) — stdlib
  ``urllib`` transport.  ``read_bytes`` is one GET; ``read_range`` is a
  GET with a ``Range:`` header (a 200 from a server that ignores ranges
  degrades gracefully to a slice); ``exists`` / ``size`` /
  ``blob_version`` are HEADs, with ETag / ``Last-Modified`` as the
  freshness stamp the :class:`~repro.storage.blob_cache.BlobCache`
  keys on.  ``read_view`` fetches the zero-copy container index through
  a :class:`~repro.storage.hydration.RangeReader`, which checks it
  against the blob's length as the server states it, and assembles the
  blob from coalesced ranges — the hydration path that lets a sharded
  open fetch a shard's bytes only when a batch routes into it.

- :class:`CachedHttpBackend` (``cached+http://`` / ``cached+https://``)
  — a content-version-keyed disk cache tier in front of the HTTP
  backend.  A hit revalidates with one HEAD and then mmaps the local
  file (pure local I/O — a warm reopen downloads nothing); a miss
  fetches through the inner backend, lands the blob atomically in the
  cache directory, and serves the mmap.  The cache lives under a byte
  budget (:func:`configure_hydration_cache`), evicting least-recently
  used files.

Both are **read-only**: ``write_bytes`` / ``delete`` raise
``PermissionError``.  404s map to the typed
:class:`~repro.resilience.errors.StoreNotFoundError` naming blob and
URL; every other HTTP/socket failure stays an ``OSError`` so the
:class:`~repro.resilience.backend.ResilientBackend` wrapper (applied by
``backend_for_url``) retries it under the standard policy and breaker.

Observability: every instance accumulates ``remote_requests``,
``range_requests`` and ``hydrated_bytes`` (bytes that actually crossed
the network) into a :class:`~repro.storage.stats.StoreStats` sink;
``bind_stats`` rebinds the sink (carrying counts forward) so a store
open threads its own stats object down into the transport.
"""

from __future__ import annotations

import hashlib
import mmap
import os
import json
import tempfile
import urllib.error
import urllib.parse
import urllib.request
from typing import Dict, List, Optional

from ..resilience.errors import StoreNotFoundError
from .hydration import SNIFF_BYTES, RangeReader
from .stats import StoreStats

__all__ = ["HttpBackend", "CachedHttpBackend", "configure_hydration_cache",
           "hydration_cache_root", "DEFAULT_TIMEOUT_S"]

#: Per-request socket timeout (connect + read) for the HTTP transport.
DEFAULT_TIMEOUT_S = 10.0

#: Default byte budget of the local hydration cache tier.
_DEFAULT_CACHE_BUDGET = 1 << 30

_cache_config: Dict[str, object] = {"root": None,
                                    "budget_bytes": _DEFAULT_CACHE_BUDGET}


def hydration_cache_root() -> str:
    """Directory the ``cached+http`` tier stores blobs under."""
    root = _cache_config["root"]
    if root is None:
        root = os.path.join(tempfile.gettempdir(), "repro-hydration-cache")
    return str(root)


def configure_hydration_cache(root: Optional[str] = None,
                              budget_bytes: Optional[int] = None,
                              ) -> Dict[str, object]:
    """Set the hydration cache directory and/or byte budget.

    Affects ``cached+http`` backends constructed *after* the call (the
    usual shape: configure once at process start, before any open).
    Returns the effective configuration.
    """
    if root is not None:
        _cache_config["root"] = root
    if budget_bytes is not None:
        _cache_config["budget_bytes"] = int(budget_bytes)
    return {"root": hydration_cache_root(),
            "budget_bytes": _cache_config["budget_bytes"]}


class HttpBackend:
    """Read-only storage backend over HTTP(S) range requests."""

    scheme = "http"
    #: Marks the backend as network-backed: loaders switch to lazy
    #: hydration and force read-only opens when they see this.
    remote = True
    writable = False

    def __init__(self, base_url: str, *,
                 timeout: float = DEFAULT_TIMEOUT_S,
                 stats: Optional[StoreStats] = None):
        if "://" not in base_url:
            raise ValueError(f"not an http(s) URL: {base_url!r}")
        self.base_url = base_url.rstrip("/")
        parsed = urllib.parse.urlsplit(self.base_url)
        if not parsed.netloc:
            raise ValueError(f"http URL needs a host: {base_url!r}")
        self.timeout = timeout
        self.stats = stats if stats is not None else StoreStats()

    @property
    def url(self) -> str:
        return self.base_url

    def bind_stats(self, stats: Optional[StoreStats]) -> None:
        """Redirect counters into ``stats``, carrying totals forward."""
        if stats is None or stats is self.stats:
            return
        for name, value in self.stats.counters.items():
            stats.bump(name, value)
        self.stats = stats

    # -- transport -------------------------------------------------------
    def _url_for(self, name: str) -> str:
        return f"{self.base_url}/{urllib.parse.quote(name, safe='')}"

    def _open(self, name: str, method: str = "GET",
              headers: Optional[Dict[str, str]] = None):
        request = urllib.request.Request(self._url_for(name), method=method,
                                         headers=headers or {})
        self.stats.bump("remote_requests")
        try:
            return urllib.request.urlopen(request, timeout=self.timeout)
        except urllib.error.HTTPError as exc:
            exc.close()
            if exc.code in (404, 410):
                raise StoreNotFoundError(
                    f"no blob named {name!r} in {self.url}") from None
            # Other statuses (5xx, 429, ...) stay HTTPError ⊂ OSError:
            # transient by default, so ResilientBackend retries them.
            raise

    # -- reads -----------------------------------------------------------
    def read_bytes(self, name: str) -> bytes:
        with self._open(name) as response:
            body = response.read()
        self.stats.bump("hydrated_bytes", len(body))
        return body

    def _ranged(self, name: str, start: int, length: int):
        """One ranged GET: ``(bytes [start, start+length), blob length)``.

        The length is what the server states — ``Content-Range`` on a
        206, ``Content-Length`` on a 200 from a server that ignored the
        header — or None when it states neither.
        """
        ranged = {"Range": f"bytes={start}-{start + length - 1}"}
        try:
            with self._open(name, headers=ranged) as response:
                body = response.read()
                status = response.status
                headers = response.headers
        except urllib.error.HTTPError as exc:
            exc.close()
            if exc.code == 416:  # requested range entirely past EOF
                return b"", None
            raise
        self.stats.bump("range_requests")
        self.stats.bump("hydrated_bytes", len(body))
        stated = (headers.get("Content-Range", "").rpartition("/")[2]
                  if status == 206 else headers.get("Content-Length", ""))
        total = int(stated) if stated.isdigit() else None
        if status == 200 and start:
            # Server ignored the Range header and sent the whole blob.
            return body[start:start + length], total
        return body[:length], total

    def read_range(self, name: str, start: int, length: int) -> bytes:
        """Bytes ``[start, start+length)`` of the blob (short at EOF)."""
        if length <= 0:
            return b""
        return self._ranged(name, start, length)[0]

    def read_view(self, name: str) -> memoryview:
        """Blob as a read-only buffer, assembled from coalesced ranges.

        Zero-copy containers are fetched index-first through a
        :class:`RangeReader` — its index checked against the length the
        first response states — as head + segments + footer in a few
        coalesced requests; anything else (the JSON manifest) is read
        whole.
        """
        prefix, total = self._ranged(name, 0, SNIFF_BYTES)
        reader = RangeReader(self, name, prefix=prefix, blob_size=total)
        if reader.whole is not None or reader.packed:
            return reader.fetch()
        return memoryview(self.read_bytes(name))

    # -- metadata --------------------------------------------------------
    def _head(self, name: str):
        try:
            with self._open(name, method="HEAD") as response:
                return response.headers
        except StoreNotFoundError:
            return None

    def blob_version(self, name: str):
        """(ETag, Last-Modified, Content-Length), or None when the blob
        is absent or the server stamps nothing cacheable."""
        headers = self._head(name)
        if headers is None:
            return None
        etag = headers.get("ETag")
        modified = headers.get("Last-Modified")
        length = headers.get("Content-Length")
        if etag is None and modified is None:
            return None
        return (etag, modified, length)

    def exists(self, name: str) -> bool:
        return self._head(name) is not None

    def size(self, name: str) -> Optional[int]:
        headers = self._head(name)
        if headers is None:
            return None
        length = headers.get("Content-Length")
        return int(length) if length is not None else None

    def list(self) -> List[str]:
        """Blob names from the server's JSON listing endpoint.

        The in-process :mod:`repro.testing.range_server` serves the
        container listing at the base URL; generic object stores that
        do not are still fully usable for opens (the manifest names
        every blob a loader needs), they just cannot be listed.
        """
        request = urllib.request.Request(
            self.base_url + "/", headers={"Accept": "application/json"})
        self.stats.bump("remote_requests")
        try:
            with urllib.request.urlopen(request,
                                        timeout=self.timeout) as response:
                names = json.loads(response.read().decode("utf-8"))
        except (urllib.error.HTTPError, ValueError) as exc:
            raise OSError(
                f"{self.url} does not expose a blob listing: {exc}") from exc
        if not isinstance(names, list):
            raise OSError(f"{self.url} listing is not a JSON array")
        return sorted(str(name) for name in names)

    # -- writes: refused -------------------------------------------------
    def write_bytes(self, name: str, payload) -> int:
        raise PermissionError(
            f"http backends are read-only; cannot write {name!r} "
            f"to {self.url}")

    def delete(self, name: str) -> None:
        raise PermissionError(
            f"http backends are read-only; cannot delete {name!r} "
            f"from {self.url}")

    def __repr__(self) -> str:
        return f"HttpBackend({self.base_url!r})"


class CachedHttpBackend:
    """Disk cache tier over a remote backend: warm reads are local mmap.

    ``inner`` is any remote backend exposing ``read_view`` /
    ``blob_version`` (in practice the :class:`ResilientBackend`-wrapped
    :class:`HttpBackend` that ``backend_for_url`` builds).  Cache files
    are keyed by ``(inner URL, blob name, content version)``, so a
    re-published blob naturally misses to a fresh file and the stale
    one ages out of the budget.
    """

    remote = True
    writable = False
    #: ``read_view`` revalidates; it takes a stamp the caller holds.
    revalidates_reads = True

    def __init__(self, inner, *,
                 cache_root: Optional[str] = None,
                 budget_bytes: Optional[int] = None):
        self.inner = inner
        self.cache_root = cache_root if cache_root is not None \
            else hydration_cache_root()
        self.budget_bytes = int(budget_bytes) if budget_bytes is not None \
            else int(_cache_config["budget_bytes"])
        os.makedirs(self.cache_root, exist_ok=True)
        self._stats = getattr(inner, "stats", None) or StoreStats()

    @property
    def scheme(self) -> str:
        return f"cached+{getattr(self.inner, 'scheme', 'http')}"

    @property
    def url(self) -> str:
        return f"cached+{getattr(self.inner, 'url', repr(self.inner))}"

    @property
    def stats(self) -> StoreStats:
        return self._stats

    def bind_stats(self, stats: Optional[StoreStats]) -> None:
        if stats is None or stats is self._stats:
            return
        binder = getattr(self.inner, "bind_stats", None)
        if binder is not None:
            binder(stats)
        else:
            for name, value in self._stats.counters.items():
                stats.bump(name, value)
        self._stats = stats

    # -- cache mechanics -------------------------------------------------
    def _cache_path(self, name: str, version) -> str:
        inner_url = getattr(self.inner, "url", repr(self.inner))
        digest = hashlib.sha256(
            f"{inner_url}|{name}|{version!r}".encode("utf-8")).hexdigest()
        return os.path.join(self.cache_root, digest + ".blob")

    @staticmethod
    def _mmap_view(path: str) -> memoryview:
        with open(path, "rb") as handle:
            if os.fstat(handle.fileno()).st_size == 0:
                return memoryview(b"")
            mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        return memoryview(mapped)

    def _store(self, path: str, payload) -> None:
        fd, tmp_path = tempfile.mkstemp(suffix=".tmp", dir=self.cache_root)
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.remove(tmp_path)
            except OSError:
                pass
            raise
        self._evict()

    def _evict(self) -> None:
        """Drop least-recently-touched cache files over the budget."""
        entries = []
        total = 0
        try:
            names = os.listdir(self.cache_root)
        except OSError:
            return
        for fname in names:
            if not fname.endswith(".blob"):
                continue
            path = os.path.join(self.cache_root, fname)
            try:
                st = os.stat(path)
            except OSError:
                continue
            entries.append((st.st_mtime, st.st_size, path))
            total += st.st_size
        entries.sort()
        for _, size, path in entries:
            if total <= self.budget_bytes:
                break
            try:
                os.remove(path)
                self._stats.bump("cache_evictions")
            except OSError:
                continue
            total -= size

    # -- reads -----------------------------------------------------------
    def read_view(self, name: str, version=None) -> memoryview:
        """Blob ``name`` from the cache file of its ``version`` (a stamp
        the caller just took; without one, a HEAD of its own)."""
        if version is None:
            version = self.inner.blob_version(name)
        if version is None:
            # Unversionable (or absent — the fetch will say which):
            # nothing safe to key a cache file on.
            return self.inner.read_view(name)
        path = self._cache_path(name, version)
        if os.path.isfile(path):
            self._stats.bump("cache_hits")
            try:
                os.utime(path)  # LRU touch
            except OSError:
                pass
            return self._mmap_view(path)
        view = self.inner.read_view(name)
        self._stats.bump("cache_misses")
        self._store(path, bytes(view))
        return self._mmap_view(path)

    def read_bytes(self, name: str) -> bytes:
        return bytes(self.read_view(name))

    def read_range(self, name: str, start: int, length: int) -> bytes:
        view = self.read_view(name)
        return bytes(view[start:start + length])

    # -- metadata / writes -----------------------------------------------
    def blob_version(self, name: str):
        return self.inner.blob_version(name)

    def exists(self, name: str) -> bool:
        return self.inner.exists(name)

    def list(self) -> List[str]:
        return self.inner.list()

    def write_bytes(self, name: str, payload) -> int:
        raise PermissionError(
            f"cached remote backends are read-only; cannot write {name!r} "
            f"to {self.url}")

    def delete(self, name: str) -> None:
        raise PermissionError(
            f"cached remote backends are read-only; cannot delete {name!r} "
            f"from {self.url}")

    def __repr__(self) -> str:
        return (f"CachedHttpBackend({self.inner!r}, "
                f"root={self.cache_root!r})")
