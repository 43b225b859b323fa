"""Pluggable persistence backends: named byte blobs behind one protocol.

Every persisted artifact in this repo — a store's manifest, model,
existence index and per-shard payloads — is ultimately a *named byte
blob*.
:class:`StorageBackend` pins that down to five operations
(``read_bytes`` / ``write_bytes`` / ``list`` / ``exists`` / ``delete``)
with **atomic write semantics**: a reader concurrent with ``write_bytes``
sees either the old blob or the new one, never a torn prefix.

Three implementations ship:

- :class:`LocalDirBackend` — a flat local directory; writes go through a
  temp file + ``os.replace`` (the crash-safety idiom the shard manifest
  used to hand-roll).
- :class:`InMemoryBackend` — a process-local dict, addressable by name
  through a registry so ``mem://name`` URLs round-trip within a process.
- :class:`ZipBackend` — all blobs inside one zip archive: the
  object-store stand-in (single remote object, list/read/replace
  semantics, no partial updates).

URL scheme selects the backend: ``file://`` (or a bare path),
``mem://``, ``zip://`` — plus the remote read-only schemes ``http://``
/ ``https://`` (range-read HTTP transport wrapped in a
:class:`~repro.resilience.backend.ResilientBackend`) and
``cached+http://`` / ``cached+https://`` (same, behind a local disk
hydration cache) from :mod:`repro.storage.remote` — see
:func:`backend_for_url`.
"""

from __future__ import annotations

import io
import mmap
import os
import re
import tempfile
import threading
import zipfile
from typing import Dict, List, Optional, Protocol, Tuple, runtime_checkable

from ..resilience.errors import StoreCorruptedError, StoreNotFoundError

__all__ = [
    "StorageBackend",
    "LocalDirBackend",
    "InMemoryBackend",
    "ZipBackend",
    "URL_SCHEMES",
    "MONOLITHIC_BLOB",
    "parse_url",
    "backend_for_url",
    "read_blob_view",
    "blob_version",
    "backend_identity",
]

#: URL schemes the library accepts, in the order error messages list them.
#: The ``http`` family is read-only (see ``storage/remote.py``).
URL_SCHEMES = ("file", "mem", "zip", "http", "https",
               "cached+http", "cached+https")

#: Blob name under which a container held a monolithic payload, a
#: layout no longer read: :func:`repro.open` refuses a container that
#: holds it and no manifest.
MONOLITHIC_BLOB = "deepmapping.dm"

_URL_RE = re.compile(r"^([A-Za-z][A-Za-z0-9+.-]*)://(.*)$")


@runtime_checkable
class StorageBackend(Protocol):
    """A flat container of named byte blobs with atomic replacement.

    Implementations guarantee that :meth:`write_bytes` is atomic with
    respect to readers: ``read_bytes`` concurrent with a write returns
    either the previous payload or the new one in full.
    """

    def read_bytes(self, name: str) -> bytes:
        """Return blob ``name``; raise :class:`StoreNotFoundError` (a
        ``KeyError`` subclass) when absent."""
        ...

    def write_bytes(self, name: str, payload: bytes) -> int:
        """Atomically store ``payload`` under ``name``; return its size."""
        ...

    def list(self) -> List[str]:
        """Sorted names of all stored blobs."""
        ...

    def exists(self, name: str) -> bool:
        """True when a blob named ``name`` is stored."""
        ...

    def delete(self, name: str) -> None:
        """Remove blob ``name`` if present (absent names are a no-op)."""
        ...


def _check_name(name: str) -> str:
    """Reject blob names that would escape a flat container."""
    if not name or name != os.path.basename(name) or name in (".", ".."):
        raise ValueError(f"invalid blob name {name!r}: backends are flat "
                         "containers; names must not contain path separators")
    return name


class LocalDirBackend:
    """Blobs as files in one local directory, replaced atomically.

    ``write_bytes`` stages into a temp file in the same directory, fsyncs,
    and ``os.replace``\\ s over the target — a crash or concurrent reader
    sees the old blob or the new one, never a torn file.
    """

    scheme = "file"

    def __init__(self, root: str, create: bool = True, writable: bool = True):
        if create and writable:
            os.makedirs(root, exist_ok=True)
        self.root = root
        #: When False, :meth:`write_bytes` / :meth:`delete` refuse — the
        #: backend is a read-only view suitable for mmap'd shared opens.
        self.writable = writable

    @property
    def url(self) -> str:
        return f"file://{os.path.abspath(self.root)}"

    def _path(self, name: str) -> str:
        return os.path.join(self.root, _check_name(name))

    def read_bytes(self, name: str) -> bytes:
        try:
            with open(self._path(name), "rb") as handle:
                return handle.read()
        except FileNotFoundError:
            raise StoreNotFoundError(
                f"no blob named {name!r} in {self.url}") from None

    def read_range(self, name: str, start: int, length: int) -> bytes:
        """Bytes ``[start, start+length)`` of the blob (short at EOF).

        The range-read capability the hydration layer
        (``storage/hydration.py``) fetches container segments through;
        on a local directory it is a plain seek+read.
        """
        if length <= 0:
            return b""
        try:
            with open(self._path(name), "rb") as handle:
                handle.seek(start)
                return handle.read(length)
        except FileNotFoundError:
            raise StoreNotFoundError(
                f"no blob named {name!r} in {self.url}") from None

    def size(self, name: str) -> int:
        """Length of blob ``name`` in bytes (the file's size)."""
        try:
            return os.stat(self._path(name)).st_size
        except FileNotFoundError:
            raise StoreNotFoundError(
                f"no blob named {name!r} in {self.url}") from None

    def read_view(self, name: str) -> memoryview:
        """Read-only memoryview of blob ``name`` over mmap'd pages.

        Zero heap copy: the view (and any ``np.frombuffer`` array built
        over it) shares the page cache with every other mapping of the
        file.  The underlying mmap stays alive as long as any view into
        it does (ordinary refcounting), and because writes go through
        ``os.replace``, a concurrent re-save leaves existing mappings
        pointing at the old inode — views never observe torn content.
        That guarantee is POSIX semantics: on Windows, replacing a file
        that holds a live mapping raises a sharing-violation error
        instead (the save fails loudly while any view is alive; readers
        are never corrupted either way).  Empty blobs fall back to an
        (empty) bytes view, since zero-length mmaps are not portable.
        """
        path = self._path(name)
        try:
            with open(path, "rb") as handle:
                size = os.fstat(handle.fileno()).st_size
                if size == 0:
                    return memoryview(b"")
                mapped = mmap.mmap(handle.fileno(), 0,
                                   access=mmap.ACCESS_READ)
        except FileNotFoundError:
            raise StoreNotFoundError(
                f"no blob named {name!r} in {self.url}") from None
        return memoryview(mapped)

    def blob_version(self, name: str):
        """Change stamp of blob ``name`` (None when absent): a new stamp
        means the content may differ.  ``os.replace`` rewrites always
        change the inode, so the stamp is robust to sub-ns timestamps."""
        try:
            st = os.stat(self._path(name))
        except (FileNotFoundError, ValueError):
            return None
        return (st.st_ino, st.st_mtime_ns, st.st_size)

    def _check_writable(self) -> None:
        if not self.writable:
            raise PermissionError(
                f"backend {self.url} was opened writable=False; "
                "reopen without writable=False to mutate it")

    def write_bytes(self, name: str, payload: bytes) -> int:
        self._check_writable()
        path = self._path(name)
        fd, tmp_path = tempfile.mkstemp(prefix=name + ".", suffix=".tmp",
                                        dir=self.root)
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, path)
            self._fsync_dir()
        except BaseException:
            try:
                os.remove(tmp_path)
            except OSError:
                pass
            raise
        return len(payload)

    def _fsync_dir(self) -> None:
        """Best-effort fsync of the directory so the rename itself is
        durable — without it a crash after ``os.replace`` can roll the
        directory entry back to the old (or no) blob even though the new
        file's bytes were fsynced.  Best-effort because some filesystems
        (and all of Windows) refuse ``open(dir)``."""
        try:
            fd = os.open(self.root, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)

    def list(self) -> List[str]:
        try:
            entries = os.listdir(self.root)
        except FileNotFoundError:
            return []
        return sorted(
            name for name in entries
            if os.path.isfile(os.path.join(self.root, name))
            and not name.endswith(".tmp")
        )

    def exists(self, name: str) -> bool:
        return os.path.isfile(self._path(name))

    def delete(self, name: str) -> None:
        self._check_writable()
        try:
            os.remove(self._path(name))
        except FileNotFoundError:
            pass

    def __repr__(self) -> str:
        mode = "" if self.writable else ", writable=False"
        return f"LocalDirBackend({self.root!r}{mode})"


class InMemoryBackend:
    """Blobs in a process-local dict (testing, scratch, ``mem://`` URLs).

    Named instances live in a registry so ``mem://<name>`` resolves to the
    same container everywhere in the process; anonymous instances
    (``InMemoryBackend()``) are private to their creator.
    """

    scheme = "mem"

    _registry: Dict[str, "InMemoryBackend"] = {}
    _registry_lock = threading.Lock()

    def __init__(self, name: Optional[str] = None):
        self.name = name
        self._blobs: Dict[str, bytes] = {}
        #: Monotonic per-blob write counters (the mem:// "etag"): a dict
        #: has no mtime, so cache layers key freshness on these instead.
        self._versions: Dict[str, int] = {}
        self._write_seq = 0
        self._lock = threading.Lock()

    @classmethod
    def named(cls, name: str) -> "InMemoryBackend":
        """The process-wide container registered under ``name``."""
        with cls._registry_lock:
            backend = cls._registry.get(name)
            if backend is None:
                backend = cls._registry[name] = cls(name)
            return backend

    @classmethod
    def discard(cls, name: str) -> None:
        """Drop the registered container ``name`` (absent is a no-op)."""
        with cls._registry_lock:
            cls._registry.pop(name, None)

    @property
    def url(self) -> str:
        return f"mem://{self.name}" if self.name \
            else f"mem://anon-{id(self):x}"

    def read_bytes(self, name: str) -> bytes:
        with self._lock:
            try:
                return self._blobs[_check_name(name)]
            except KeyError:
                raise StoreNotFoundError(
                    f"no blob named {name!r} in {self.url}") from None

    def read_view(self, name: str) -> memoryview:
        """Read-only view of the stored bytes (already zero-copy)."""
        return memoryview(self.read_bytes(name))

    def read_range(self, name: str, start: int, length: int) -> bytes:
        """Bytes ``[start, start+length)`` of the blob (short at EOF)."""
        if length <= 0:
            return b""
        return self.read_bytes(name)[start:start + length]

    def size(self, name: str) -> int:
        """Length of blob ``name`` in bytes."""
        return len(self.read_bytes(name))

    def blob_version(self, name: str):
        """Write counter of blob ``name`` (None when absent)."""
        with self._lock:
            return self._versions.get(_check_name(name))

    def write_bytes(self, name: str, payload: bytes) -> int:
        payload = bytes(payload)
        with self._lock:
            self._write_seq += 1
            self._blobs[_check_name(name)] = payload
            self._versions[name] = self._write_seq
        return len(payload)

    def list(self) -> List[str]:
        with self._lock:
            return sorted(self._blobs)

    def exists(self, name: str) -> bool:
        with self._lock:
            return _check_name(name) in self._blobs

    def delete(self, name: str) -> None:
        with self._lock:
            self._blobs.pop(_check_name(name), None)
            self._versions.pop(name, None)

    def __repr__(self) -> str:
        return f"InMemoryBackend(name={self.name!r}, blobs={len(self._blobs)})"


class ZipBackend:
    """All blobs inside one zip archive — the object-store stand-in.

    The archive is the unit of durability: every mutation rewrites it to a
    temp file and ``os.replace``\\ s it into place, so the store is always
    a single self-contained object that can be shipped around whole
    (matching the put/get/list semantics of an object store, where blobs
    are replaced, never patched in place).

    Contents are cached in memory after the first touch; the cache is
    invalidated when the archive's mtime/size changes on disk, so separate
    ``ZipBackend`` instances over the same archive observe each other's
    (whole-archive) writes.
    """

    scheme = "zip"

    def __init__(self, path: str):
        self.path = path
        self._lock = threading.Lock()
        self._blobs: Optional[Dict[str, bytes]] = None
        self._stamp: Optional[Tuple[float, int]] = None
        #: Nesting depth of :meth:`batch` contexts; while positive,
        #: mutations stage in the cache and the archive rewrite is
        #: deferred to the outermost batch exit (one atomic replace for
        #: N writes instead of N rewrites).
        self._defer = 0
        self._dirty = False

    @property
    def url(self) -> str:
        return f"zip://{os.path.abspath(self.path)}"

    # -- archive <-> cache -------------------------------------------------
    def _disk_stamp(self) -> Optional[Tuple[float, int]]:
        try:
            st = os.stat(self.path)
        except FileNotFoundError:
            return None
        return (st.st_mtime, st.st_size)

    def _loaded(self) -> Dict[str, bytes]:
        """The blob cache, (re)read from disk when the archive changed.

        While a :meth:`batch` is open the cache holds staged, unflushed
        writes and is never reloaded out from under them.
        """
        if self._defer and self._blobs is not None:
            return self._blobs
        stamp = self._disk_stamp()
        if self._blobs is None or stamp != self._stamp:
            blobs: Dict[str, bytes] = {}
            if stamp is not None:
                try:
                    with zipfile.ZipFile(self.path, "r") as archive:
                        for info in archive.infolist():
                            blobs[info.filename] = archive.read(info)
                except (zipfile.BadZipFile, EOFError) as exc:
                    # Only genuinely mangled bytes are corruption.  Other
                    # OSErrors (EIO, EACCES, network-fs hiccups) propagate
                    # as-is so ResilientBackend still retries them instead
                    # of giving up on a transient fault.
                    raise StoreCorruptedError(
                        f"archive {self.url} is not a readable zip: {exc}"
                    ) from exc
            self._blobs = blobs
            self._stamp = stamp
        return self._blobs

    def _flush(self) -> None:
        """Rewrite the whole archive atomically from the cache."""
        assert self._blobs is not None
        buffer = io.BytesIO()
        with zipfile.ZipFile(buffer, "w", zipfile.ZIP_DEFLATED) as archive:
            for name in sorted(self._blobs):
                archive.writestr(name, self._blobs[name])
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(prefix=os.path.basename(self.path),
                                        suffix=".tmp", dir=directory)
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(buffer.getvalue())
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, self.path)
        except BaseException:
            try:
                os.remove(tmp_path)
            except OSError:
                pass
            raise
        self._stamp = self._disk_stamp()

    # -- batched writes ----------------------------------------------------
    def batch(self) -> "_ZipBatch":
        """Defer archive rewrites: ``with backend.batch(): ...``.

        Every ``write_bytes``/``delete`` inside the context stages in the
        cache; the whole archive is rewritten (and atomically replaced)
        once at the outermost exit.  Turns an N-blob store save from N
        full re-deflations into one.  If the context exits on an
        exception, nothing is flushed and the cache is dropped so the
        next reader sees the on-disk state.
        """
        return _ZipBatch(self)

    def _mutated(self) -> None:
        """Flush now, or mark dirty when inside a batch (lock held)."""
        if self._defer:
            self._dirty = True
        else:
            self._flush()

    # -- StorageBackend ----------------------------------------------------
    def read_bytes(self, name: str) -> bytes:
        with self._lock:
            try:
                return self._loaded()[_check_name(name)]
            except KeyError:
                raise StoreNotFoundError(
                    f"no blob named {name!r} in {self.url}") from None

    def read_view(self, name: str) -> memoryview:
        """Read-only view of the decompressed cached bytes."""
        return memoryview(self.read_bytes(name))

    def blob_version(self, name: str):
        """Archive stamp (None when the blob is absent): the zip is
        rewritten whole, so any mutation moves every blob's version."""
        with self._lock:
            if _check_name(name) not in self._loaded():
                return None
            return self._stamp

    def write_bytes(self, name: str, payload: bytes) -> int:
        payload = bytes(payload)
        with self._lock:
            self._loaded()[_check_name(name)] = payload
            self._mutated()
        return len(payload)

    def list(self) -> List[str]:
        with self._lock:
            return sorted(self._loaded())

    def exists(self, name: str) -> bool:
        with self._lock:
            return _check_name(name) in self._loaded()

    def delete(self, name: str) -> None:
        with self._lock:
            blobs = self._loaded()
            if _check_name(name) in blobs:
                del blobs[name]
                self._mutated()

    def __repr__(self) -> str:
        return f"ZipBackend({self.path!r})"


class _ZipBatch:
    """Context manager behind :meth:`ZipBackend.batch`."""

    def __init__(self, backend: ZipBackend):
        self._backend = backend

    def __enter__(self) -> ZipBackend:
        backend = self._backend
        with backend._lock:
            backend._loaded()  # pin the cache before deferring reloads
            backend._defer += 1
        return backend

    def __exit__(self, exc_type, *exc) -> None:
        backend = self._backend
        with backend._lock:
            backend._defer -= 1
            if backend._defer == 0 and backend._dirty:
                backend._dirty = False
                if exc_type is None:
                    backend._flush()
                else:
                    # Abandon staged writes: drop the cache so the next
                    # reader reloads the untouched on-disk archive.
                    backend._blobs = None
                    backend._stamp = None


# ---------------------------------------------------------------------------
# Capability helpers (duck-typed so third-party backends keep working)
# ---------------------------------------------------------------------------
def read_blob_view(backend: StorageBackend, name: str,
                   version=None) -> memoryview:
    """Blob ``name`` as a read-only buffer, zero-copy when the backend
    supports it (``read_view``), otherwise a view over ``read_bytes``.

    ``read_view`` is a capability, not part of the :class:`StorageBackend`
    protocol — backends that only implement the five core operations are
    still fully functional, they just pay one heap copy per read.
    ``version``, a :func:`blob_version` stamp the caller just took,
    spares a backend that revalidates every read (``cached+http``) its
    own.
    """
    if version is not None and getattr(backend, "revalidates_reads", False):
        return backend.read_view(name, version=version)
    reader = getattr(backend, "read_view", None)
    if reader is not None:
        return reader(name)
    return memoryview(backend.read_bytes(name))


def blob_version(backend: StorageBackend, name: str):
    """Freshness stamp of ``(backend, name)`` or None when unknowable.

    None means either the blob is absent or the backend offers no version
    capability; cache layers must treat both as "do not cache".
    """
    versioner = getattr(backend, "blob_version", None)
    if versioner is None:
        return None
    return versioner(name)


def backend_identity(backend: StorageBackend) -> str:
    """Stable cache identity of a backend.

    The ``url`` property identifies a *location* (two backends over the
    same directory / registry name / archive share it, which is exactly
    what a cross-open cache wants); backends without one fall back to
    object identity, making their entries private to the instance.
    """
    url = getattr(backend, "url", None)
    if isinstance(url, str):
        return url
    return f"pyid:{id(backend):x}"


# ---------------------------------------------------------------------------
# URL resolution
# ---------------------------------------------------------------------------
def parse_url(url_or_path: str) -> Tuple[str, str]:
    """Split ``url_or_path`` into ``(scheme, path)``.

    A bare path (no ``scheme://`` prefix) is the ``file`` scheme.  An
    unknown scheme raises ``ValueError`` naming the accepted ones.
    """
    match = _URL_RE.match(url_or_path)
    if match is None:
        return "file", url_or_path
    scheme, path = match.group(1).lower(), match.group(2)
    if scheme not in URL_SCHEMES:
        accepted = ", ".join(f"{s}://" for s in URL_SCHEMES)
        raise ValueError(
            f"unknown URL scheme {scheme!r} in {url_or_path!r}; "
            f"accepted schemes: {accepted} (or a bare filesystem path)"
        )
    if scheme == "mem" and not path:
        raise ValueError(f"mem:// URL needs a store name: {url_or_path!r}")
    if scheme == "zip" and not path:
        raise ValueError(f"zip:// URL needs an archive path: {url_or_path!r}")
    if scheme.endswith(("http", "https")) and not path:
        raise ValueError(f"{scheme}:// URL needs a host: {url_or_path!r}")
    return scheme, path


def backend_for_url(url_or_path: str, create: bool = True) -> StorageBackend:
    """The *container* backend a store URL designates.

    ``file://`` paths (and bare paths) name a directory.
    """
    scheme, path = parse_url(url_or_path)
    if scheme == "mem":
        return InMemoryBackend.named(path)
    if scheme == "zip":
        return ZipBackend(path)
    if scheme in ("http", "https", "cached+http", "cached+https"):
        # Imported here (not at module top) so the storage package does
        # not pull the resilience wrapper into every import of this
        # module; the network transport always rides behind the retry +
        # breaker policy.
        from ..resilience.backend import ResilientBackend
        from .remote import CachedHttpBackend, HttpBackend
        if scheme.startswith("cached+"):
            base_url = f"{scheme[len('cached+'):]}://{path}"
            return CachedHttpBackend(ResilientBackend(HttpBackend(base_url)))
        return ResilientBackend(HttpBackend(f"{scheme}://{path}"))
    return LocalDirBackend(path, create=create)
