"""On-disk partition storage.

Partitions (compressed byte blobs) live in a flat container, one blob
each.  The paper's small-machine experiments hinge on the cost of bringing
partitions from disk back into a constrained memory pool; :class:`DiskStore`
charges that I/O against a :class:`~repro.storage.stats.StoreStats` timer so
the benchmark harness can report it (Figure 7's "data loading" bucket).

Where the blobs physically live is pluggable: by default a local
directory, but any :class:`~repro.storage.backends.StorageBackend`
(in-memory, zip archive, a future object store) can host them — pass
``backend=`` and the store becomes a thin timed adapter over it.  Blobs
that already sit in a saved store file are *attached*
(:meth:`DiskStore.attach`): read through the same timed path straight
from the file's mapping, never copied into the directory.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
import weakref
from typing import Dict, Iterator, List, Optional, Union

from .backends import StorageBackend
from .stats import StoreStats

__all__ = ["DiskStore"]


class DiskStore:
    """A flat container of named byte blobs with timed reads.

    Parameters
    ----------
    directory:
        Where blobs are stored.  When ``None`` (and no ``backend``) a
        private temporary directory is created by the first
        :meth:`write` — a store that only serves :meth:`attach`-ed
        blobs never touches the filesystem — and removed on
        :meth:`close`, when the store is garbage-collected, or at
        interpreter exit, whichever comes first.
    stats:
        Optional shared stats sink; reads are timed under ``"io"``.
    backend:
        Optional :class:`~repro.storage.backends.StorageBackend` hosting
        the blobs instead of a local directory — decouples partition
        payload location from everything that reads through this store.
    """

    def __init__(self, directory: Optional[str] = None,
                 stats: Optional[StoreStats] = None,
                 backend: Optional[StorageBackend] = None):
        if backend is not None and directory is not None:
            raise ValueError("pass either directory or backend, not both")
        self._backend = backend
        self._owns_directory = backend is None and directory is None
        #: Removes an owned temporary directory (None until one exists).
        self._cleanup: Optional[weakref.finalize] = None
        self._create_lock = threading.Lock()
        if backend is not None:
            self._directory = getattr(backend, "root", None)
        else:
            if directory is not None:
                os.makedirs(directory, exist_ok=True)
            self._directory = directory
        self.stats = stats if stats is not None else StoreStats()
        self._sizes: dict = {}
        #: Blobs that live in somebody else's memory (see :meth:`attach`).
        self._attached: Dict[str, memoryview] = {}

    # ------------------------------------------------------------------
    @property
    def backend(self) -> Optional[StorageBackend]:
        """The hosting backend, when this store is backend-hosted."""
        return self._backend

    @property
    def directory(self) -> str:
        """Directory backing this store (local stores only); an owned
        temporary directory is created on first use."""
        if self._directory is None:
            if not self._owns_directory:
                raise TypeError(f"{self._backend!r} has no local directory")
            with self._create_lock:
                if self._directory is None:
                    directory = tempfile.mkdtemp(prefix="repro-diskstore-")
                    self._cleanup = weakref.finalize(
                        self, shutil.rmtree, directory, ignore_errors=True)
                    self._directory = directory
        return self._directory

    def path(self, name: str) -> str:
        """Filesystem path for blob ``name`` (local stores only)."""
        return os.path.join(self.directory, self._safe(name))

    def _safe(self, name: str) -> str:
        return name.replace(os.sep, "_")

    def attach(self, name: str, payload) -> int:
        """Serve ``payload`` (any contiguous buffer — a segment of an
        mmap'd store file, say) as blob ``name`` straight from the
        caller's memory, without copying or writing it anywhere;
        returns the byte count.

        The caller keeps the buffer valid for as long as the blob may be
        read.  :meth:`write` and :meth:`delete` of the same name replace
        or forget the attachment; the buffer itself is never modified.
        """
        view = memoryview(payload).cast("B")
        self._attached[name] = view
        self._sizes[name] = view.nbytes
        return view.nbytes

    def write(self, name: str, payload: bytes) -> int:
        """Store ``payload`` under ``name``; returns the byte count."""
        if self._backend is not None:
            self._backend.write_bytes(self._safe(name), payload)
        else:
            with open(self.path(name), "wb") as handle:
                handle.write(payload)
        self._attached.pop(name, None)
        self._sizes[name] = len(payload)
        return len(payload)

    def read(self, name: str) -> Union[bytes, memoryview]:
        """Read blob ``name`` — stored blobs as ``bytes``, attached ones
        as a view of their buffer; raises ``KeyError`` if absent."""
        with self.stats.timing("io"):
            payload = self._attached.get(name)
            if payload is None:
                payload = self._read_stored(name)
        self.stats.bump("blobs_read")
        self.stats.bump("bytes_read", len(payload))
        return payload

    def _read_stored(self, name: str) -> bytes:
        if self._backend is not None:
            return self._backend.read_bytes(self._safe(name))
        if self._directory is not None:
            try:
                with open(self.path(name), "rb") as handle:
                    return handle.read()
            except FileNotFoundError:
                pass
        raise KeyError(f"no blob named {name!r} in {self._directory}")

    def delete(self, name: str) -> None:
        """Remove blob ``name`` if present."""
        self._attached.pop(name, None)
        if self._backend is not None:
            self._backend.delete(self._safe(name))
        elif self._directory is not None:
            try:
                os.remove(self.path(name))
            except FileNotFoundError:
                pass
        self._sizes.pop(name, None)

    def exists(self, name: str) -> bool:
        """True when a blob named ``name`` is stored."""
        if name in self._attached:
            return True
        if self._backend is not None:
            return self._backend.exists(self._safe(name))
        return (self._directory is not None
                and os.path.exists(self.path(name)))

    def _stored_names(self) -> List[str]:
        if self._backend is not None:
            return list(self._backend.list())
        if self._directory is None:
            return []
        return os.listdir(self._directory)

    def names(self) -> Iterator[str]:
        """Iterate over stored blob names."""
        return iter(sorted({*self._stored_names(), *self._attached}))

    def size(self, name: str) -> int:
        """Stored byte count of blob ``name``."""
        if name in self._sizes:
            return self._sizes[name]
        if self._backend is not None:
            return len(self._backend.read_bytes(self._safe(name)))
        return os.path.getsize(self.path(name))

    def total_bytes(self) -> int:
        """Total stored footprint of all blobs."""
        return sum(self.size(name) for name in self.names())

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Forget attached blobs and remove the backing directory when
        this store owns it; the next :meth:`write` starts a fresh one."""
        self._attached.clear()
        self._sizes.clear()
        if self._cleanup is not None:
            self._cleanup()
            self._cleanup = None
            self._directory = None

    def __enter__(self) -> "DiskStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        host = self._backend if self._backend is not None else self._directory
        return f"DiskStore({host!r}, blobs={len(list(self.names()))})"
