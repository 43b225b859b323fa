"""On-disk manifest for a saved sharded DeepMapping store.

A saved store is a directory::

    store/
      manifest.json     <- this module's concern
      model.rzc         <- the store's one model (RZC2 container, CRC-checked)
      exist.rzc         <- the store's one V_exist over the model's key domain
      shard-0000.dm     <- one shard payload (T_aux) per non-empty shard
      shard-0002.dm        (empty shards have no file; the manifest
      ...                  records them with ``file: null``)

The manifest, ``exist.rzc`` and every shard payload name the CRC-32 of
the ``model.rzc`` they were saved with, the manifest names the CRC-32 of
``exist.rzc`` too, and an open refuses any that differs (a shard's
``T_aux`` holds exactly the rows its model loses, and the index is the
key set of that save).

``manifest.json`` is deliberately human-readable JSON: it carries the
router state (strategy + cut points / seed), the key and value schema with
NumPy dtype strings and a per-shard table of file name / row count / byte
size.  Everything needed to route a query is in the manifest, and every
miss is answered by ``exist.rzc`` alone, so a loader can open shards
lazily or on remote storage without unpickling them first.  Keys this
reader does not know are ignored and not written back.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..resilience.errors import StoreCorruptedError, StoreNotFoundError
from ..storage.backends import LocalDirBackend, StorageBackend

__all__ = ["MANIFEST_NAME", "MODEL_NAME", "EXIST_NAME", "ShardEntry",
           "ShardManifest", "is_sharded_store", "is_sharded_backend"]

MANIFEST_NAME = "manifest.json"
#: The store's one model (:func:`repro.core.persistence.model_payload`).
#: Not a ``*.dm`` name: it is not a shard payload.
MODEL_NAME = "model.rzc"
#: The store's one existence index
#: (:func:`repro.core.persistence.exist_payload`).  Not a ``*.dm`` name
#: either: a remote open fetches it with the manifest and the model.
EXIST_NAME = "exist.rzc"

#: Bumped when the directory layout changes incompatibly.  Version 4:
#: one existence blob (``EXIST_NAME``) for the whole store and shard
#: payloads holding ``T_aux`` only.  Version 3 kept a ``V_exist``
#: window per shard and a negative filter here; version 2 had one model
#: per shard and a ``config.pkl``.
FORMAT = "sharded-deepmapping"
VERSION = 4

#: The last commit that reads each refused manifest version.
_LAST_READER = {1: "798b592", 2: "b095e50", 3: "876da1c"}


@dataclass
class ShardEntry:
    """Manifest record for one shard (``file`` is None for empty shards)."""

    file: Optional[str]
    n_rows: int = 0
    n_bytes: int = 0

    def to_json(self) -> Dict[str, object]:
        return {"file": self.file, "n_rows": self.n_rows,
                "n_bytes": self.n_bytes}

    @classmethod
    def from_json(cls, obj: Dict[str, object]) -> "ShardEntry":
        return cls(file=obj["file"], n_rows=int(obj["n_rows"]),
                   n_bytes=int(obj["n_bytes"]))


@dataclass
class ShardManifest:
    """Everything needed to reopen a sharded store."""

    router: Dict[str, object]
    key_names: List[str]
    value_names: List[str]
    #: Column name -> NumPy dtype string (``np.dtype(s)`` round-trips):
    #: ``ShardedDeepMapping.value_dtype`` of each column.
    value_dtypes: Dict[str, str]
    shards: List[ShardEntry] = field(default_factory=list)
    #: Sharding knobs worth preserving across save/load (max_workers etc.).
    sharding: Dict[str, object] = field(default_factory=dict)
    #: Lifecycle metadata: ``config`` (a ``LifecycleConfig.to_state()``
    #: dict) and ``counters`` (lifetime rebuild/split/merge totals from
    #: the maintenance engine).  Empty for unmanaged stores; absent in
    #: manifests written before the lifecycle subsystem existed.
    lifecycle: Dict[str, object] = field(default_factory=dict)
    #: The store's ``ModificationTracker`` counters (modified bytes since
    #: the last retrain), so a reopened store keeps its retrain budget.
    tracker: Dict[str, int] = field(default_factory=dict)
    #: CRC-32 of the model blob this save wrote
    #: (:func:`repro.core.persistence.blob_crc`); an open refuses a
    #: model blob, and an existence or shard blob, that names another.
    model_crc: Optional[int] = None
    #: CRC-32 of the existence blob this save wrote; an open refuses an
    #: ``exist.rzc`` that differs.
    exist_crc: Optional[int] = None

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def to_json(self) -> Dict[str, object]:
        return {
            "format": FORMAT,
            "version": VERSION,
            "router": self.router,
            "key_names": list(self.key_names),
            "value_names": list(self.value_names),
            "value_dtypes": dict(self.value_dtypes),
            "shards": [entry.to_json() for entry in self.shards],
            "sharding": dict(self.sharding),
            "lifecycle": dict(self.lifecycle),
            "tracker": dict(self.tracker),
            "model_crc": self.model_crc,
            "exist_crc": self.exist_crc,
        }

    @classmethod
    def from_json(cls, obj: Dict[str, object]) -> "ShardManifest":
        if obj.get("format") != FORMAT:
            raise ValueError(f"not a {FORMAT} manifest: "
                             f"format={obj.get('format')!r}")
        _check_version(obj)
        return cls(
            router=obj["router"],
            key_names=list(obj["key_names"]),
            value_names=list(obj["value_names"]),
            value_dtypes=dict(obj["value_dtypes"]),
            shards=[ShardEntry.from_json(e) for e in obj["shards"]],
            sharding=dict(obj.get("sharding", {})),
            lifecycle=dict(obj.get("lifecycle", {})),
            tracker=dict(obj.get("tracker", {})),
            model_crc=obj.get("model_crc"),
            exist_crc=obj.get("exist_crc"),
        )

    # ------------------------------------------------------------------
    def save_to(self, backend: StorageBackend) -> int:
        """Write ``manifest.json`` into ``backend``; returns bytes.

        The write rides the backend's atomic-replace guarantee: the
        manifest is the store's root pointer, and a crash mid-write must
        leave either the old manifest or the new one, never a torn blob.
        Note the scope: this protects the *manifest*; re-saving a store in
        place rewrites the model, existence and shard payload blobs
        first, so a crash between payload writes and the manifest swap
        can leave the old manifest pointing at newer payloads.  Save to
        a fresh container when a fully atomic store swap is required.
        """
        payload = json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n"
        return backend.write_bytes(MANIFEST_NAME, payload.encode("utf-8"))

    def save(self, directory: str) -> int:
        """Write ``manifest.json`` under local ``directory``; returns bytes."""
        return self.save_to(LocalDirBackend(directory))

    @classmethod
    def load_from(cls, backend: StorageBackend) -> "ShardManifest":
        """Read ``manifest.json`` from ``backend``.

        An absent manifest raises :class:`StoreNotFoundError` (a
        ``FileNotFoundError``); unparseable or wrong-format JSON raises
        :class:`StoreCorruptedError`; both name the blob and the URL.
        """
        url = getattr(backend, "url", backend)
        try:
            payload = backend.read_bytes(MANIFEST_NAME)
        except KeyError:
            raise StoreNotFoundError(
                f"no {MANIFEST_NAME} in {url!r}") from None
        try:
            obj = json.loads(payload.decode("utf-8"))
            if not isinstance(obj, dict):
                raise ValueError(f"manifest root is {type(obj).__name__}, "
                                 "expected an object")
        except (ValueError, UnicodeDecodeError) as exc:
            raise StoreCorruptedError(
                f"{MANIFEST_NAME} in {url!r} is corrupt: {exc}") from exc
        # Intact bytes in a version this reader refuses: a ValueError,
        # not corruption (a cache's re-read would change nothing).
        _check_version(obj)
        try:
            return cls.from_json(obj)
        except (ValueError, KeyError, TypeError) as exc:
            raise StoreCorruptedError(
                f"{MANIFEST_NAME} in {url!r} is corrupt: {exc}") from exc

    @classmethod
    def load(cls, directory: str) -> "ShardManifest":
        """Read ``manifest.json`` from local ``directory``."""
        if not os.path.isdir(directory):
            raise StoreNotFoundError(f"no such store directory: {directory!r}")
        return cls.load_from(LocalDirBackend(directory, create=False))


def _check_version(obj: Dict[str, object]) -> None:
    version = obj.get("version")
    if version in _LAST_READER:
        raise ValueError(
            f"this manifest is version {version}; this version reads only "
            f"version {VERSION} (one model and one existence index per "
            f"store). Open the store at "
            f"commit {_LAST_READER[version]}, the last one that reads "
            f"version {version}, take its rows (to_table()) and build "
            "them again with this version.")
    if isinstance(version, int) and version > VERSION:
        raise ValueError(f"manifest version {version} is newer than "
                         f"supported version {VERSION}")


def is_sharded_store(path: str) -> bool:
    """True when ``path`` is a directory holding a sharded-store manifest."""
    return (os.path.isdir(path)
            and os.path.isfile(os.path.join(path, MANIFEST_NAME)))


def is_sharded_backend(backend: StorageBackend) -> bool:
    """True when ``backend`` holds a sharded-store manifest blob."""
    return backend.exists(MANIFEST_NAME)
