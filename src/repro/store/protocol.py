"""The ``DataStore`` protocol: the one public surface of every store.

:class:`~repro.core.deep_mapping.DeepMapping` (monolithic) and
:class:`~repro.shard.store.ShardedDeepMapping` (horizontally sharded) both
satisfy this protocol, so everything above the store — the CLI, the bench
harness, the SELECT layer, user code — can be written once against
``DataStore`` and handed either implementation by
:func:`repro.open` / :func:`repro.build`.

The protocol is structural (:func:`typing.runtime_checkable`):
``isinstance(obj, DataStore)`` verifies the surface is present without
either class inheriting anything.  Its exact method set and signatures
are locked by ``tests/api/test_public_surface.py`` — changing this file
is an API change and must be deliberate.
"""

from __future__ import annotations

from concurrent.futures import Future
from typing import Dict, Optional, Protocol, Tuple, runtime_checkable

import numpy as np

__all__ = ["DataStore"]


@runtime_checkable
class DataStore(Protocol):
    """Learned, lossless, updateable key→value store.

    Lifecycle: build with the implementation's ``fit`` classmethod (or
    :func:`repro.build`), reopen with :func:`repro.open`, and ``close()``
    when done — stores are context managers, so ``with repro.open(url)
    as store:`` does the right thing.
    """

    # -- schema / introspection -------------------------------------------
    @property
    def key_names(self) -> Tuple[str, ...]:
        """Key column names, in key order."""
        ...

    @property
    def value_names(self) -> Tuple[str, ...]:
        """Value column names."""
        ...

    def __len__(self) -> int:
        """Number of live keys."""
        ...

    def size_report(self):
        """Storage breakdown (model / aux / existence / decode bytes)."""
        ...

    def aux_ratio(self) -> float:
        """Fraction of live rows currently served from auxiliary tables."""
        ...

    # -- reads -------------------------------------------------------------
    def lookup(self, keys) -> "LookupResult":
        """Batched exact-match lookup, input order preserved."""
        ...

    def lookup_one(self, **key_parts) -> Optional[Dict[str, object]]:
        """Single-key convenience lookup; a row dict, or None for a miss."""
        ...

    def lookup_async(self, keys, *, deadline=None) -> Future:
        """Schedule :meth:`lookup` on the store's executor strategy;
        returns a future resolving to the same :class:`LookupResult`.
        ``deadline`` (a :class:`~repro.resilience.Deadline`) gates and
        bounds the job: an expired one fails the future with
        ``DeadlineExceeded``."""
        ...

    def contains_batch(self, keys) -> np.ndarray:
        """Boolean existence mask for a key batch (no value inference)."""
        ...

    # -- writes ------------------------------------------------------------
    def insert(self, rows) -> int:
        """Insert new rows (all-or-nothing); returns rows landed in aux."""
        ...

    def delete(self, keys) -> int:
        """Delete keys; absent keys are ignored.  Returns rows removed."""
        ...

    def update(self, rows) -> int:
        """Replace values of existing keys (all-or-nothing)."""
        ...

    def rebuild(self, config=None) -> None:
        """Retrain model(s) and reconstruct auxiliary structures from the
        current logical content."""
        ...

    # -- persistence / lifecycle -------------------------------------------
    def save(self, target) -> int:
        """Persist to a path or ``file:// / mem:// / zip://`` URL;
        returns bytes written."""
        ...

    def close(self) -> None:
        """Release executors and other runtime resources (idempotent)."""
        ...

    def __enter__(self) -> "DataStore":
        ...

    def __exit__(self, *exc) -> None:
        ...
