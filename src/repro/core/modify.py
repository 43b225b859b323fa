"""Modification bookkeeping for lazy updates.

The paper's workflows (Sec. IV-D) absorb insert/update/delete into the
auxiliary structure and retrain only when it grows past a threshold
(the evaluation's DM-Z1 variant retrains after 200MB of modifications).
:class:`ModificationTracker` only counts — modified bytes since the last
build and lifetime retrains.  Whether it is time to retrain is decided in
one place, :func:`retrain_due`, which reads these counters against the
bounds its caller passes; a monolithic structure asks it over its own
counts, a sharded store over its totals.  Both owners end every mutation
batch with :func:`settle`; a shard only applies rows and counts nothing.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

from ..storage.serializer import serialized_size

__all__ = ["ModificationTracker", "estimate_batch_bytes", "retrain_due",
           "settle", "MIN_ROWS_FOR_RATIO_RETRAIN"]

#: Structures below this many rows skip ratio-based retrain triggers: a
#: tiny table whose residual rows dominate ``T_aux`` would otherwise
#: thrash through a full rebuild on nearly every mutation batch.
MIN_ROWS_FOR_RATIO_RETRAIN = 64


def estimate_batch_bytes(columns: Dict[str, np.ndarray]) -> int:
    """Serialized size of a modification batch (keys + values)."""
    return serialized_size({n: np.asarray(v) for n, v in columns.items()})


def retrain_due(tracker: "ModificationTracker", n_rows: int,
                n_aux: Callable[[], int], threshold_bytes: Optional[int],
                aux_ratio: Optional[float]) -> bool:
    """The one retrain rule (paper Sec. IV-D), True once either bound
    is met (``None`` disables one): ``threshold_bytes`` modified since
    the last build (DM-Z1), or at least ``MIN_ROWS_FOR_RATIO_RETRAIN``
    live rows with an ``aux_ratio`` share in ``T_aux`` (``n_aux`` is
    only called under this bound: counting ``T_aux`` is not free)."""
    if (threshold_bytes is not None
            and tracker.bytes_since_build >= threshold_bytes):
        return True
    if aux_ratio is None:
        return False
    return (n_rows >= MIN_ROWS_FOR_RATIO_RETRAIN
            and n_aux() / n_rows >= aux_ratio)


def settle(owner, batch: Dict[str, np.ndarray], engine=None) -> None:
    """End a mutation batch on the model's owner (a monolithic structure
    or a sharded store): count its bytes, then one pass of the owner's
    maintenance ``engine`` if it has one, else ``rebuild()`` once its
    ``retrain_due`` meets the build config's bounds."""
    owner.tracker.record(estimate_batch_bytes(batch))
    config = owner.config
    if engine is not None:
        engine.run_pending()
    elif owner.retrain_due(config.retrain_threshold_bytes,
                           config.retrain_aux_ratio):
        owner.rebuild()


class ModificationTracker:
    """Counts modified bytes since the last build and lifetime retrains.

    The counters are part of the structure's durable state: a store that
    is saved, restarted, and loaded must keep accumulating toward the
    same threshold, not silently restart from zero (see :meth:`to_state`
    / :meth:`restore_counters`, persisted by ``DeepMapping.save`` /
    ``open``).
    """

    def __init__(self):
        self.bytes_since_build = 0
        self.total_retrains = 0

    def record(self, batch_bytes: int) -> None:
        """Account for one modification batch."""
        self.bytes_since_build += int(batch_bytes)

    def mark_rebuilt(self) -> None:
        """Reset the byte counter after a retrain."""
        self.bytes_since_build = 0
        self.total_retrains += 1

    # ------------------------------------------------------------------
    # Persistence (counters survive save/load)
    # ------------------------------------------------------------------
    def to_state(self) -> Dict[str, int]:
        """JSON-friendly counter snapshot (see :meth:`restore_counters`)."""
        return {
            "bytes_since_build": self.bytes_since_build,
            "total_retrains": self.total_retrains,
        }

    def restore_counters(self, state: Dict[str, int]) -> None:
        """Adopt saved counters onto this tracker.

        Used on open.  Any other key in ``state`` — older payloads also
        saved a threshold and an op count — is ignored: the threshold
        comes from the config.
        """
        self.bytes_since_build = int(state.get("bytes_since_build", 0))
        self.total_retrains = int(state.get("total_retrains", 0))

    def __repr__(self) -> str:
        return (f"ModificationTracker(bytes={self.bytes_since_build}, "
                f"retrains={self.total_retrains})")
