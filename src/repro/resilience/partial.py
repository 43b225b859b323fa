"""Partial lookup results: fault-isolated sharded reads.

Under ``on_shard_error="partial"`` a sharded lookup that loses a shard
(exception or deadline) still returns — as a :class:`PartialResult`,
a :class:`~repro.core.plan.LookupResult` plus:

- ``failed_mask[i]`` — True where key ``i`` was routed to a shard that
  failed.  For those positions ``found`` is forced False and ``values``
  are meaningless placeholders; for every other position the result is
  bit-identical to a fully healthy lookup.
- ``shard_errors`` — ``{shard_ordinal: exception}`` for the post-mortem.

Callers that cannot tolerate gaps call :meth:`raise_if_failed`; callers
that can (a serving tier shedding one bad replica) re-drive only the
``failed_mask`` keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from ..core.plan import LookupResult
from .errors import PartialResultError

__all__ = ["PartialResult"]


@dataclass
class PartialResult(LookupResult):
    """A lookup that lost one or more shards but kept the rest."""

    #: True where the key's shard failed; ``found`` is False there.
    failed_mask: np.ndarray = None
    #: Shard ordinal -> the exception that took it out.
    shard_errors: Dict[int, BaseException] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return not bool(self.failed_mask.any())

    @property
    def n_failed(self) -> int:
        return int(self.failed_mask.sum())

    def raise_if_failed(self) -> "PartialResult":
        """Promote to a hard failure when any key was lost."""
        if not self.complete:
            ordinals = sorted(self.shard_errors)
            causes = "; ".join(
                f"shard {o}: {type(self.shard_errors[o]).__name__}: "
                f"{self.shard_errors[o]}" for o in ordinals)
            error = PartialResultError(
                f"{self.n_failed} of {len(self)} keys lost to "
                f"{len(ordinals)} failed shard(s) [{causes}]")
            if ordinals:
                error.__cause__ = self.shard_errors[ordinals[0]]
            raise error
        return self
