"""The lifecycle configuration: which retrain bound a managed store sets.

The paper's lazy-update discussion (Sec. IV-D) retrains once accumulated
modifications pass a byte threshold (the evaluation's DM-Z1 retrains after
200MB).  There is one retrain rule, :meth:`DeepMapping.retrain_due
<repro.core.deep_mapping.DeepMapping.retrain_due>`, with two bounds; the
policy name only chooses which bound a managed store sets
(:meth:`LifecycleConfig.retrain_bounds`):

- ``"bytes"`` — the paper's DM-Z1 rule: retrain after N modified bytes;
- ``"aux-ratio"`` — retrain when the auxiliary table serves at least a
  share of live rows (bounds the compression regression between retrains
  directly, instead of through a byte proxy);
- ``"never"`` — accumulate forever (modifications stay absorbed in
  ``T_aux``; the operator retrains explicitly).

This module is dependency-free on purpose: both :mod:`repro.core` and
:mod:`repro.shard` may import it without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Optional, Tuple

__all__ = ["POLICY_NAMES", "LifecycleConfig"]

POLICY_NAMES = ("bytes", "aux-ratio", "never")


@dataclass
class LifecycleConfig:
    """Knobs of the maintenance engine (retrain bound + rebalancing).

    All fields are JSON-serializable scalars so the config round-trips
    through the store manifest (:meth:`to_state` / :meth:`from_state`).
    """

    #: Retrain policy name: ``"bytes"``, ``"aux-ratio"`` or ``"never"``.
    policy: str = "bytes"
    #: Byte threshold for the ``bytes`` policy; ``None`` falls back to the
    #: build config's ``retrain_threshold_bytes``.
    retrain_bytes: Optional[int] = None
    #: Aux-table share triggering the ``aux-ratio`` policy (shards under
    #: ``MIN_ROWS_FOR_RATIO_RETRAIN`` rows never fire it).
    aux_ratio: float = 0.5

    #: Enable range split/merge rebalancing (range routers only).
    rebalance: bool = False
    #: Split a shard once its rows exceed this multiple of the mean.
    split_balance: float = 2.0
    #: Never split a shard below ``2 * split_min_rows`` rows.
    split_min_rows: int = 128
    #: Merge an adjacent pair once their combined rows drop under this
    #: multiple of the mean (hysteresis: keep well below split_balance).
    merge_balance: float = 0.5
    #: Hard bounds on the shard count reachable through rebalancing.
    max_shards: int = 64
    min_shards: int = 1
    #: Cap on split/merge actions per maintenance run (a run happens per
    #: mutation batch; the cap bounds mutation-latency spikes).
    max_actions_per_run: int = 4

    def __post_init__(self):
        if self.policy not in POLICY_NAMES:
            raise ValueError(f"unknown policy {self.policy!r}; "
                             f"expected one of {POLICY_NAMES}")
        if self.retrain_bytes is not None and self.retrain_bytes <= 0:
            raise ValueError("retrain_bytes must be positive or None")
        if not 0 < self.aux_ratio <= 1:
            raise ValueError("aux_ratio must be in (0, 1]")
        if self.split_balance <= 1.0:
            raise ValueError("split_balance must be > 1.0")
        if not 0 < self.merge_balance < self.split_balance:
            raise ValueError(
                "merge_balance must be in (0, split_balance) for hysteresis"
            )
        if self.min_shards < 1 or self.max_shards < self.min_shards:
            raise ValueError("need 1 <= min_shards <= max_shards")
        if self.split_min_rows < 1:
            raise ValueError("split_min_rows must be positive")
        if self.max_actions_per_run < 1:
            raise ValueError("max_actions_per_run must be positive")

    def retrain_bounds(
        self, default_threshold_bytes: Optional[int] = None
    ) -> Tuple[Optional[int], Optional[float]]:
        """``(threshold_bytes, aux_ratio)`` for
        :meth:`~repro.core.deep_mapping.DeepMapping.retrain_due`; ``None``
        disables a bound.  The ``bytes`` policy falls back to the build
        config's threshold when ``retrain_bytes`` is unset."""
        if self.policy == "bytes":
            return (self.retrain_bytes if self.retrain_bytes is not None
                    else default_threshold_bytes), None
        if self.policy == "aux-ratio":
            return None, self.aux_ratio
        return None, None

    # ------------------------------------------------------------------
    # Manifest round trip
    # ------------------------------------------------------------------
    def to_state(self) -> Dict[str, object]:
        """JSON-serializable state (inverse of :meth:`from_state`)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "LifecycleConfig":
        """Inverse of :meth:`to_state`; keys this version does not know
        (a manifest's retired sizing knobs) are ignored."""
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in state.items() if k in known})
