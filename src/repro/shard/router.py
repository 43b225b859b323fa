"""Key→shard routing for the DeepMapping store: contiguous ranges of the
leading key column.

:class:`RangeShardRouter` partitions on the *leading* key column using
cut points chosen at build time to balance row counts.  Every shard owns
a contiguous key range, so shards can split and merge, and a shard's
live keys are one contiguous run of the lexicographic flat codes.  Keys
outside the fitted range route to the first/last shard, which keeps
inserts of fresh, larger keys well-defined.  The store places rows at
these cuts turned into flat codes (:mod:`repro.shard.topology`).

The router is deterministic and round-trips through
:meth:`RangeShardRouter.to_state` / :meth:`RangeShardRouter.from_state`
(a plain JSON-friendly dict, recorded in the store manifest).
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

__all__ = ["RangeShardRouter"]

#: The last commit that reads a store placed by the retired hash router.
_LAST_HASH_READER = "212a3db"


class RangeShardRouter:
    """Contiguous ranges of the leading key column, one per shard.

    ``cuts`` holds ``n_shards - 1`` ascending boundary values; row ``r``
    routes to ``searchsorted(cuts, leading(r), side="right")``.  Rows that
    share a leading-key value always land in the same shard, so composite
    keys stay well-defined (the leading column is the paper's slowest-
    varying key attribute).
    """

    def __init__(self, key_names: Sequence[str], n_shards: int, cuts):
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if not key_names:
            raise ValueError("at least one key column required")
        self.key_names = tuple(key_names)
        self.n_shards = int(n_shards)
        self.cuts = np.asarray(cuts, dtype=np.int64)
        if self.cuts.size != self.n_shards - 1:
            raise ValueError(
                f"expected {self.n_shards - 1} cut points, got {self.cuts.size}"
            )
        # Compare neighbours, not their difference: int64 cuts up to
        # +-2**62 apart would overflow np.diff into a false "descending".
        if np.any(self.cuts[1:] < self.cuts[:-1]):
            raise ValueError("cut points must be ascending")

    @classmethod
    def from_keys(
        cls,
        key_cols: Dict[str, np.ndarray],
        key_names: Sequence[str],
        n_shards: int,
    ) -> "RangeShardRouter":
        """Choose row-balancing cut points from observed leading keys.

        Cut points are picked among the *distinct* leading values and made
        strictly ascending whenever ``n_shards`` distinct values exist:
        naive per-row quantiles degenerate under skew (a hot value
        occupying several quantile positions yields duplicate cuts, and a
        shard boxed between two equal cuts is permanently empty — no key
        can ever route to it).  With fewer distinct values than shards,
        strictness is impossible; each value then gets its own shard and
        the trailing cuts continue past the observed maximum, so the
        surplus shards stay empty but *reachable* by future larger keys.
        """
        leading = np.asarray(key_cols[tuple(key_names)[0]], dtype=np.int64)
        if leading.size == 0:
            raise ValueError("cannot fit a range router on zero rows")
        if n_shards == 1:
            return cls(key_names, 1, np.empty(0, dtype=np.int64))
        uniq, counts = np.unique(leading, return_counts=True)
        n_cuts = n_shards - 1
        if uniq.size >= n_shards:
            # Rows strictly below cut uniq[j] number cum[j - 1]; aim that
            # at each balanced target, then force strict ascent (forward
            # pass) inside the feasible index band [1, uniq.size - 1]
            # (backward pass) so every shard owns at least one live value.
            cum = np.cumsum(counts)
            targets = (np.arange(1, n_shards) * leading.size) / n_shards
            idx = np.searchsorted(cum, targets) + 1
            idx[0] = max(idx[0], 1)
            for i in range(1, n_cuts):
                idx[i] = max(idx[i], idx[i - 1] + 1)
            for i in range(n_cuts - 1, -1, -1):
                idx[i] = min(idx[i], uniq.size - n_cuts + i)
            cuts = uniq[idx]
        else:
            info = np.iinfo(np.int64)
            pad = [min(int(uniq[-1]) + k, info.max)
                   for k in range(1, n_shards - uniq.size + 1)]
            cuts = np.concatenate([uniq[1:],
                                   np.asarray(pad, dtype=np.int64)])
        return cls(key_names, n_shards, cuts)

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "RangeShardRouter":
        """Restore a router from :meth:`to_state` output."""
        kind = state.get("kind")
        if kind == "hash":
            raise ValueError(
                "this store was placed by the hash router, which this "
                "version does not read (range placement is the only one). "
                f"Open the store at commit {_LAST_HASH_READER}, the last "
                "one that reads it, take its rows (to_table()) and build "
                "them again with this version.")
        if kind != "range":
            raise ValueError(f"unknown router kind {kind!r}")
        return cls(state["key_names"], int(state["n_shards"]), state["cuts"])

    def route(self, key_cols: Dict[str, np.ndarray]) -> np.ndarray:
        """Shard ordinal in ``[0, n_shards)`` per key row, by its leading
        column: the routing oracle that the barrier oracle and the tests
        hold the store's flat-code cuts against."""
        leading = np.asarray(key_cols[self.key_names[0]], dtype=np.int64)
        return np.searchsorted(self.cuts, leading, side="right")

    # ------------------------------------------------------------------
    # Lifecycle rebalancing (see repro.lifecycle)
    # ------------------------------------------------------------------
    def bounds_of(self, ordinal: int) -> "tuple":
        """Half-open ``[lower, upper)`` leading-key range a shard owns
        (``None`` marks the unbounded edges)."""
        if not 0 <= ordinal < self.n_shards:
            raise IndexError(f"shard ordinal {ordinal} out of range")
        lower = int(self.cuts[ordinal - 1]) if ordinal > 0 else None
        upper = (int(self.cuts[ordinal])
                 if ordinal < self.n_shards - 1 else None)
        return lower, upper

    def split_at(self, ordinal: int, cut: int) -> "RangeShardRouter":
        """New router with shard ``ordinal`` split at ``cut``.

        The shard's range ``[lower, upper)`` becomes ``[lower, cut)`` at
        ``ordinal`` and ``[cut, upper)`` at ``ordinal + 1``; shards above
        shift up by one.  ``cut`` must lie strictly inside the shard's
        current range.
        """
        lower, upper = self.bounds_of(ordinal)
        cut = int(cut)
        if (lower is not None and cut <= lower) or \
                (upper is not None and cut >= upper):
            raise ValueError(
                f"cut {cut} outside shard {ordinal}'s range "
                f"[{lower}, {upper})"
            )
        cuts = np.insert(self.cuts, ordinal, cut)
        return RangeShardRouter(self.key_names, self.n_shards + 1, cuts)

    def merge_at(self, ordinal: int) -> "RangeShardRouter":
        """New router with shards ``ordinal`` and ``ordinal + 1`` merged
        (the boundary between them removed); shards above shift down."""
        if not 0 <= ordinal < self.n_shards - 1:
            raise ValueError(
                f"cannot merge shard {ordinal} with its right neighbour "
                f"in a {self.n_shards}-shard router"
            )
        cuts = np.delete(self.cuts, ordinal)
        return RangeShardRouter(self.key_names, self.n_shards - 1, cuts)

    def to_state(self) -> Dict[str, object]:
        return {
            "kind": "range",
            "key_names": list(self.key_names),
            "n_shards": self.n_shards,
            "cuts": [int(c) for c in self.cuts],
        }

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(key={self.key_names}, "
                f"n_shards={self.n_shards})")
