"""Seeded inputs and the expected answers they are checked against.

The program under test only ever sees arrays made here from ``--seed``;
the expected answers come from the source table (a plain dict in
``mutate_mix``), never from the store.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

import spec


class Truth:
    """Expected ``found`` / ``value`` for any key, from the source table."""

    def __init__(self, keys: np.ndarray, values: np.ndarray):
        self.keys = np.asarray(keys, dtype=np.int64)   # sorted, unique
        self.values = np.asarray(values)

    def expect(self, keys: np.ndarray):
        keys = np.asarray(keys, dtype=np.int64)
        pos = np.minimum(np.searchsorted(self.keys, keys),
                         self.keys.size - 1)
        found = self.keys[pos] == keys
        return found, self.values[pos]

    def mismatches(self, keys, found, values) -> int:
        """Keys whose found flag, or value where found, is wrong."""
        want_found, want_values = self.expect(keys)
        found = np.asarray(found, dtype=bool)
        bad = found != want_found
        both = found & want_found
        bad[both] = np.asarray(values)[both] != want_values[both]
        return int(bad.sum())


def live_batches(rng: np.random.Generator, keys: np.ndarray,
                 n_batches: int, batch: int) -> np.ndarray:
    """``n_batches`` x ``batch`` keys drawn uniformly from live keys."""
    return rng.choice(keys, size=(n_batches, batch))


def point_requests(rng: np.random.Generator, keys: np.ndarray,
                   n: int) -> np.ndarray:
    """``n`` requests of ``REQUEST_KEYS`` keys in the ``REQUEST_MIX``."""
    width = spec.REQUEST_KEYS
    uniform, hot, gap, _ = spec.REQUEST_MIX
    lo, hi = int(keys[0]), int(keys[-1])
    holes = np.setdiff1d(np.arange(lo, hi + 1, dtype=np.int64), keys)
    hot_keys = rng.choice(keys, size=spec.HOT_KEYS, replace=False)
    n_uniform = int(round(width * uniform))
    n_hot = int(round(width * hot))
    n_gap = int(round(width * gap))
    n_out = width - n_uniform - n_hot - n_gap
    parts = [rng.choice(keys, size=(n, n_uniform)),
             rng.choice(hot_keys, size=(n, n_hot)),
             rng.choice(holes, size=(n, n_gap)),
             hi + 1 + rng.integers(0, keys.size, size=(n, n_out))]
    requests = np.concatenate(parts, axis=1).astype(np.int64)
    # Shuffle inside each request so hits and misses interleave.
    return rng.permuted(requests, axis=1)


def request_pools(workload: str, seed: int, scale, keys: np.ndarray):
    """``(main, solo)`` request pools of a read workload; each row is one
    request.  ``serve_point``'s main pool is the served request stream,
    so the socket client and the depths below it replay the same keys."""
    rng = np.random.default_rng((seed, 0x5245))
    if workload == "bulk_scan":
        main = live_batches(rng, keys, scale.bulk_pool, scale.bulk_batch)
    elif workload == "tight_pool":
        main = live_batches(rng, keys, scale.tight_pool, scale.pool_batch)
    else:
        main = point_requests(rng, keys, scale.serve_pool)
    return main, point_requests(rng, keys, spec.SOLO_POOL)


def mutation_rounds(table, seed: int, n_rounds: int) -> List[Dict]:
    """The whole ``mutate_mix`` operation stream, made before the clock
    starts.  Each round: rows to insert (in a gap, or appended past the
    domain every ``APPEND_EVERY``-th round), rows to update, keys to
    delete, keys to read (half written in the last ``RECENT_ROUNDS``
    rounds) and one small read-after-write request."""
    from repro.data import synthetic

    rng = np.random.default_rng((seed, 0x4D55))
    keys = np.asarray(table.column("key"), dtype=np.int64)
    vocab = np.unique(table.column("value"))
    n_append = (n_rounds + spec.APPEND_EVERY - 1) // spec.APPEND_EVERY
    n_gap = n_rounds - n_append
    gaps = synthetic.insert_batch(table, max(n_gap, 1) * spec.ROUND_INSERT,
                                  "high", seed=seed, mode="gaps")
    appends = synthetic.insert_batch(table, n_append * spec.ROUND_INSERT,
                                     "low", seed=seed, mode="append")
    # In-gap rows arrive in random key order, appended rows in key order.
    gap_order = rng.permutation(len(gaps))
    gap_keys = gaps.column("key")[gap_order]
    gap_values = gaps.column("value")[gap_order]

    live = keys.copy()           # the keys alive before each round
    recent: List[np.ndarray] = []
    rounds: List[Dict] = []
    i_gap = i_append = 0
    for index in range(n_rounds):
        if index % spec.APPEND_EVERY == spec.APPEND_EVERY - 1:
            lo = i_append * spec.ROUND_INSERT
            insert_keys = appends.column("key")[lo:lo + spec.ROUND_INSERT]
            insert_values = appends.column("value")[lo:lo + spec.ROUND_INSERT]
            kind = "append"
            i_append += 1
        else:
            lo = i_gap * spec.ROUND_INSERT
            insert_keys = gap_keys[lo:lo + spec.ROUND_INSERT]
            insert_values = gap_values[lo:lo + spec.ROUND_INSERT]
            kind = "insert"
            i_gap += 1
        touched = rng.choice(live.size, replace=False,
                             size=spec.ROUND_UPDATE + spec.ROUND_DELETE)
        update_keys = live[touched[:spec.ROUND_UPDATE]]
        delete_keys = live[touched[spec.ROUND_UPDATE:]]
        update_values = rng.choice(vocab, size=spec.ROUND_UPDATE)
        live = np.concatenate([np.delete(live, touched[spec.ROUND_UPDATE:]),
                               insert_keys])

        recent.append(np.concatenate([insert_keys, update_keys,
                                      delete_keys]))
        recent = recent[-spec.RECENT_ROUNDS:]
        fresh = np.concatenate(recent)
        half = spec.ROUND_READ // 2
        read_keys = np.concatenate([rng.choice(fresh, size=half),
                                    rng.choice(live,
                                               size=spec.ROUND_READ - half)])
        solo_keys = np.concatenate([
            rng.choice(fresh, size=spec.REQUEST_KEYS // 2),
            rng.choice(live, size=spec.REQUEST_KEYS // 2)])
        rounds.append({
            "kind": kind,
            "insert": {"key": insert_keys, "value": insert_values},
            "update": {"key": update_keys, "value": update_values},
            "delete": delete_keys,
            "read": rng.permutation(read_keys),
            "solo": rng.permutation(solo_keys),
        })
    return rounds


def rounds_digest(rounds: List[Dict]) -> str:
    arrays = []
    for item in rounds:
        arrays += [item["insert"]["key"], item["insert"]["value"],
                   item["update"]["key"], item["update"]["value"],
                   item["delete"], item["read"], item["solo"]]
    return spec.digest(*arrays)
