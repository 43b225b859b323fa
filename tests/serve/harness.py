"""Deterministic concurrency harness for the coalescing lookup server.

The serving tier's whole risk is correctness under concurrency, so the
harness is the deliverable as much as the server: it drives N client
threads with *seeded* key mixes (hits, in-domain misses, out-of-domain
misses, and a shared hot set that overlaps across clients), releases
them through one barrier so their requests genuinely contend for the
same forming batches, and asserts every response is **bit-identical** to
a direct ``store.lookup`` of the same keys — the oracle is computed
serially before any thread starts.

Everything is parameterized by one integer seed: same seed, same key
mixes, same oracle.  (Thread interleaving still varies run to run — the
point is that *any* interleaving must produce the same bytes.)
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core.plan import LookupResult


@dataclass
class ClientScript:
    """One client's scripted requests (each a dict of key columns)."""

    tenant: str
    requests: List[Dict[str, np.ndarray]]


@dataclass
class HarnessReport:
    """What a run observed; ``raise_on_mismatch`` is the test gate."""

    n_clients: int
    n_requests: int
    n_keys: int
    mismatches: List[str] = field(default_factory=list)
    errors: List[BaseException] = field(default_factory=list)
    stats: Optional[dict] = None

    @property
    def parity(self) -> bool:
        return not self.mismatches and not self.errors

    def raise_on_mismatch(self) -> None:
        if self.errors:
            raise self.errors[0]
        if self.mismatches:
            raise AssertionError(
                f"{len(self.mismatches)} parity mismatches; first: "
                f"{self.mismatches[0]}")


def seeded_key_mix(key_name: str, live: np.ndarray, rng, n_keys: int,
                   hot_keys: Optional[np.ndarray] = None) -> Dict[str, np.ndarray]:
    """One request's keys: ~40% live, ~20% shared-hot, rest misses.

    Misses split between in-domain gaps (exercise the existence gate)
    and out-of-domain keys (exercise the router's miss path).  With a
    ``hot_keys`` pool, every client draws from the same handful of keys,
    so cross-request dedup has real work to do.
    """
    lo, hi = int(live.min()), int(live.max())
    parts = []
    n_hot = n_keys // 5 if hot_keys is not None and hot_keys.size else 0
    n_live = int(n_keys * 0.4)
    n_rest = n_keys - n_hot - n_live
    if n_live:
        parts.append(rng.choice(live, size=n_live, replace=True))
    if n_hot:
        parts.append(rng.choice(hot_keys, size=n_hot, replace=True))
    if n_rest:
        # In-domain gaps and past-the-domain keys, half and half.
        gaps = rng.integers(lo, hi + 1, size=n_rest // 2 + n_rest % 2)
        beyond = rng.integers(hi + 1, hi + 1 + max(hi - lo, 4),
                              size=n_rest // 2)
        parts.extend([gaps, beyond])
    keys = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
    rng.shuffle(keys)
    return {key_name: keys.astype(np.int64)}


def build_scripts(key_name: str, live: np.ndarray, n_clients: int,
                  requests_per_client: int, keys_per_request: int, seed: int,
                  n_hot: int = 16) -> List[ClientScript]:
    """Seeded per-client request scripts with a shared hot-key pool.

    ``live`` is the store's live keyset (the builder knows it — the
    table it fit over); everything else is derived from ``seed``.
    """
    base = np.random.default_rng(seed)
    live = np.sort(np.asarray(live, dtype=np.int64))
    hot = base.choice(live, size=min(n_hot, live.size), replace=False) \
        if live.size else np.empty(0, dtype=np.int64)
    scripts = []
    for client in range(n_clients):
        rng = np.random.default_rng(seed * 1_000_003 + client)
        scripts.append(ClientScript(
            tenant=f"tenant-{client % 4}",
            requests=[seeded_key_mix(key_name, live, rng,
                                     keys_per_request, hot)
                      for _ in range(requests_per_client)]))
    return scripts


def assert_identical(got: LookupResult, want: LookupResult,
                     label: str) -> Optional[str]:
    """None on bit-identity, else a description of the first divergence."""
    if not np.array_equal(got.found, want.found):
        return f"{label}: found mask differs"
    for name, arr in want.values.items():
        if not np.array_equal(got.values[name], arr):
            return f"{label}: column {name!r} differs"
        if got.values[name].dtype != arr.dtype:
            return (f"{label}: column {name!r} dtype "
                    f"{got.values[name].dtype} != {arr.dtype}")
    return None


def run_clients(client, store, scripts: List[ClientScript]) -> HarnessReport:
    """Drive every script on its own thread through ``client``.

    ``client`` is anything with ``lookup(keys, tenant)`` returning a
    :class:`LookupResult` (the in-process :class:`repro.serve.Client`);
    ``store`` is the oracle.  Expected results are computed serially
    up front, threads are released together through a barrier, and the
    report carries every mismatch and raised error.
    """
    expected = [[store.lookup(keys) for keys in script.requests]
                for script in scripts]
    report = HarnessReport(
        n_clients=len(scripts),
        n_requests=sum(len(s.requests) for s in scripts),
        n_keys=sum(int(next(iter(keys.values())).size)
                   for s in scripts for keys in s.requests))
    barrier = threading.Barrier(len(scripts))
    lock = threading.Lock()

    def drive(index: int) -> None:
        script = scripts[index]
        barrier.wait()
        for request_index, keys in enumerate(script.requests):
            label = f"client {index} request {request_index}"
            try:
                got = client.lookup(keys, tenant=script.tenant)
            except BaseException as exc:  # noqa: BLE001 — reported, not hidden
                with lock:
                    report.errors.append(exc)
                return
            mismatch = assert_identical(
                got, expected[index][request_index], label)
            if mismatch:
                with lock:
                    report.mismatches.append(mismatch)

    threads = [threading.Thread(target=drive, args=(i,), daemon=True)
               for i in range(len(scripts))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    if any(thread.is_alive() for thread in threads):
        report.errors.append(TimeoutError("harness clients did not finish"))
    report.stats = client.stats.snapshot()
    return report
