"""Chaos doubles at the store and shard granularity.

:class:`ChaosStore` sits where the serve tier holds its store reference
and injects the failure modes a production store exhibits under stress —
errors, latency, outright hangs — without touching the store itself.
:func:`break_shard` goes one level deeper: it swaps a single shard of a
:class:`~repro.shard.store.DeepMapping` for a saboteur proxy, the
fault unit that partial-result isolation is specified against.
"""

from __future__ import annotations

import inspect
import threading
import time
from concurrent.futures import Future, InvalidStateError
from typing import Callable, Optional

import numpy as np

from ..core.deep_mapping import Shard

__all__ = ["ChaosStore", "break_shard", "BrokenShardProxy"]


def _settle(future: Future, result=None, exception=None) -> None:
    """Resolve ``future`` from a worker thread, tolerating the waiter
    having cancelled it (a hung lookup abandoned past its deadline)."""
    try:
        if exception is not None:
            future.set_exception(exception)
        else:
            future.set_result(result)
    except InvalidStateError:
        pass


class ChaosStore:
    """A :class:`~repro.store.protocol.DataStore` proxy that misbehaves.

    Parameters
    ----------
    inner:
        The real store; everything not sabotaged delegates to it.
    error_rate:
        Seeded per-lookup probability of raising ``RuntimeError``
        *before* touching the inner store.
    latency_s:
        Fixed delay added to every lookup (the slow-dependency mode).
    hang_s:
        When set, every lookup blocks until :meth:`release` is called
        or ``hang_s`` elapses — the wedged-dependency mode deadline
        tests are written against.  Keep it comfortably above the
        deadlines under test; :meth:`release` (or ``close``) frees the
        worker threads at teardown.
    seed:
        Seeds the error schedule; same seed, same faults.

    The async surface matters more than the sync one here: the serve
    tier calls ``lookup_async`` and sniffs it for deadline support, so
    this proxy exposes the same ``deadline`` keyword and forwards it
    only when the inner store understands it — a ChaosStore over a
    store keeps budget push-down working, and over a store without the
    keyword degrades exactly as that store would.
    """

    def __init__(self, inner, *, error_rate: float = 0.0,
                 latency_s: float = 0.0, hang_s: Optional[float] = None,
                 seed: int = 0):
        self.inner = inner
        self.error_rate = float(error_rate)
        self.latency_s = float(latency_s)
        self.hang_s = hang_s
        self.injected_errors = 0
        self.injected_hangs = 0
        self._rng = np.random.default_rng(seed)
        self._rng_lock = threading.Lock()
        self._scripted_failures = 0
        self._released = threading.Event()
        try:
            self._inner_takes_deadline = "deadline" in \
                inspect.signature(inner.lookup).parameters
        except (TypeError, ValueError):
            self._inner_takes_deadline = False

    # -- chaos controls ------------------------------------------------
    def release(self) -> None:
        """Unblock every hanging lookup (hang mode becomes a no-op)."""
        self._released.set()

    def fail_next(self, n: int = 1) -> None:
        """Script the next ``n`` lookups to fail deterministically.

        Coalescing makes probabilistic ``error_rate`` awkward in serve
        tests — 32 client requests may reach the store as one merged
        call — so deterministic scripting is the primary error mode.
        """
        with self._rng_lock:
            self._scripted_failures += int(n)

    def _misbehave(self) -> None:
        if self.hang_s is not None and not self._released.is_set():
            self.injected_hangs += 1
            self._released.wait(self.hang_s)
        if self.latency_s > 0.0:
            time.sleep(self.latency_s)
        with self._rng_lock:
            if self._scripted_failures > 0:
                self._scripted_failures -= 1
                self.injected_errors += 1
                raise RuntimeError("injected store error")
        if self.error_rate > 0.0:
            with self._rng_lock:
                roll = self._rng.random()
            if roll < self.error_rate:
                self.injected_errors += 1
                raise RuntimeError("injected store error")

    # -- DataStore read surface ----------------------------------------
    def lookup(self, keys, *, deadline=None):
        self._misbehave()
        if self._inner_takes_deadline:
            return self.inner.lookup(keys, deadline=deadline)
        return self.inner.lookup(keys)

    def lookup_async(self, keys, *, deadline=None) -> Future:
        """Chaos-wrapped async lookup.

        The misbehavior runs on a private thread (not the caller's),
        so a hang wedges the *future*, never the event loop — the
        failure shape the serve tier's ``wait_for`` bound must absorb.
        """
        future: Future = Future()

        def run() -> None:
            try:
                result = self.lookup(keys, deadline=deadline)
            except BaseException as exc:  # future carries the failure
                _settle(future, exception=exc)
            else:
                _settle(future, result=result)

        thread = threading.Thread(target=run, name="chaos-lookup",
                                  daemon=True)
        thread.start()
        return future

    def close(self) -> None:
        self.release()  # free any hanging workers before the store goes
        self.inner.close()

    def __getattr__(self, name: str):
        return getattr(self.inner, name)

    def __repr__(self) -> str:
        return (f"ChaosStore({self.inner!r}, error_rate={self.error_rate}, "
                f"latency_s={self.latency_s}, hang_s={self.hang_s})")


class BrokenShardProxy:
    """One shard replaced by a saboteur: fails, hangs, or dawdles.

    Sabotages :meth:`probe`, a shard's only read call: the read path
    calls it once per request that touches the shard, and the barrier
    oracle through :meth:`plan_lookup`, whose plan probes this proxy.
    Everything else delegates to the real shard, so routing is unchanged
    and healthy shards stay bit-identical.
    """

    #: The real shard's plan, probing this proxy instead of it.
    plan_lookup = Shard.plan_lookup

    def __init__(self, inner, *, exc_factory: Optional[
            Callable[[], BaseException]] = None, delay_s: float = 0.0):
        self._inner = inner
        self._exc_factory = exc_factory
        self._delay_s = float(delay_s)

    def probe(self, flat, hit, labels):
        if self._delay_s > 0.0:
            time.sleep(self._delay_s)
        if self._exc_factory is not None:
            raise self._exc_factory()
        self._inner.probe(flat, hit, labels)

    def __getattr__(self, name: str):
        return getattr(self._inner, name)


def break_shard(store, ordinal: int, *,
                exc_factory: Optional[Callable[[], BaseException]] = None,
                delay_s: float = 0.0) -> Callable[[], None]:
    """Swap ``store.shards[ordinal]`` for a saboteur; returns a restorer.

    The saboteur (:class:`BrokenShardProxy`) acts on the shard's
    ``T_aux`` probe, its only read call, so the store's read path and
    :func:`~repro.testing.oracles.barrier_lookup` both meet the fault,
    and only keys the shard owns that the store's ``V_exist`` holds
    (misses never reach a shard).  Default sabotage is a clean failure
    (``RuntimeError``); pass ``delay_s`` for a straggler that outlives
    deadlines instead, or both for a slow failure.  The probe runs on
    the reading thread, so ``delay_s`` holds the read that long.  The
    returned zero-argument callable puts the real shard back::

        restore = break_shard(store, 1)
        try:
            ...  # chaos assertions
        finally:
            restore()
    """
    if store.shards[ordinal] is None:
        raise ValueError(f"shard {ordinal} is empty; nothing to break")
    if exc_factory is None and delay_s <= 0.0:
        exc_factory = lambda: RuntimeError(  # noqa: E731
            f"injected failure in shard {ordinal}")
    original = store.shards[ordinal]
    store.shards[ordinal] = BrokenShardProxy(
        original, exc_factory=exc_factory, delay_s=delay_s)

    def restore() -> None:
        store.shards[ordinal] = original

    return restore
