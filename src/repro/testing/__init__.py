"""Fault-injection doubles for resilience testing.

Chaos engineering needs *deterministic* chaos: every double here draws
its failures from a seeded RNG (or an explicit script), so a failing
chaos test replays bit-for-bit from its seed.  Three layers of the stack
get a saboteur:

- :class:`FaultInjectingBackend` — wraps a
  :class:`~repro.storage.backends.StorageBackend`; injects transient
  read errors, single-byte payload corruption, latency, and scripted
  fail-next-N, per blob-name filter.
- :class:`ChaosStore` — wraps any
  :class:`~repro.store.protocol.DataStore`; injects lookup errors,
  latency, and hangs (bounded, or held until :meth:`ChaosStore.release`),
  while staying deadline-transparent so the serve tier's budget
  machinery is what is actually under test.
- :func:`break_shard` — swaps one shard of a
  :class:`~repro.shard.store.ShardedDeepMapping` for a failing or
  hanging proxy, the unit of fault for partial-result tests.
- :func:`serve_backend` / :class:`RangeServer` — an in-process HTTP
  range server over any local backend, with request accounting and
  scripted fault/latency injection, so the remote read path
  (``http://`` opens, lazy hydration) is testable without a network.

:mod:`repro.testing.oracles` holds the other kind of test support: the
parity references (:func:`reference_logits`, :func:`barrier_lookup`,
:func:`reference_lookup`), which production code cannot select.

These are test doubles, not mocks of the contract: everything they do
not sabotage is delegated to the real object, so a chaos run still
exercises the production read path end to end.
"""

from .chaos import ChaosStore, break_shard
from .faults import FaultInjectingBackend
from .oracles import barrier_lookup, reference_logits, reference_lookup
from .range_server import RangeServer, RequestRecord, serve_backend

__all__ = ["ChaosStore", "FaultInjectingBackend", "break_shard",
           "RangeServer", "RequestRecord", "serve_backend",
           "barrier_lookup", "reference_logits", "reference_lookup"]
