"""The coalescer: merge many small lookup requests into one fused batch.

Two layers live here, both deliberately free of any event loop so the
latency-policy tests can drive them with a fake clock:

- :class:`Batcher` — the admission state machine.  Requests are queued
  into a *forming batch*; :meth:`add` reports when the
  :class:`~repro.serve.policy.AdmissionPolicy` size trigger or the
  learned arrival trigger fires, :meth:`deadline` exposes the single
  point in time the delay trigger would fire (``None`` while idle — the
  server arms exactly one timer per forming batch and none when idle),
  :meth:`take` drains the batch for execution, and :meth:`settle` tells
  the batcher that a drained batch has been answered.
- :func:`merge_requests` / :func:`scatter_result` — the pure array math
  of coalescing.  Merge concatenates every request's key columns,
  dedups identical keys across requests (one fused-gather position per
  distinct key, however many requests asked for it), and remembers the
  per-request slices; scatter routes the store's one
  :class:`~repro.core.plan.LookupResult` back into bit-identical
  per-request results via the dedup inverse.

Parity argument: ``lookup`` is a pure function of (store state, key), so
looking a key up once and fanning the row out to every request that
asked for it returns exactly what each request's own ``lookup`` call
would have — the property test in ``tests/serve/test_property.py``
checks this for arbitrary partitions, overlaps, and misses.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.deep_mapping import normalize_keys
from ..core.plan import LookupResult
from ..resilience.deadline import Deadline
from ..resilience.partial import PartialResult
from .policy import AdmissionPolicy

__all__ = ["Batcher", "PendingRequest", "QueueFullError", "TenantQuotaError",
           "normalize_request_keys", "merge_requests", "scatter_result"]

#: How many flushes the arrival trigger remembers.  The expected number
#: of callers is the *largest* occupancy among them, so one small batch
#: never shrinks it; callers that leave cost this many full windows.
OCCUPANCY_HISTORY = 4


class QueueFullError(RuntimeError):
    """Admission refused: the forming batch already holds
    ``policy.max_queue_requests`` requests (back-pressure).

    ``retry_after_s`` — when the server has a service-rate estimate —
    tells the caller how long the backlog is expected to take to clear;
    the TCP transport forwards it as ``retry_after_ms``.
    """

    def __init__(self, message: str,
                 retry_after_s: Optional[float] = None):
        super().__init__(message)
        self.retry_after_s = retry_after_s


class TenantQuotaError(QueueFullError):
    """Admission refused for ONE tenant: its queued keys would exceed
    its weighted fair-admission quota (``policy.tenant_quota_keys``).
    Other tenants keep admitting — this is the clip that stops a
    flooding tenant from consuming the whole queue."""


def normalize_request_keys(keys, key_names) -> Dict[str, np.ndarray]:
    """Validate and canonicalize one request's keys at admission time.

    Every accepted key shape is coerced to ``{name: int64 array}``.
    Doing the dtype check *here* — before the request joins a batch — is
    what keeps a malformed request from poisoning its batchmates: a
    string or float key raises to its own caller and never reaches the
    merge (``tests/serve/test_faults.py``).
    """
    columns = normalize_keys(keys, tuple(key_names))
    out: Dict[str, np.ndarray] = {}
    n = None
    for name in key_names:
        arr = np.asarray(columns[name])
        if arr.ndim != 1:
            raise TypeError(f"key column {name!r} must be 1-D, "
                            f"got shape {arr.shape}")
        if not np.issubdtype(arr.dtype, np.integer):
            raise TypeError(f"key column {name!r} must be integer, "
                            f"got dtype {arr.dtype}")
        if n is None:
            n = arr.size
        elif arr.size != n:
            raise ValueError(f"key columns disagree on length: "
                             f"{name!r} has {arr.size}, expected {n}")
        out[name] = arr.astype(np.int64, copy=False)
    return out


class PendingRequest:
    """One admitted request waiting in the forming batch."""

    __slots__ = ("key_cols", "n_keys", "tenant", "future", "admitted_at",
                 "deadline")

    def __init__(self, key_cols: Dict[str, np.ndarray], tenant: str,
                 future, admitted_at: float,
                 deadline: Optional[Deadline] = None):
        self.key_cols = key_cols
        self.n_keys = int(next(iter(key_cols.values())).size)
        self.tenant = tenant
        #: The caller's completion handle; the server decides its flavor
        #: (asyncio future in-process, set via call_soon_threadsafe from
        #: workers).  The batcher only carries it.
        self.future = future
        self.admitted_at = admitted_at
        #: Optional per-request :class:`~repro.resilience.Deadline` (on
        #: the batcher's clock).  A waiter's deadline can pull the flush
        #: point *earlier* than the policy delay — never later — and
        #: bounds its own store wait downstream.
        self.deadline = deadline


class Batcher:
    """Admission state machine for one store's forming batch.

    Not thread-safe by itself: the server confines every call to its
    event-loop thread.  ``clock`` is injectable (monotonic seconds) so
    tests advance time explicitly.

    **The arrival trigger.**  Waiting out ``max_delay_ms`` only pays
    while more callers are still on their way.  The batcher therefore
    learns how many requests the tier holds at once — its *occupancy*,
    queued plus taken-and-not-yet-settled — and flushes a forming batch
    the moment it holds that many, because nobody else is expected.  The
    estimate is biased high on purpose: an over-estimate costs at most
    the policy window, an under-estimate fragments batches that each pay
    the store's per-shard fixed cost.  So it starts unknown (full
    window), rises at once when an admission sees a higher occupancy,
    and falls only to the largest occupancy of the last
    :data:`OCCUPANCY_HISTORY` flushes.
    """

    def __init__(self, policy: Optional[AdmissionPolicy] = None,
                 clock: Callable[[], float] = time.monotonic):
        self.policy = policy or AdmissionPolicy()
        self.clock = clock
        self._pending: List[PendingRequest] = []
        self._pending_keys = 0
        self._tenant_keys: Dict[str, int] = {}
        self._deadline: Optional[float] = None
        self._inflight = 0
        self._expected: Optional[int] = None
        self._occupancy_at_flush: Deque[int] = deque(maxlen=OCCUPANCY_HISTORY)

    def __len__(self) -> int:
        return len(self._pending)

    @property
    def expected_requests(self) -> Optional[int]:
        """Requests a forming batch waits for before the arrival trigger
        flushes it; None until the first flush (full window)."""
        return self._expected

    @property
    def pending_keys(self) -> int:
        """Keys queued in the forming batch (pre-dedup)."""
        return self._pending_keys

    def tenant_queued_keys(self, tenant: str) -> int:
        """Keys ``tenant`` currently holds in the queue."""
        return self._tenant_keys.get(tenant, 0)

    def over_fair_share(self, tenant: str, extra_keys: int = 0) -> bool:
        """Would ``tenant`` (with ``extra_keys`` more) exceed its
        weighted fair share of the queued keys?

        Fair share is computed over the tenants *currently queued* (plus
        the candidate): a tenant alone in the queue is never over-share
        — there is nobody to be unfair to.  The shedder uses this to
        pick its first victims when the backlog estimate crosses the
        target: over-share tenants shed before anyone else feels it.
        """
        active = set(self._tenant_keys)
        active.add(tenant)
        if len(active) <= 1:
            return False
        total_weight = sum(self.policy.weight(name) for name in active)
        total_keys = self._pending_keys + extra_keys
        share = total_keys * self.policy.weight(tenant) / total_weight
        return self.tenant_queued_keys(tenant) + extra_keys > share

    def add(self, request: PendingRequest) -> Optional[str]:
        """Queue ``request``; returns the trigger that says flush now —
        ``"size"`` (``max_batch_keys`` reached) or ``"arrival"`` (every
        expected caller is queued) — or None to keep waiting.

        The first request of a batch starts the delay clock; later
        requests never extend it (the *oldest* waiter bounds the delay).
        A request carrying its own :class:`Deadline` can pull the flush
        point earlier — a waiter with 5 ms of budget must not sit out a
        20 ms admission window — so after an ``add`` the server re-arms
        its timer whenever :meth:`deadline` moved up.  Raises
        :class:`QueueFullError` when the policy's queue bound is hit,
        or :class:`TenantQuotaError` when this tenant's weighted
        queued-key quota is — the caller fails that request alone.
        """
        limit = self.policy.max_queue_requests
        if limit is not None and len(self._pending) >= limit:
            raise QueueFullError(
                f"forming batch already holds {len(self._pending)} requests "
                f"(max_queue_requests={limit})")
        quota = self.policy.quota_keys(request.tenant)
        if quota is not None and \
                self.tenant_queued_keys(request.tenant) + request.n_keys \
                > quota:
            raise TenantQuotaError(
                f"tenant {request.tenant!r} holds "
                f"{self.tenant_queued_keys(request.tenant)} queued keys; "
                f"{request.n_keys} more would exceed its quota of "
                f"{quota:g}")
        if not self._pending:
            self._deadline = self.clock() + self.policy.max_delay_seconds
        if request.deadline is not None \
                and request.deadline.expires_at < self._deadline:
            # Pull the flush point earlier for the urgent waiter — but
            # never *to* its expiry: a timer firing at ``expires_at``
            # expires the request before the store call it queued for.
            # Flush halfway through its remaining budget so service
            # keeps the other half (an already-expired waiter flushes
            # now and fails alone in the pre-execute prune).
            now = self.clock()
            remaining = max(0.0, request.deadline.expires_at - now)
            self._deadline = now + remaining / 2.0
        self._pending.append(request)
        self._pending_keys += request.n_keys
        self._tenant_keys[request.tenant] = \
            self._tenant_keys.get(request.tenant, 0) + request.n_keys
        if self._pending_keys >= self.policy.max_batch_keys:
            return "size"
        if self._expected is None:
            return None
        # Callers queued behind an in-flight batch raise the expectation
        # here, so they wait for each other instead of flushing one by
        # one against a stale estimate.
        self._expected = max(self._expected,
                             len(self._pending) + self._inflight)
        return "arrival" if len(self._pending) >= self._expected else None

    def evict_expired(self,
                      now: Optional[float] = None) -> List[PendingRequest]:
        """Remove (and return) queued waiters whose deadline has passed.

        A dead waiter must not hold a queue slot against live
        admissions: the server calls this when :meth:`add` reports the
        queue full, fails the evicted requests with their own
        ``DeadlineExceeded``, and retries the admission once.
        """
        if not self._pending:
            return []
        now = self.clock() if now is None else now
        expired = [r for r in self._pending
                   if r.deadline is not None and r.deadline.expires_at <= now]
        if expired:
            self._remove(expired)
        return expired

    def deadline(self) -> Optional[float]:
        """When the delay trigger fires, or None while idle.

        Set at first admission; only a later waiter's *earlier* request
        deadline can move it (always forward in urgency, never later),
        until :meth:`take` resets it.
        """
        return self._deadline if self._pending else None

    def due(self, now: Optional[float] = None) -> bool:
        """True when a forming batch has outlived ``max_delay_ms``."""
        if not self._pending:
            return False
        return (now if now is not None else self.clock()) >= self._deadline

    def take(self) -> List[PendingRequest]:
        """Drain the forming batch for execution.

        When everything queued fits under ``max_batch_keys`` (the common
        case — the size trigger flushes at the bound) the whole queue
        drains in arrival order, exactly the historical behavior.  Under
        overload more keys can be queued than one fused batch should
        carry; then the drain is **deficit-round-robin across tenants**:
        each tenant's queue is served FIFO, tenants take turns with a
        weight-scaled key quantum, and whatever does not fit stays
        queued for the next flush.  A flooding tenant is thereby clipped
        to its share of every batch while a light tenant's lone request
        always rides the next one — the fairness half of overload
        control (the shedder is the other half).

        Resets the delay clock to idle when the queue empties; otherwise
        re-points it at the oldest *remaining* waiter so the server can
        re-arm its timer for the leftovers.  The drained requests count
        as in flight until :meth:`settle`, and the occupancy at this
        flush joins the arrival trigger's history.
        """
        if not self._pending:
            return []
        self._occupancy_at_flush.append(len(self._pending) + self._inflight)
        self._expected = max(self._occupancy_at_flush)
        max_keys = self.policy.max_batch_keys
        if self._pending_keys <= max_keys or len(self._pending) == 1:
            batch, self._pending = self._pending, []
            self._pending_keys = 0
            self._tenant_keys.clear()
            self._deadline = None
        else:
            batch = self._drr_select(max_keys)
            self._remove(batch)
        self._inflight += len(batch)
        return batch

    def settle(self, n_requests: int) -> None:
        """``n_requests`` drained by :meth:`take` have been answered (or
        failed): they no longer count towards the occupancy."""
        self._inflight -= n_requests

    def _drr_select(self, max_keys: int) -> List[PendingRequest]:
        """Pick ~``max_keys`` queued keys, deficit-round-robin by tenant.

        Tenants are visited in first-arrival order; each visit grants a
        weight-scaled quantum of key credit, and a tenant's queue pops
        (FIFO) while its credit covers its head request.  Credit grows
        every round, so the loop always terminates — and a head request
        larger than ``max_keys`` is still taken once the batch is
        otherwise empty (one oversized request flushes alone rather
        than wedging the queue).
        """
        queues: Dict[str, Deque[PendingRequest]] = {}
        order: List[str] = []
        for request in self._pending:
            if request.tenant not in queues:
                queues[request.tenant] = deque()
                order.append(request.tenant)
            queues[request.tenant].append(request)
        quantum = max(1, max_keys // max(1, len(order)))
        deficit = {tenant: 0.0 for tenant in order}
        taken: List[PendingRequest] = []
        taken_keys = 0
        while queues and taken_keys < max_keys:
            for tenant in order:
                queue = queues.get(tenant)
                if queue is None:
                    continue
                deficit[tenant] += quantum * self.policy.weight(tenant)
                while queue and deficit[tenant] >= queue[0].n_keys \
                        and taken_keys < max_keys:
                    request = queue.popleft()
                    deficit[tenant] -= request.n_keys
                    taken.append(request)
                    taken_keys += request.n_keys
                if not queue:
                    del queues[tenant]
        return taken

    def _remove(self, removed: List[PendingRequest]) -> None:
        """Drop ``removed`` from the queue and re-point the delay clock
        at the oldest remaining waiter (idle when none remain)."""
        removed_ids = {id(r) for r in removed}
        remaining = [r for r in self._pending if id(r) not in removed_ids]
        self._pending = remaining
        self._pending_keys = sum(r.n_keys for r in remaining)
        self._tenant_keys.clear()
        for request in remaining:
            self._tenant_keys[request.tenant] = \
                self._tenant_keys.get(request.tenant, 0) + request.n_keys
        if not remaining:
            self._deadline = None
            return
        # Leftover waiters were admitted before this flush: their policy
        # point (oldest admission + max_delay) has typically passed, so
        # the re-armed timer fires immediately and they ride the next
        # batch.  An urgent per-request deadline still pulls the point
        # earlier, with the same half-budget service margin as add().
        now = self.clock()
        point = min(r.admitted_at for r in remaining) \
            + self.policy.max_delay_seconds
        for request in remaining:
            if request.deadline is not None \
                    and request.deadline.expires_at < point:
                margin = max(0.0, request.deadline.expires_at - now) / 2.0
                point = min(point, now + margin)
        self._deadline = point


# --------------------------------------------------------------------------
# Array math: merge with dedup, scatter back
# --------------------------------------------------------------------------
def merge_requests(
    key_names: Sequence[str], requests: Sequence[PendingRequest],
) -> Tuple[Dict[str, np.ndarray], np.ndarray, List[Tuple[int, int]]]:
    """Coalesce requests into one deduped key batch.

    Returns ``(unique_cols, inverse, slices)``: the deduped batch to
    look up, the map from every merged position to its unique row, and
    each request's ``[lo, hi)`` slice of the merged order.  Request
    ``i``'s rows come back as ``unique_result[inverse[lo:hi]]``.
    """
    key_names = tuple(key_names)
    merged = {name: np.concatenate([r.key_cols[name] for r in requests])
              for name in key_names}
    slices: List[Tuple[int, int]] = []
    lo = 0
    for request in requests:
        slices.append((lo, lo + request.n_keys))
        lo += request.n_keys
    total = lo
    if total == 0:
        empty = {name: np.empty(0, dtype=np.int64) for name in key_names}
        return empty, np.empty(0, dtype=np.intp), slices
    if len(key_names) == 1:
        name = key_names[0]
        unique, inverse = np.unique(merged[name], return_inverse=True)
        unique_cols = {name: unique}
    else:
        stacked = np.stack([merged[name] for name in key_names], axis=1)
        unique, inverse = np.unique(stacked, axis=0, return_inverse=True)
        unique_cols = {name: np.ascontiguousarray(unique[:, i])
                       for i, name in enumerate(key_names)}
    # numpy 2.0 briefly shaped the axis-aware inverse (n, 1); flatten so
    # downstream fancy indexing sees positions on every version.
    return unique_cols, np.asarray(inverse).reshape(-1), slices


def scatter_result(result: LookupResult, inverse: np.ndarray,
                   lo: int, hi: int) -> LookupResult:
    """One request's bit-identical slice of the deduped batch result.

    A :class:`~repro.resilience.PartialResult` (sharded store in
    ``on_shard_error="partial"`` mode) scatters as a partial result too:
    each request sees exactly its own slice of the ``failed_mask`` (a
    request none of whose keys landed on a failing shard gets an
    all-false mask — ``complete`` is true for it).
    """
    idx = inverse[lo:hi]
    values = {name: arr[idx] for name, arr in result.values.items()}
    failed = getattr(result, "failed_mask", None)
    if failed is not None:
        return PartialResult(
            found=result.found[idx], values=values,
            failed_mask=failed[idx],
            shard_errors=dict(result.shard_errors))
    return LookupResult(found=result.found[idx], values=values)
