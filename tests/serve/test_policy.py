"""Admission-policy behavior under a fake clock.

The :class:`~repro.serve.batcher.Batcher` is event-loop-free by design:
these tests advance a fake monotonic clock explicitly and check the
three flush triggers (size, learned arrival, delay) and the idle
contract — then real-loop tests pin the "zero busy-wait wakeups while
idle" and "a lone caller stops paying the window" claims on the live
server.
"""

import asyncio
import time

import numpy as np
import pytest

import repro
from repro.resilience import Deadline
from repro.serve import (AdmissionPolicy, Batcher, LookupServer,
                         QueueFullError)
from repro.serve.batcher import (OCCUPANCY_HISTORY, PendingRequest,
                                 normalize_request_keys)


class FakeClock:
    def __init__(self, now: float = 100.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def request(n_keys: int, tenant: str = "t",
            deadline=None) -> PendingRequest:
    keys = normalize_request_keys(
        {"sku": np.arange(n_keys, dtype=np.int64)}, ("sku",))
    return PendingRequest(keys, tenant, future=None, admitted_at=0.0,
                          deadline=deadline)


class TestPolicyValidation:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            AdmissionPolicy(max_batch_keys=0)
        with pytest.raises(ValueError):
            AdmissionPolicy(max_delay_ms=-1)
        with pytest.raises(ValueError):
            AdmissionPolicy(max_queue_requests=0)

    def test_delay_converts_to_seconds(self):
        assert AdmissionPolicy(max_delay_ms=250.0).max_delay_seconds == 0.25


class TestDelayTrigger:
    def test_partial_batch_flushes_at_deadline(self):
        clock = FakeClock()
        batcher = Batcher(AdmissionPolicy(max_batch_keys=1000,
                                          max_delay_ms=5.0), clock=clock)
        assert batcher.add(request(3)) is None
        assert batcher.deadline() == pytest.approx(clock.now + 0.005)
        clock.advance(0.004)
        assert not batcher.due()
        clock.advance(0.002)
        assert batcher.due()
        batch = batcher.take()
        assert [r.n_keys for r in batch] == [3]

    def test_later_requests_do_not_extend_the_deadline(self):
        clock = FakeClock()
        batcher = Batcher(AdmissionPolicy(max_batch_keys=1000,
                                          max_delay_ms=5.0), clock=clock)
        batcher.add(request(1))
        first_deadline = batcher.deadline()
        clock.advance(0.003)
        batcher.add(request(1))  # the oldest waiter still bounds the delay
        assert batcher.deadline() == first_deadline

    def test_take_resets_the_clock(self):
        clock = FakeClock()
        batcher = Batcher(AdmissionPolicy(max_delay_ms=5.0), clock=clock)
        batcher.add(request(1))
        batcher.take()
        assert batcher.deadline() is None
        assert not batcher.due()
        # A fresh batch starts a fresh window from "now".
        clock.advance(60.0)
        batcher.add(request(1))
        assert batcher.deadline() == pytest.approx(clock.now + 0.005)


class TestUrgentWaiterMargin:
    def test_urgent_pull_leaves_service_budget(self):
        # Regression: the flush point used to be pulled to exactly the
        # urgent waiter's expiry, so the timer fired with zero budget
        # left and the waiter was always expired, never served.
        clock = FakeClock()
        batcher = Batcher(AdmissionPolicy(max_batch_keys=1000,
                                          max_delay_ms=20.0), clock=clock)
        deadline = Deadline(0.005, clock=clock)  # 5 ms budget
        batcher.add(request(1, deadline=deadline))
        due = batcher.deadline()
        # Pulled ahead of the 20 ms policy point, but NOT to the expiry:
        # the flush keeps half the remaining budget for the store call.
        assert due == pytest.approx(clock.now + 0.0025)
        clock.now = due
        assert batcher.due()
        assert not deadline.expired

    def test_relaxed_deadline_does_not_pull_the_flush(self):
        clock = FakeClock()
        batcher = Batcher(AdmissionPolicy(max_batch_keys=1000,
                                          max_delay_ms=2.0), clock=clock)
        batcher.add(request(1, deadline=Deadline(1.0, clock=clock)))
        assert batcher.deadline() == pytest.approx(clock.now + 0.002)

    def test_more_urgent_waiter_pulls_again_never_later(self):
        clock = FakeClock()
        batcher = Batcher(AdmissionPolicy(max_batch_keys=1000,
                                          max_delay_ms=20.0), clock=clock)
        batcher.add(request(1, deadline=Deadline(0.010, clock=clock)))
        first = batcher.deadline()
        batcher.add(request(1, deadline=Deadline(0.002, clock=clock)))
        second = batcher.deadline()
        assert second < first
        assert second == pytest.approx(clock.now + 0.001)
        # a laggard with a roomy budget never moves the flush back
        batcher.add(request(1, deadline=Deadline(0.500, clock=clock)))
        assert batcher.deadline() == second


class TestSizeTrigger:
    def test_reaching_max_batch_keys_flushes_early(self):
        clock = FakeClock()
        batcher = Batcher(AdmissionPolicy(max_batch_keys=10,
                                          max_delay_ms=1000.0), clock=clock)
        assert batcher.add(request(4)) is None
        assert batcher.add(request(5)) is None
        assert batcher.add(request(1)) == "size"  # 10 keys: flush now
        assert batcher.pending_keys == 10
        assert len(batcher.take()) == 3

    def test_single_oversized_request_flushes_immediately(self):
        batcher = Batcher(AdmissionPolicy(max_batch_keys=8), clock=FakeClock())
        assert batcher.add(request(64)) == "size"

    def test_queue_bound_rejects_without_dropping_queued(self):
        batcher = Batcher(AdmissionPolicy(max_batch_keys=1000,
                                          max_queue_requests=2),
                          clock=FakeClock())
        batcher.add(request(1))
        batcher.add(request(1))
        with pytest.raises(QueueFullError):
            batcher.add(request(1))
        assert len(batcher) == 2  # the queued pair is untouched


def serve_round(batcher, clock, n_callers):
    """One closed-loop cycle: ``n_callers`` requests arrive 0.1 ms
    apart, a batch flushes when a trigger fires or the window runs out,
    and everything in flight is answered before the next cycle.
    Returns ``(trigger, batch size)`` per flush."""
    flushes = []

    def flush(trigger):
        batch = batcher.take()
        flushes.append((trigger, len(batch)))
        return len(batch)

    inflight = 0
    for _ in range(n_callers):
        clock.advance(0.0001)
        trigger = batcher.add(request(1))
        if trigger is not None:
            inflight += flush(trigger)
    if len(batcher):
        clock.now = batcher.deadline()
        assert batcher.due()
        inflight += flush("delay")
    batcher.settle(inflight)
    return flushes


class TestArrivalTrigger:
    """The learned window: flush when every expected caller is queued."""

    def make(self, **knobs):
        clock = FakeClock()
        policy = AdmissionPolicy(**{"max_batch_keys": 1000,
                                    "max_delay_ms": 2.0, **knobs})
        return Batcher(policy, clock=clock), clock

    def test_unknown_until_the_first_flush(self):
        batcher, _ = self.make()
        assert batcher.expected_requests is None
        assert batcher.add(request(1)) is None  # full window, as before
        batcher.take()
        assert batcher.expected_requests == 1

    def test_lone_caller_stops_paying_the_window(self):
        batcher, clock = self.make()
        rounds = [serve_round(batcher, clock, 1) for _ in range(20)]
        windows = sum(flushes == [("delay", 1)] for flushes in rounds)
        assert 1 <= windows <= OCCUPANCY_HISTORY
        assert rounds[-1] == [("arrival", 1)]
        assert batcher.add(request(1)) == "arrival"  # flushes on admission

    def test_closed_loop_callers_converge_to_one_batch_per_cycle(self):
        batcher, clock = self.make()
        assert serve_round(batcher, clock, 16) == [("delay", 16)]
        for _ in range(10):
            opened = clock.now
            assert serve_round(batcher, clock, 16) == [("arrival", 16)]
            # ... on the 16th arrival, well before the 2 ms window ends.
            assert clock.now - opened < 0.002
        assert batcher.expected_requests == 16

    def test_ramp_up_queues_behind_the_inflight_batch(self):
        batcher, clock = self.make()
        for _ in range(OCCUPANCY_HISTORY):
            serve_round(batcher, clock, 1)
        assert batcher.add(request(1)) == "arrival"
        assert len(batcher.take()) == 1  # the lone caller, now in flight
        # Newcomers arrive while it executes.  Against the stale
        # expectation of 1 each would flush alone; the occupancy seen at
        # admission raises it instead, so they wait for each other.
        for queued in (1, 2, 3):
            clock.advance(0.0001)
            assert batcher.add(request(1)) is None
            assert len(batcher) == queued
            assert batcher.expected_requests == queued + 1
        batcher.settle(1)
        # The first caller comes back: everyone expected is here.
        assert batcher.add(request(1)) == "arrival"
        assert len(batcher.take()) == 4

    def test_ramp_up_flushes_all_queued_when_the_window_runs_out(self):
        batcher, clock = self.make()
        serve_round(batcher, clock, 1)
        batcher.add(request(1))
        batcher.take()
        for _ in range(3):
            assert batcher.add(request(1)) is None
        clock.now = batcher.deadline()
        assert batcher.due()
        assert len(batcher.take()) == 3

    def test_one_small_batch_does_not_shrink_the_expectation(self):
        batcher, clock = self.make()
        for _ in range(3):
            serve_round(batcher, clock, 8)
        assert serve_round(batcher, clock, 5) == [("delay", 5)]
        assert batcher.expected_requests == 8
        assert serve_round(batcher, clock, 8) == [("arrival", 8)]

    def test_callers_leaving_costs_a_bounded_number_of_windows(self):
        batcher, clock = self.make()
        for _ in range(OCCUPANCY_HISTORY + 1):
            serve_round(batcher, clock, 8)
        windows = 0
        while serve_round(batcher, clock, 1) == [("delay", 1)]:
            windows += 1
            assert windows <= OCCUPANCY_HISTORY
        assert windows == OCCUPANCY_HISTORY
        assert batcher.expected_requests == 1

    def test_urgent_deadline_still_pulls_the_flush_earlier(self):
        batcher, clock = self.make(max_delay_ms=20.0)
        serve_round(batcher, clock, 4)
        assert batcher.expected_requests == 4
        assert batcher.add(
            request(1, deadline=Deadline(0.004, clock=clock))) is None
        assert batcher.deadline() == pytest.approx(clock.now + 0.002)

    def test_size_trigger_wins_and_leftovers_still_flush(self):
        batcher, clock = self.make(max_batch_keys=10)
        serve_round(batcher, clock, 2)
        # Two tenants overfill one batch: the deficit-round-robin drain
        # leaves requests queued, and repeated takes (what ``drain()``
        # does) still flush every one of them.
        batcher.add(request(6, tenant="a"))
        assert batcher.add(request(6, tenant="b")) == "size"
        assert batcher.add(request(6, tenant="a")) == "size"
        taken = []
        while len(batcher):
            batch = batcher.take()
            assert batch
            taken += batch
            if len(batcher):
                assert batcher.deadline() is not None  # timer re-arms
        assert len(taken) == 3
        assert batcher.deadline() is None

    def test_zero_delay_still_flushes_at_once(self):
        batcher, clock = self.make(max_delay_ms=0.0)
        batcher.add(request(1))
        assert batcher.deadline() == clock.now
        assert batcher.due()
        # ... and stays that way once the expectation overshoots.
        serve_round(batcher, clock, 4)
        batcher.add(request(1))
        assert batcher.due()


class TestIdleContract:
    def test_idle_batcher_has_no_deadline(self):
        batcher = Batcher(AdmissionPolicy(), clock=FakeClock())
        assert batcher.deadline() is None
        assert not batcher.due()

    def test_idle_server_schedules_zero_wakeups(self, sharded_store):
        """An idle server must not poll: no timer armed, no wakeups."""
        with repro.serving(sharded_store,
                           policy=AdmissionPolicy(max_delay_ms=1.0)) as client:
            server = client.server
            time.sleep(0.2)  # plenty of 1 ms windows to wake up in, if polling
            assert server.stats.timer_wakeups == 0
            assert not server.timer_armed
            assert server.idle
            # One small request arms exactly one timer, which fires once.
            client.lookup({"sku": np.array([3], dtype=np.int64)})
            assert server.stats.timer_wakeups <= 1
            time.sleep(0.05)
            assert server.stats.timer_wakeups <= 1  # no residual polling
            assert not server.timer_armed

    def test_size_triggered_flush_needs_no_wakeup(self, sharded_store):
        """A full batch flushes inline — the armed timer is cancelled."""
        policy = AdmissionPolicy(max_batch_keys=4, max_delay_ms=60_000.0)
        with repro.serving(sharded_store, policy=policy) as client:
            client.lookup({"sku": np.arange(4, dtype=np.int64) * 3})
            assert client.stats.batches_formed == 1
            assert client.stats.timer_wakeups == 0
            assert not client.server.timer_armed

    def test_sequential_caller_stops_waking_the_timer(self, sharded_store):
        """A lone caller pays the window until the tier has learned it
        is alone; after that its requests flush on admission."""
        with repro.serving(sharded_store) as client:
            for start in range(50):
                client.lookup({"sku": np.array([start * 3], dtype=np.int64)})
            snapshot = client.stats.snapshot()
            assert snapshot["timer_wakeups"] <= OCCUPANCY_HISTORY
            assert snapshot["flushes"]["delay"] == snapshot["timer_wakeups"]
            assert snapshot["flushes"]["arrival"] \
                == 50 - snapshot["timer_wakeups"]
            assert client.health()["expected_requests"] == 1
            assert not client.server.timer_armed

    @pytest.mark.parametrize("n_callers", [1, 4])
    def test_asyncio_callers_that_re_admit_at_once_flush_on_arrival(
            self, sharded_store, n_callers):
        """Callers looping on ``await server.lookup`` re-admit in the
        same loop iteration their answer lands in: their finished batch
        must already be settled, or every round waits out the window."""
        rounds = 20

        async def caller(server, first):
            for i in range(rounds):
                await server.lookup(
                    {"sku": np.array([(first + i) * 3], dtype=np.int64)})

        async def scenario():
            server = LookupServer(sharded_store)
            await asyncio.gather(*(caller(server, 100 * c)
                                   for c in range(n_callers)))
            return server.stats.snapshot(), server.health

        snapshot, health = asyncio.run(scenario())
        assert snapshot["flushes"]["delay"] <= OCCUPANCY_HISTORY
        assert snapshot["flushes"]["arrival"] \
            >= rounds - OCCUPANCY_HISTORY
        assert health["expected_requests"] == n_callers
