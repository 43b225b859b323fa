"""The one fan-out wait, driven by hand.

``read_path.fan_out`` is exercised against a scripted strategy whose
futures the test completes itself, a fake clock, and a patched
``futures_wait`` that plays one script step per wake-up — so completion
order, hedge timing and deadline expiry are exact, with no sleeps and no
threads.
"""

from concurrent.futures import ALL_COMPLETED, FIRST_COMPLETED, Future
from concurrent.futures import wait as real_wait

import pytest

from repro.resilience import Deadline, DeadlineExceeded
from repro.resilience.hedging import HedgeController, HedgePolicy
from repro.shard import read_path
from repro.storage.stats import StoreStats


class Stall(BaseException):
    """Raised by a scripted job to leave its worker wedged mid-unit."""


class ScriptedStrategy:
    """A fan-out lane that runs nothing until the test says so."""

    name = "scripted"

    def __init__(self):
        self.submitted = []  # (future, fn, args), in submission order

    def submit_job(self, fn, *args, deadline=None):
        future = Future()
        self.submitted.append((future, fn, args))
        return future

    def run(self, index):
        """Run submission ``index`` to completion (or until it stalls)."""
        future, fn, args = self.submitted[index]
        assert future.set_running_or_notify_cancel()
        try:
            future.set_result(fn(*args))
        except Stall:
            pass  # still RUNNING: a straggler
        except BaseException as exc:
            future.set_exception(exc)

    def fail(self, index, exc):
        """Fail submission ``index`` as a whole (the dequeue gate)."""
        self.submitted[index][0].set_exception(exc)


class Harness:
    """Fake clock + scripted wake-ups around one ``fan_out`` call."""

    def __init__(self, monkeypatch):
        self.now = 0.0
        self.strategy = ScriptedStrategy()
        self.stats = StoreStats()
        self.steps = []   # one callable per futures_wait call
        self.waits = []   # (timeout, return_when) per futures_wait call
        self.ran = []     # ordinals, in execution order
        self.failures = {}  # ordinal -> list of outcomes per attempt
        monkeypatch.setattr(read_path, "monotonic", lambda: self.now)
        monkeypatch.setattr(read_path, "futures_wait", self._wait)

    def _wait(self, pending, timeout=None, return_when=ALL_COMPLETED):
        self.waits.append((timeout, return_when))
        assert self.steps, "the wait slept with nothing left to wake it"
        self.steps.pop(0)()
        return real_wait(pending, timeout=0, return_when=return_when)

    def deadline(self, budget_s):
        return Deadline(budget_s, clock=lambda: self.now)

    def run_job(self, job):
        ordinal = job[0]
        self.ran.append(ordinal)
        script = self.failures.get(ordinal)
        outcome = script.pop(0) if script else None
        if outcome is not None:
            raise outcome

    def fan_out(self, n_jobs, **kwargs):
        jobs = [(ordinal, None, None, None) for ordinal in range(n_jobs)]
        return read_path.fan_out(jobs, self.run_job, self.strategy,
                                 self.stats, **kwargs)

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def harness(monkeypatch):
    return Harness(monkeypatch)


def warm_hedger(estimate_s=0.010, **policy):
    """A controller that hedges at 4x ``estimate_s`` (no floor)."""
    hedger = HedgeController(HedgePolicy(delay_factor=4.0, min_delay_ms=0.0,
                                         **policy))
    hedger.record(estimate_s)
    return hedger


BIG = read_path._SERIAL_DISPATCH_MAX + 1


class TestDispatchRule:
    def test_small_unbounded_dispatch_runs_inline(self, harness):
        errors, stragglers = harness.fan_out(3, n_keys=30)
        assert (errors, stragglers) == ({}, False)
        assert harness.ran == [0, 1, 2]
        assert harness.strategy.submitted == []

    def test_inline_lane_collects_errors_per_job(self, harness):
        boom = RuntimeError("shard 1")
        harness.failures[1] = [boom]
        errors, _ = harness.fan_out(3, n_keys=30)
        assert errors == {1: boom}
        assert harness.ran == [0, 1, 2]

    def test_single_big_job_without_deadline_runs_inline(self, harness):
        harness.fan_out(1, n_keys=BIG)
        assert harness.strategy.submitted == []

    def test_small_deadline_dispatch_is_one_hand_off(self, harness):
        harness.steps = [lambda: harness.strategy.run(0)]
        errors, stragglers = harness.fan_out(
            3, n_keys=30, deadline=harness.deadline(1.0))
        assert (errors, stragglers) == ({}, False)
        assert len(harness.strategy.submitted) == 1
        assert harness.ran == [0, 1, 2]

    @pytest.mark.parametrize("n_keys", [30, BIG])
    def test_single_job_with_deadline_takes_the_executor_lane(
            self, harness, n_keys):
        harness.steps = [lambda: harness.strategy.run(0)]
        harness.fan_out(1, n_keys=n_keys, deadline=harness.deadline(1.0))
        assert len(harness.strategy.submitted) == 1

    def test_single_job_with_hedger_takes_the_executor_lane(self, harness):
        harness.steps = [lambda: harness.strategy.run(0)]
        harness.fan_out(1, n_keys=30, hedger=warm_hedger())
        assert len(harness.strategy.submitted) == 1


class TestCompletion:
    def test_plain_fan_out_is_a_single_blocking_wait(self, harness):
        def finish_out_of_order():
            for index in (2, 0, 1):
                harness.strategy.run(index)
        harness.steps = [finish_out_of_order]
        errors, stragglers = harness.fan_out(3, n_keys=BIG)
        assert (errors, stragglers) == ({}, False)
        assert harness.ran == [2, 0, 1]
        assert harness.waits == [(None, ALL_COMPLETED)]

    def test_hedged_fan_out_wakes_per_completion_in_any_order(self, harness):
        hedger = warm_hedger(estimate_s=10.0)  # far too slow to ever fire
        recorded = []
        hedger.record = recorded.append
        harness.steps = [
            lambda: (harness.advance(0.003), harness.strategy.run(2)),
            lambda: (harness.advance(0.001), harness.strategy.run(0)),
            lambda: (harness.advance(0.002), harness.strategy.run(1)),
        ]
        errors, stragglers = harness.fan_out(3, n_keys=BIG, hedger=hedger)
        assert (errors, stragglers) == ({}, False)
        assert [when for _, when in harness.waits] == [FIRST_COMPLETED] * 3
        assert recorded == pytest.approx([0.003, 0.004, 0.006])
        assert harness.stats.counters.get("hedges_launched", 0) == 0

    def test_job_errors_and_gate_failures_are_kept_apart(self, harness):
        boom = TimeoutError("socket read timed out")  # the 3.11 alias trap
        gate = DeadlineExceeded("queued job exceeded its deadline")
        harness.failures[0] = [boom]
        harness.steps = [lambda: (harness.strategy.run(0),
                                  harness.strategy.fail(1, gate),
                                  harness.strategy.run(2))]
        errors, stragglers = harness.fan_out(
            3, n_keys=BIG, deadline=harness.deadline(1.0))
        assert errors == {0: boom, 1: gate}
        assert not stragglers


class TestHedging:
    def test_hedge_fires_only_past_the_delay_and_within_budget(self, harness):
        def finish_everything():
            for index in range(len(harness.strategy.submitted)):
                harness.strategy.run(index)
        harness.steps = [
            lambda: harness.advance(0.039),   # woke just short of the delay
            lambda: harness.advance(0.002),   # now past it
            finish_everything,
        ]
        hedger = warm_hedger(max_fraction=0.25)   # 4 jobs -> 1 backup
        errors, stragglers = harness.fan_out(4, n_keys=BIG, hedger=hedger)
        assert (errors, stragglers) == ({}, False)
        timeouts = [timeout for timeout, _ in harness.waits]
        # Sleep until the first fire; then the remainder; then, with the
        # budget spent, until the next completion.
        assert timeouts == [pytest.approx(0.040), pytest.approx(0.001), None]
        assert len(harness.strategy.submitted) == 5
        assert harness.stats.counters["hedges_launched"] == 1
        # The backup re-ran the lowest straggling ordinal.
        assert harness.ran.count(0) == 2

    def test_job_fails_only_when_every_attempt_failed(self, harness):
        first, second = RuntimeError("attempt 1"), RuntimeError("attempt 2")
        harness.failures[0] = [first, second]   # both attempts fail
        harness.failures[1] = [RuntimeError("transient")]  # backup is clean
        hedger = warm_hedger(max_fraction=1.0)
        harness.steps = [
            lambda: harness.advance(0.05),      # both units earn a backup
            lambda: (harness.strategy.run(0), harness.strategy.run(1)),
            lambda: harness.strategy.run(2),    # unit 0's backup: fails too
            lambda: harness.strategy.run(3),    # unit 1's backup: clean
        ]
        errors, stragglers = harness.fan_out(2, n_keys=BIG, hedger=hedger)
        assert errors == {0: first}
        assert not stragglers
        assert harness.stats.counters["hedges_launched"] == 2
        assert harness.stats.counters["hedges_won"] == 1

    def test_single_failed_attempt_settles_without_a_hedge(self, harness):
        boom = RuntimeError("down")
        harness.failures[0] = [boom]
        harness.steps = [lambda: harness.strategy.run(0),
                         lambda: harness.strategy.run(1)]
        errors, _ = harness.fan_out(2, n_keys=BIG, hedger=warm_hedger())
        assert errors == {0: boom}
        assert len(harness.strategy.submitted) == 2


class TestDeadlineExpiry:
    def test_bundle_expiry_marks_only_unfinished_jobs(self, harness):
        boom = RuntimeError("shard 0 failed before the stall")
        harness.failures[0] = [boom]
        harness.failures[2] = [Stall()]
        harness.steps = [lambda: (harness.strategy.run(0),
                                  harness.advance(0.2))]
        errors, stragglers = harness.fan_out(
            4, n_keys=40, deadline=harness.deadline(0.1))
        assert harness.ran == [0, 1, 2]       # job 3 never started
        assert errors[0] is boom              # finished: its own error
        assert 1 not in errors                # finished clean
        assert isinstance(errors[2], DeadlineExceeded)
        assert isinstance(errors[3], DeadlineExceeded)
        assert stragglers                     # the bundle is still running

    def test_queued_units_past_the_deadline_are_cancelled(self, harness):
        harness.steps = [lambda: (harness.strategy.run(1),
                                  harness.advance(0.2))]
        errors, stragglers = harness.fan_out(
            3, n_keys=BIG, deadline=harness.deadline(0.1))
        assert sorted(errors) == [0, 2]
        assert all(isinstance(exc, DeadlineExceeded)
                   for exc in errors.values())
        assert not stragglers                 # nothing left that can write
        assert harness.ran == [1]
        assert all(future.done()
                   for future, _, _ in harness.strategy.submitted)

    def test_wait_never_sleeps_past_the_budget(self, harness):
        harness.steps = [lambda: harness.advance(0.5)]
        harness.fan_out(2, n_keys=BIG, deadline=harness.deadline(0.25))
        assert harness.waits == [(pytest.approx(0.25), ALL_COMPLETED)]
