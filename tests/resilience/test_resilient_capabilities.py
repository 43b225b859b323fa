"""ResilientBackend's capability surface: retried vs forwarded attrs.

The remote read path reaches the wrapped backend through *capabilities*
(``read_view`` / ``read_range`` / ``blob_version`` / ``size`` sniffed
with ``getattr``), not just the core ``read_bytes``.  Each of those must
be retried under the policy and breaker exactly like a core read, while
non-I/O capabilities (``url`` / ``scheme`` / ``remote`` / ``stats`` /
``bind_stats`` / ``bind_hedger``) forward verbatim so capability
sniffing sees the same surface as the inner backend.
"""

import pytest

from repro.resilience import (BACKEND_READ_RETRY, ResilientBackend,
                              RetryPolicy, StoreNotFoundError)
from repro.resilience.hedging import HedgeController
from repro.storage import StoreStats

FAST = RetryPolicy(attempts=3, base_delay=0.0, max_delay=0.0,
                   retry_on=BACKEND_READ_RETRY.retry_on,
                   give_up_on=BACKEND_READ_RETRY.give_up_on)


class CapabilityBackend:
    """Inner double exposing the full remote capability surface, with a
    scriptable count of transient failures per capability."""

    scheme = "fake"
    remote = True
    writable = False
    url = "fake://unit"

    def __init__(self):
        self.blobs = {"blob": b"0123456789abcdef"}
        self.calls = []
        self._failures = {}
        self.stats = StoreStats()

    def fail_next(self, capability, n=1):
        self._failures[capability] = n

    def _maybe_fail(self, capability):
        self.calls.append(capability)
        left = self._failures.get(capability, 0)
        if left > 0:
            self._failures[capability] = left - 1
            raise ConnectionError(f"transient {capability} fault")

    def _lookup(self, name):
        if name not in self.blobs:
            raise StoreNotFoundError(name)
        return self.blobs[name]

    def read_bytes(self, name):
        self._maybe_fail("read_bytes")
        return self._lookup(name)

    def read_view(self, name):
        self._maybe_fail("read_view")
        return memoryview(self._lookup(name))

    def read_range(self, name, start, length):
        self._maybe_fail("read_range")
        return self._lookup(name)[start:start + length]

    def blob_version(self, name):
        self._maybe_fail("blob_version")
        return ("etag", len(self._lookup(name)))

    def size(self, name):
        self._maybe_fail("size")
        return len(self._lookup(name))

    def exists(self, name):
        self._maybe_fail("exists")
        return name in self.blobs

    def bind_stats(self, stats):
        self.stats = stats

    def bind_hedger(self, hedger):
        self.hedger = hedger


@pytest.fixture
def inner():
    return CapabilityBackend()


@pytest.fixture
def backend(inner):
    return ResilientBackend(inner, policy=FAST)


class TestRetriedCapabilities:
    @pytest.mark.parametrize("capability,call,expected", [
        ("read_view", lambda b: bytes(b.read_view("blob")),
         b"0123456789abcdef"),
        ("read_range", lambda b: b.read_range("blob", 4, 4), b"4567"),
        ("blob_version", lambda b: b.blob_version("blob"), ("etag", 16)),
        ("size", lambda b: b.size("blob"), 16),
    ])
    def test_capability_recovers_from_transient_faults(
            self, inner, backend, capability, call, expected):
        inner.fail_next(capability, 2)
        assert call(backend) == expected
        assert inner.calls.count(capability) == 3  # 2 faults + success

    @pytest.mark.parametrize("capability,call", [
        ("read_view", lambda b: b.read_view("missing")),
        ("read_range", lambda b: b.read_range("missing", 0, 4)),
        ("blob_version", lambda b: b.blob_version("missing")),
        ("size", lambda b: b.size("missing")),
    ])
    def test_absent_blob_gives_up_immediately(self, inner, backend,
                                              capability, call):
        with pytest.raises(StoreNotFoundError):
            call(backend)
        assert inner.calls.count(capability) == 1
        assert backend.breaker.state == "closed"

    def test_exhausted_retries_raise_the_transient_error(self, inner,
                                                         backend):
        inner.fail_next("read_range", 99)
        with pytest.raises(ConnectionError):
            backend.read_range("blob", 0, 4)
        assert inner.calls.count("read_range") == FAST.attempts


class TestForwardedCapabilities:
    def test_identity_attributes_forward_verbatim(self, inner, backend):
        assert backend.url == "fake://unit"
        assert backend.scheme == "fake"
        assert backend.remote is True
        assert backend.writable is False
        assert backend.stats is inner.stats

    def test_bind_stats_reaches_the_inner_backend(self, inner, backend):
        sink = StoreStats()
        backend.bind_stats(sink)
        assert inner.stats is sink

    def test_bind_hedger_reaches_the_inner_backend(self, inner, backend):
        hedger = HedgeController()
        backend.bind_hedger(hedger)
        assert inner.hedger is hedger

    def test_absent_capability_stays_absent(self, backend):
        # Capability sniffing must see the same surface as the inner
        # backend: nothing invents attributes the inner lacks.
        with pytest.raises(AttributeError):
            backend.batch
