"""Shared fixtures for the test suite."""

import importlib.util
import tempfile

import numpy as np
import pytest

#: Per-test wall-clock budget (seconds).  Concurrency tests that
#: deadlock would otherwise hang the whole suite; a minute is far above
#: any legitimate test here.
TEST_TIMEOUT_SECONDS = 60

_HAVE_PYTEST_TIMEOUT = importlib.util.find_spec("pytest_timeout") is not None


def pytest_configure(config):
    if _HAVE_PYTEST_TIMEOUT and config.getoption("timeout", None) is None:
        config.option.timeout = TEST_TIMEOUT_SECONDS


if not _HAVE_PYTEST_TIMEOUT:
    # Fallback guard for environments without the pytest-timeout plugin
    # (it is a dev extra, see pyproject.toml): dump every thread's stack
    # and abort the process if a single test exceeds the budget.  Less
    # graceful than the plugin — a hung test kills the run instead of
    # failing alone — but a deadlock never goes unnoticed either way.
    import faulthandler

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_protocol(item, nextitem):
        faulthandler.dump_traceback_later(TEST_TIMEOUT_SECONDS, exit=True)
        try:
            yield
        finally:
            faulthandler.cancel_dump_traceback_later()


@pytest.fixture
def rng():
    """Deterministic numpy Generator for tests."""
    return np.random.default_rng(20240610)


@pytest.fixture
def tmp_store_dir(tmp_path):
    """Directory for disk-store artifacts, unique per test."""
    path = tmp_path / "store"
    path.mkdir()
    return str(path)


@pytest.fixture
def temp_root(tmp_path, monkeypatch):
    """Point ``tempfile`` at an empty directory the test can inspect:
    whatever the code under test leaves in the temp dir shows up here."""
    root = tmp_path / "tmp"
    root.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(root))
    return root
