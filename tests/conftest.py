"""Shared pytest fixtures, and a check that no test leaves a process behind."""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from child_processes import live_children

#: How long the session-finish check waits for children to exit, seconds.
LEFTOVER_WAIT_S = 2.0


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "slow: full-PHY-heavy or otherwise expensive tests, deselected by "
        "`make test-fast` (pytest -m 'not slow')",
    )


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator for reproducible tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def rng_factory():
    """Factory for generators with distinct but deterministic seeds."""

    def make(seed: int) -> np.random.Generator:
        return np.random.default_rng(seed)

    return make


def pytest_sessionfinish(session, exitstatus):
    """Fail the run if a child of the pytest process outlives the session.

    A leftover child can hold the run's output pipe open long after
    pytest reports its result.  Children get :data:`LEFTOVER_WAIT_S` to
    exit; each one still alive is named by its command line.  Skipped
    where ``/proc`` is absent.
    """
    if not os.path.isdir("/proc/self/task"):
        return
    deadline = time.monotonic() + LEFTOVER_WAIT_S
    leftovers = live_children(os.getpid())
    while leftovers and time.monotonic() < deadline:
        time.sleep(0.05)
        leftovers = live_children(os.getpid())
    if not leftovers:
        return
    reporter = session.config.pluginmanager.get_plugin("terminalreporter")
    if reporter is not None:
        reporter.ensure_newline()
        reporter.write_sep("=", "child processes left running", red=True)
        for pid, command in sorted(leftovers.items()):
            reporter.write_line(f"pid {pid}: {command}")
    session.exitstatus = pytest.ExitCode.TESTS_FAILED
