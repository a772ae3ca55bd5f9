"""The session-finish check of ``tests/conftest.py`` sees live children."""

import os
import subprocess
import sys

import pytest

from child_processes import live_children

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="needs /proc"
)


def test_a_live_child_is_named_by_its_command_line():
    child = subprocess.Popen(
        [sys.executable, "-c", "import time; time.sleep(30)"], stdin=subprocess.DEVNULL
    )
    try:
        command = live_children(os.getpid()).get(child.pid)
        assert command is not None and "time.sleep(30)" in command
    finally:
        child.kill()
        child.wait()
    assert child.pid not in live_children(os.getpid())


def test_a_zombie_is_not_live():
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    try:
        os.waitid(os.P_PID, child.pid, os.WEXITED | os.WNOWAIT)
        assert child.pid not in live_children(os.getpid())
    finally:
        child.wait()
