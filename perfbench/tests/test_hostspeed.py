"""Tests of the in-process host-speed sampler (``perfbench/hostspeed.py``)."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(PERFBENCH))

import hostspeed  # noqa: E402

#: Each process spins 0.2 s of CPU, forks once and exits with code 3.
SPIN_AND_FORK = """
import os, time
def spin():
    end = time.process_time() + 0.2
    while time.process_time() < end:
        pass
pid = os.fork()
spin()
if pid == 0:
    os._exit(0)
os.waitpid(pid, 0)
raise SystemExit(3)
"""


def test_samples_parent_and_forked_children_and_keeps_exit_code(tmp_path):
    samples = tmp_path / "samples.bin"
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "hostspeed.py"), str(samples), "-c", SPIN_AND_FORK],
        timeout=60,
    )
    assert proc.returncode == 3
    values = hostspeed.read_samples(samples)
    # 0.4 s of CPU over two processes at one sample per 25 ms; the parent
    # alone would give about 8.
    assert len(values) > 10
    assert all(0.0 < value < 0.1 for value in values)


def test_module_runs_as_main_with_its_arguments(tmp_path):
    samples = tmp_path / "samples.bin"
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "hostspeed.py"), str(samples), "-m", "json.tool",
         "--sort-keys"],
        input='{"b": 1, "a": 2}', capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.index('"a"') < proc.stdout.index('"b"')
