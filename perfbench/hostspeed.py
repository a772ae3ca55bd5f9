"""Run a Python command while sampling the host's speed from inside it.

Usage (what ``perfbench/run.py`` launches in place of ``python ARGS``)::

    python perfbench/hostspeed.py SAMPLES_FILE -m repro.cli sweep ...
    python perfbench/hostspeed.py SAMPLES_FILE -c "import repro.cli"

Every :data:`INTERVAL_S` of CPU time (``ITIMER_PROF``) the process times
one run of :func:`kernel`, a fixed piece of interpreter work, and appends
the seconds it took to ``SAMPLES_FILE`` as a native double.  Forked
children (the sweep's workers) restart the timer and append to the same
file, so the samples follow the work wherever it runs.  The kernel is the
same in every version of the program, so its time moves mostly with the
speed the shared host gives the process at that moment; ``run.py``
divides a launch's wall time by the median sample.  It also moves with
the cache state the program leaves behind -- its median differs by up to
20 % between workloads -- so a scaled time is compared only with the same
metric on the same workload.

The samples cost about 0.5 % of the CPU time and touch none of the
program's state; system calls the signal lands in are restarted.
"""

from __future__ import annotations

import atexit
import os
import runpy
import signal
import struct
import sys
import time

#: CPU seconds between two samples.
INTERVAL_S = 0.025
KERNEL_ITERATIONS = 1500
WARM_UP_RUNS = 20


def kernel() -> int:
    total = 0
    for i in range(KERNEL_ITERATIONS):
        total += (i * i) % 7
    return total


def _start(fd: int) -> None:
    def sample(signum, frame) -> None:
        start = time.perf_counter()
        kernel()
        os.write(fd, struct.pack("d", time.perf_counter() - start))

    signal.signal(signal.SIGPROF, sample)
    signal.siginterrupt(signal.SIGPROF, False)
    signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)


def read_samples(path: str) -> list:
    """The samples a launch appended to ``path``, in seconds."""
    with open(path, "rb") as handle:
        data = handle.read()
    return [value for (value,) in struct.iter_unpack("d", data[: len(data) // 8 * 8])]


def main(argv: list) -> None:
    if len(argv) < 3 or argv[1] not in ("-m", "-c"):
        sys.exit("usage: hostspeed.py SAMPLES_FILE (-m MODULE | -c CODE) [ARG ...]")
    fd = os.open(argv[0], os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    os.register_at_fork(after_in_child=lambda: _start(fd))
    # Interpreter shutdown resets the handler; SIGPROF's default kills.
    atexit.register(signal.setitimer, signal.ITIMER_PROF, 0, 0)
    for _ in range(WARM_UP_RUNS):  # past the interpreter's specialisation
        kernel()
    _start(fd)
    if argv[1] == "-m":
        sys.argv = [argv[2], *argv[3:]]
        sys.path[0] = os.getcwd()  # as ``python -m`` has it
        runpy.run_module(argv[2], run_name="__main__", alter_sys=True)
    else:
        sys.argv = ["-c", *argv[3:]]
        sys.path[0] = ""
        exec(compile(argv[2], "<string>", "exec"), {"__name__": "__main__"})


if __name__ == "__main__":
    main(sys.argv[1:])
