"""Worker supervision for the parallel sweep path.

``multiprocessing.Pool`` computes, but it does not *supervise*: a worker
that is OOM-killed leaves its ``apply_async`` handle hanging forever, a
hung worker is indistinguishable from a slow cell, and there is no
policy for a machine that keeps killing workers.  This module replaces
the pool with a :class:`WorkerSupervisor` that owns one
:class:`multiprocessing.Process` per worker, talks to each over its own
pipe, and watches three ways of losing a worker:

* **silent death** (OOM killer, external SIGKILL): the process is gone
  while a task is assigned.
* **hang** (deadlock, SIGSTOP, a wedged C extension): the process is
  alive but its *heartbeat* -- a timestamp a daemon thread inside the
  worker refreshes every ``heartbeat_interval_s`` -- has gone stale for
  ``hang_timeout_s``.  A genuinely slow cell keeps heartbeating, so
  slow and hung are told apart instead of sharing one timeout.
* **slow cell** (``task_timeout_s``): heartbeats are fresh but the task
  exceeded its deadline, and the supervisor kills the worker itself.

One failure rule covers all three: a lost worker is replaced and its
task re-queued (it is a pure function of its seeds, so a replay is
byte-identical), at most ``max_requeues`` times before the task fails.
A task whose ``worker_fn`` *raises* fails at once: replaying a pure
function replays its exception.

Graceful degradation: every unexpected death (killed or hung -- not
deliberate timeout kills) is counted, and each ``shrink_after_deaths``
of them permanently shrinks the target pool by one worker (never below
one).  A machine whose memory ceiling keeps OOM-killing an 8-worker
sweep therefore converges to the parallelism it can actually sustain
instead of failing the sweep.

The supervisor is deliberately generic -- ``worker_fn(payload) ->
result`` with opaque payloads -- so it is testable without simulating
anything; :mod:`repro.sim.sweep` feeds it run-level simulation tasks.
Progress is reported as a stream of event objects from :meth:`events`,
which is how the sweep layer mirrors assignments and completions into
the results store's cell state machine.

:func:`in_process_events` is the one-worker twin: it runs the tasks in
the calling process and yields the same event stream, so the sweep
consumes one stream whatever the worker count.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _connection_wait
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional, Sequence

__all__ = [
    "WorkerSupervisor",
    "TaskAssigned",
    "TaskDone",
    "TaskRequeued",
    "TaskFailed",
    "WorkerDeath",
    "PoolShrunk",
    "in_process_events",
]


# -- events ------------------------------------------------------------------


@dataclass(frozen=True)
class TaskAssigned:
    """A task was shipped to a worker (mirror the cell to ``running``)."""

    task_id: int


@dataclass(frozen=True)
class TaskDone:
    """A task completed; ``result`` is ``worker_fn``'s return value."""

    task_id: int
    result: Any


@dataclass(frozen=True)
class TaskRequeued:
    """The task's worker was lost; the task goes back on the queue."""

    task_id: int
    requeues: int
    reason: str


@dataclass(frozen=True)
class TaskFailed:
    """The task raised, or outlived its re-queues; its cells are failed.

    ``traceback`` is the worker-side traceback of the exception; ``None``
    when the task was lost to worker deaths or timeouts.
    """

    task_id: int
    error: str
    traceback: Optional[str] = None


@dataclass(frozen=True)
class WorkerDeath:
    """A worker left the pool abnormally (killed, hung, or timeout-killed)."""

    reason: str
    task_id: Optional[int]
    deliberate: bool  # True for our own timeout kills


@dataclass(frozen=True)
class PoolShrunk:
    """Graceful degradation reduced the target pool size."""

    target: int


# -- in-process executor -----------------------------------------------------


def in_process_events(
    worker_fn: Callable[[Any], Any], payloads: Sequence[Any]
) -> Iterator[object]:
    """Run ``payloads`` one by one in this process, yielding task events.

    The events of :class:`WorkerSupervisor` without a worker to lose: a
    raised :class:`Exception` yields :class:`TaskFailed` with its
    traceback.  Only ``Exception`` is caught, so a ``KeyboardInterrupt``
    unwinds straight to the caller.
    """
    for task_id, payload in enumerate(payloads):
        yield TaskAssigned(task_id)
        try:
            result = worker_fn(payload)
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
            yield TaskFailed(task_id, error, traceback.format_exc())
        else:
            yield TaskDone(task_id, result)


# -- worker process ----------------------------------------------------------


def _worker_main(conn, heartbeat, worker_fn) -> None:
    """Worker process body: heartbeat thread + recv/compute/send loop.

    SIGINT is ignored so a Ctrl-C to the sweep's process group interrupts
    only the parent, which then shuts workers down deliberately (after
    checkpointing).  Every exception -- including worker-side
    KeyboardInterrupt remnants -- is reported over the pipe rather than
    crashing the worker, so the parent's accounting stays exact; the
    formatted traceback travels with the error string.

    The heartbeat thread doubles as an orphan watchdog: if the parent
    dies without shutting us down (SIGKILL to the sweep process), the
    worker exits on its own within one beat.  Pipe EOF alone cannot be
    relied on for this -- under ``fork``, sibling workers inherit copies
    of the parent-side pipe ends, so a dead parent does not close them.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    stop = threading.Event()
    parent_pid = os.getppid()

    def _beat() -> None:
        while not stop.is_set():
            heartbeat.value = time.monotonic()
            if os.getppid() != parent_pid:  # reparented: supervisor is gone
                os._exit(1)
            stop.wait(heartbeat.interval)

    heartbeat.value = time.monotonic()
    beater = threading.Thread(target=_beat, daemon=True)
    beater.start()
    try:
        while True:
            try:
                payload = conn.recv()
            except (EOFError, OSError):
                break
            if payload is None:  # shutdown sentinel
                break
            try:
                result = worker_fn(payload)
            except BaseException as exc:  # report, don't die
                error = (f"{type(exc).__name__}: {exc}", traceback.format_exc())
                try:
                    conn.send(("error", error))
                except (BrokenPipeError, OSError):
                    break
                continue
            try:
                conn.send(("ok", result))
            except (BrokenPipeError, OSError):
                break
    finally:
        stop.set()
        conn.close()


class _Heartbeat:
    """Shared monotonic timestamp plus the interval it is refreshed at.

    A tiny wrapper (rather than a bare ``multiprocessing.Value``) so the
    beat interval travels with the value into the worker process.  It
    crosses the process boundary as a ``Process`` arg: under ``fork`` by
    inheritance, under ``spawn`` via multiprocessing's own reduction of
    the inner shared ``Value``.
    """

    def __init__(self, ctx, interval: float) -> None:
        self._value = ctx.Value("d", time.monotonic(), lock=False)
        self.interval = interval

    @property
    def value(self) -> float:
        return self._value.value

    @value.setter
    def value(self, stamp: float) -> None:
        self._value.value = stamp


@dataclass
class _Task:
    task_id: int
    payload: Any
    requeues: int = 0


@dataclass
class _Worker:
    proc: multiprocessing.Process
    conn: Any
    heartbeat: _Heartbeat
    task: Optional[_Task] = None
    deadline: Optional[float] = None
    retired: bool = field(default=False)


# -- supervisor --------------------------------------------------------------


class WorkerSupervisor:
    """Run ``payloads`` through supervised worker processes.

    Parameters
    ----------
    worker_fn:
        Module-level callable executed in the workers (must be picklable
        under the chosen start method).
    payloads:
        One opaque payload per task; task ids are their indices.
    workers:
        Initial pool size (capped at the number of tasks).
    task_timeout_s:
        Wall-clock deadline for one run of a task; ``None`` disables.
        Exceeding it kills the worker and re-queues the task.
    heartbeat_interval_s / hang_timeout_s:
        Worker liveness: heartbeats refresh every interval; a busy
        worker whose heartbeat is older than ``hang_timeout_s`` is
        declared hung and replaced.
    max_requeues:
        Worker losses (deaths, hangs, timeouts) tolerated per task
        before the task fails.
    shrink_after_deaths:
        Unexpected worker deaths per one-worker shrink of the target
        pool size (never below one).
    start_method:
        ``multiprocessing`` start method; default prefers ``fork``.
    """

    def __init__(
        self,
        worker_fn: Callable[[Any], Any],
        payloads: Sequence[Any],
        workers: int,
        task_timeout_s: Optional[float] = None,
        heartbeat_interval_s: float = 0.25,
        hang_timeout_s: float = 30.0,
        max_requeues: int = 3,
        shrink_after_deaths: int = 3,
        start_method: Optional[str] = None,
        poll_interval_s: float = 0.05,
    ) -> None:
        self._worker_fn = worker_fn
        self._queue: Deque[_Task] = deque(
            _Task(task_id=i, payload=p) for i, p in enumerate(payloads)
        )
        self._n_tasks = len(self._queue)
        self._target = max(1, min(int(workers), self._n_tasks))
        self._task_timeout_s = task_timeout_s
        self._heartbeat_interval_s = heartbeat_interval_s
        self._hang_timeout_s = hang_timeout_s
        self._max_requeues = max(0, int(max_requeues))
        self._shrink_after_deaths = max(1, int(shrink_after_deaths))
        self._poll_interval_s = poll_interval_s
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        self._ctx = multiprocessing.get_context(start_method)
        self._workers: List[_Worker] = []
        self.deaths = 0

    # -- event loop ----------------------------------------------------------

    def events(self) -> Iterator[object]:
        """Drive the pool; yield progress events until all tasks settle.

        The generator owns the worker processes: leaving it (completion,
        interruption, or an exception in the consumer) tears the pool
        down via ``finally``, so no worker outlives the sweep.
        """
        try:
            while self._queue or self._busy():
                for event in self._assign():
                    yield event
                for event in self._collect():
                    yield event
                for event in self._check_health():
                    yield event
        finally:
            self._shutdown()

    # -- internals -----------------------------------------------------------

    def _busy(self) -> List[_Worker]:
        return [w for w in self._workers if w.task is not None]

    def _alive(self) -> List[_Worker]:
        return [w for w in self._workers if not w.retired]

    def _spawn(self) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe()
        heartbeat = _Heartbeat(self._ctx, self._heartbeat_interval_s)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, heartbeat, self._worker_fn),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        worker = _Worker(proc=proc, conn=parent_conn, heartbeat=heartbeat)
        self._workers.append(worker)
        return worker

    def _retire(self, worker: _Worker, kill: bool = False) -> None:
        worker.retired = True
        worker.task = None
        worker.deadline = None
        try:
            if kill:
                worker.proc.kill()
            elif worker.proc.is_alive():
                try:
                    worker.conn.send(None)
                except (BrokenPipeError, OSError):
                    worker.proc.terminate()
        finally:
            worker.conn.close()
        worker.proc.join(timeout=5.0)
        if worker.proc.is_alive():  # pragma: no cover - stubborn worker
            worker.proc.kill()
            worker.proc.join(timeout=5.0)
        self._workers.remove(worker)

    def _outstanding(self) -> int:
        return len(self._queue) + len(self._busy())

    def _assign(self) -> List[object]:
        events: List[object] = []
        now = time.monotonic()
        # Top the pool up to the (possibly shrunk) target, but never
        # beyond the work left to do.
        while len(self._alive()) < min(self._target, self._outstanding()):
            self._spawn()
        # Retire surplus idle workers after a shrink.
        for worker in list(self._workers):
            if worker.task is None and len(self._alive()) > self._target:
                self._retire(worker)
        idle = [w for w in self._workers if w.task is None and not w.retired]
        for worker in idle:
            if not self._queue:
                break
            task = self._queue.popleft()
            try:
                worker.conn.send(task.payload)
            except (BrokenPipeError, OSError):
                # Worker died between spawn and first task; health check
                # will reap it.  Put the task back untouched.
                self._queue.appendleft(task)
                continue
            worker.task = task
            worker.deadline = (
                now + self._task_timeout_s if self._task_timeout_s else None
            )
            events.append(TaskAssigned(task_id=task.task_id))
        return events

    def _collect(self) -> List[object]:
        events: List[object] = []
        busy = self._busy()
        if not busy:
            return events
        by_conn: Dict[Any, _Worker] = {w.conn: w for w in busy}
        try:
            ready = _connection_wait(list(by_conn), timeout=self._poll_interval_s)
        except OSError:  # a conn died mid-wait; health check reaps it
            ready = []
        for conn in ready:
            worker = by_conn[conn]
            try:
                kind, value = conn.recv()
            except (EOFError, OSError):
                continue  # worker died; the health check handles it
            task = worker.task
            worker.task = None
            worker.deadline = None
            if task is None:  # pragma: no cover - defensive
                continue
            if kind == "ok":
                events.append(TaskDone(task_id=task.task_id, result=value))
            else:
                error, error_traceback = value
                events.append(TaskFailed(task.task_id, error, error_traceback))
        return events

    def _check_health(self) -> List[object]:
        events: List[object] = []
        now = time.monotonic()
        for worker in list(self._workers):
            if worker.retired or worker.task is None:
                # An idle worker that died is silently replaced on the
                # next assign pass; it holds no task to account for.
                if not worker.retired and not worker.proc.is_alive():
                    self._retire(worker, kill=True)
                continue
            task = worker.task
            if not worker.proc.is_alive():
                code = worker.proc.exitcode
                reason = f"worker killed (exit code {code})"
                events.extend(self._death(worker, task, reason, deliberate=False))
            elif now - worker.heartbeat.value > self._hang_timeout_s:
                stale = now - worker.heartbeat.value
                reason = f"worker hung (no heartbeat for {stale:.1f} s)"
                events.extend(self._death(worker, task, reason, deliberate=False))
            elif worker.deadline is not None and now > worker.deadline:
                reason = f"timed out after {self._task_timeout_s} s"
                events.extend(self._death(worker, task, reason, deliberate=True))
        return events

    def _death(
        self, worker: _Worker, task: _Task, reason: str, deliberate: bool
    ) -> List[object]:
        """A lost worker: re-queue the task, replace the worker.

        Only an unexpected loss (killed or hung, not ``deliberate``
        timeout kills) counts toward shrinking the pool.
        """
        events: List[object] = [
            WorkerDeath(reason=reason, task_id=task.task_id, deliberate=deliberate)
        ]
        self._retire(worker, kill=True)
        if not deliberate:
            self.deaths += 1
            if self.deaths % self._shrink_after_deaths == 0 and self._target > 1:
                self._target -= 1
                events.append(PoolShrunk(target=self._target))
        task.requeues += 1
        if task.requeues <= self._max_requeues:
            self._queue.append(task)
            events.append(
                TaskRequeued(task_id=task.task_id, requeues=task.requeues, reason=reason)
            )
        else:
            events.append(
                TaskFailed(
                    task_id=task.task_id,
                    error=f"{reason}; task re-queued {task.requeues - 1} time(s) "
                    "and its worker died every time",
                )
            )
        return events

    def _shutdown(self) -> None:
        for worker in list(self._workers):
            self._retire(worker, kill=worker.task is not None)
