"""Worker supervision for the parallel sweep path.

``multiprocessing.Pool`` computes, but it does not *supervise*: a worker
that is OOM-killed leaves its ``apply_async`` handle hanging forever, a
hung worker is indistinguishable from a slow cell, and there is no
policy for a machine that keeps killing workers.  This module replaces
the pool with a :class:`WorkerSupervisor` that owns one
:class:`multiprocessing.Process` per worker, talks to each over its own
pipe, and watches three distinct failure signals:

* **silent death** (OOM killer, external SIGKILL): the process is gone
  while a task is assigned.  The task is re-queued (it is a pure
  function of its seeds, so a replay is byte-identical) and a
  replacement worker is spawned.
* **hang** (deadlock, SIGSTOP, a wedged C extension): the process is
  alive but its *heartbeat* -- a timestamp a daemon thread inside the
  worker refreshes every ``heartbeat_interval_s`` -- has gone stale for
  ``hang_timeout_s``.  A genuinely slow cell keeps heartbeating, so
  slow and hung are told apart instead of sharing one timeout.  The
  worker is killed, the task re-queued.
* **slow cell** (``task_timeout_s``): heartbeats are fresh but the task
  exceeded its deadline.  The worker is killed (unlike the old pool
  path, which had to abandon it still running) and the task counts a
  failed *attempt* -- retried up to ``max_retries`` times, with
  exponential backoff that is **skipped after the final attempt**
  (no pointless sleep when no retry will follow; backoff is
  non-blocking either way, implemented as a not-before timestamp so
  other tasks keep flowing while one waits out its backoff).

Graceful degradation: every unexpected death (killed or hung -- not
deliberate timeout kills) is counted, and each ``shrink_after_deaths``
of them permanently shrinks the target pool by one worker (never below
one).  A machine whose memory ceiling keeps OOM-killing an 8-worker
sweep therefore converges to the parallelism it can actually sustain
instead of failing the sweep.  Per-task re-queues are bounded by
``max_requeues`` so a cell that itself reproducibly kills its worker
eventually fails that cell -- and only that cell.

The supervisor is deliberately generic -- ``worker_fn(payload) ->
result`` with opaque payloads -- so it is testable without simulating
anything; :mod:`repro.sim.sweep` feeds it run-level simulation tasks.
Progress is reported as a stream of event objects from :meth:`events`,
which is how the sweep layer mirrors assignments and completions into
the results store's cell state machine.
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
    "TaskRetry",
    "TaskRequeued",
    "TaskFailed",
    "WorkerDeath",
    "PoolShrunk",
]


# -- events ------------------------------------------------------------------


@dataclass(frozen=True)
class TaskAssigned:
    """A task was shipped to a worker (mirror the cell to ``running``)."""

    task_id: int
    attempt: int


@dataclass(frozen=True)
class TaskDone:
    """A task completed; ``result`` is ``worker_fn``'s return value."""

    task_id: int
    result: Any


@dataclass(frozen=True)
class TaskRetry:
    """An attempt failed; the task will be retried after its backoff.

    ``traceback`` is the worker-side traceback of a raised exception;
    ``None`` when the attempt was lost to a timeout.
    """

    task_id: int
    attempt: int
    error: str
    traceback: Optional[str] = None


@dataclass(frozen=True)
class TaskRequeued:
    """A worker died under the task; re-queued without consuming an attempt."""

    task_id: int
    requeues: int
    reason: str


@dataclass(frozen=True)
class TaskFailed:
    """Attempts (or re-queues) exhausted; the task's cells are failed.

    ``traceback`` is the worker-side traceback of the last attempt's
    exception; ``None`` when the task was lost to worker deaths or a
    timeout.
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
    attempt: int = 0
    requeues: int = 0
    not_before: float = 0.0


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
        Per-attempt wall-clock deadline for one task; ``None`` disables.
        Exceeding it kills the worker and consumes an attempt.
    max_retries:
        Failed/timed-out attempts retried per task beyond the first.
    retry_backoff_s:
        Base of the exponential backoff before retry ``k``
        (``retry_backoff_s * 2**k`` seconds).  Never applied after the
        final attempt, and never blocks other tasks (scheduled as a
        not-before time, not a sleep).
    heartbeat_interval_s / hang_timeout_s:
        Worker liveness: heartbeats refresh every interval; a busy
        worker whose heartbeat is older than ``hang_timeout_s`` is
        declared hung and replaced.
    max_requeues:
        Worker deaths tolerated per task before the task fails.
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
        max_retries: int = 1,
        retry_backoff_s: float = 0.5,
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
        self._max_retries = max(0, int(max_retries))
        self._retry_backoff_s = retry_backoff_s
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
        self._stop = False
        self.deaths = 0
        self.timeout_kills = 0

    # -- public control ------------------------------------------------------

    def request_stop(self) -> None:
        """Stop dispatching and wind down (signal-handler safe: only
        sets a flag; the event loop notices on its next iteration)."""
        self._stop = True

    @property
    def stopped(self) -> bool:
        return self._stop

    @property
    def target_pool_size(self) -> int:
        """Current degradation target (initial workers minus shrinks)."""
        return self._target

    # -- event loop ----------------------------------------------------------

    def events(self) -> Iterator[object]:
        """Drive the pool; yield progress events until all tasks settle.

        The generator owns the worker processes: leaving it (completion,
        interruption, or an exception in the consumer) tears the pool
        down via ``finally``, so no worker outlives the sweep.
        """
        try:
            while (self._queue or self._busy()) and not self._stop:
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
        ready = [t for t in self._queue if t.not_before <= now]
        for worker in idle:
            if not ready:
                break
            task = ready.pop(0)
            self._queue.remove(task)
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
            events.append(TaskAssigned(task_id=task.task_id, attempt=task.attempt))
        return events

    def _collect(self) -> List[object]:
        events: List[object] = []
        busy = self._busy()
        if not busy:
            if self._queue:
                # Everything queued is waiting out a backoff; sleep the
                # smaller of the poll interval and the nearest release.
                now = time.monotonic()
                delay = min(t.not_before for t in self._queue) - now
                time.sleep(max(0.0, min(self._poll_interval_s, delay)))
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
                events.extend(self._attempt_failed(task, error, error_traceback))
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
                events.extend(self._timeout(worker, task, reason))
        return events

    def _death(
        self, worker: _Worker, task: _Task, reason: str, deliberate: bool
    ) -> List[object]:
        """An unexpected worker loss: re-queue the task, replace, maybe shrink."""
        events: List[object] = [
            WorkerDeath(reason=reason, task_id=task.task_id, deliberate=deliberate)
        ]
        self._retire(worker, kill=True)
        self.deaths += 1
        if self.deaths % self._shrink_after_deaths == 0 and self._target > 1:
            self._target -= 1
            events.append(PoolShrunk(target=self._target))
        task.requeues += 1
        if task.requeues <= self._max_requeues:
            task.not_before = 0.0
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

    def _timeout(self, worker: _Worker, task: _Task, reason: str) -> List[object]:
        """A slow cell past its deadline: kill the worker, consume an attempt."""
        events: List[object] = [
            WorkerDeath(reason=reason, task_id=task.task_id, deliberate=True)
        ]
        self.timeout_kills += 1
        self._retire(worker, kill=True)
        events.extend(self._attempt_failed(task, reason))
        return events

    def _attempt_failed(
        self, task: _Task, error: str, error_traceback: Optional[str] = None
    ) -> List[object]:
        """Account one failed attempt; retry with backoff or fail the task.

        The exponential backoff is only scheduled when a retry will
        actually follow -- after the final attempt the task fails
        immediately, with no residual sleep.
        """
        if task.attempt < self._max_retries:
            if self._retry_backoff_s > 0:
                task.not_before = time.monotonic() + self._retry_backoff_s * (
                    2**task.attempt
                )
            task.attempt += 1
            self._queue.append(task)
            return [
                TaskRetry(
                    task_id=task.task_id,
                    attempt=task.attempt,
                    error=error,
                    traceback=error_traceback,
                )
            ]
        return [
            TaskFailed(task_id=task.task_id, error=error, traceback=error_traceback)
        ]

    def _shutdown(self) -> None:
        for worker in list(self._workers):
            self._retire(worker, kill=worker.task is not None)
