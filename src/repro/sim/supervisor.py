"""Worker supervision for the parallel sweep path.

``multiprocessing.Pool`` computes, but it does not *supervise*: a worker
that is OOM-killed leaves its ``apply_async`` handle hanging forever.
This module replaces the pool with a :class:`WorkerSupervisor` that owns
one :class:`multiprocessing.Process` per worker, talks to each over its
own pipe, and keeps one rule for losing a worker: a worker that dies
while it holds a task (OOM killer, external SIGKILL) is replaced and its
task re-queued -- the task is a pure function of its seeds, so a replay
is byte-identical -- at most :data:`MAX_REQUEUES` times, after which the
task fails.  A task whose ``worker_fn`` *raises* fails at once:
replaying a pure function replays its exception.

A worker that hangs (a deadlock, SIGSTOP) is not detected: it holds its
task until the consumer closes the event stream, which kills every
worker, hung or not.  The sweep closes it on Ctrl-C, after
checkpointing, so a hung sweep is interrupted and resumed.

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
import traceback
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait as _connection_wait
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional, Sequence

__all__ = [
    "MAX_REQUEUES",
    "WorkerSupervisor",
    "TaskAssigned",
    "TaskDone",
    "TaskRequeued",
    "TaskFailed",
    "WorkerDeath",
    "in_process_events",
]

#: Times a task is re-queued after its worker dies; one more death fails it.
MAX_REQUEUES = 3

#: How long one pass of the event loop waits for a worker's result.
_POLL_INTERVAL_S = 0.05


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
    when the task was lost to worker deaths.
    """

    task_id: int
    error: str
    traceback: Optional[str] = None


@dataclass(frozen=True)
class WorkerDeath:
    """A worker died while it held a task (killed, OOM)."""

    reason: str
    task_id: Optional[int]


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


def _worker_main(conn, worker_fn) -> None:
    """Worker process body: watchdog thread + recv/compute/send loop.

    SIGINT is ignored so a Ctrl-C to the sweep's process group interrupts
    only the parent, which then shuts workers down deliberately (after
    checkpointing).  Every exception -- including worker-side
    KeyboardInterrupt remnants -- is reported over the pipe rather than
    crashing the worker, so the parent's accounting stays exact; the
    formatted traceback travels with the error string.

    The watchdog thread makes an orphan exit: if the parent dies without
    shutting us down (SIGKILL to the sweep process), the worker exits on
    its own within a quarter second.  Pipe EOF alone cannot be relied on
    for this -- under ``fork``, sibling workers inherit copies of the
    parent-side pipe ends, so a dead parent does not close them.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    stop = threading.Event()
    parent_pid = os.getppid()

    def _watch() -> None:
        while not stop.is_set():
            if os.getppid() != parent_pid:  # reparented: supervisor is gone
                os._exit(1)
            stop.wait(0.25)

    threading.Thread(target=_watch, daemon=True).start()
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


@dataclass
class _Task:
    task_id: int
    payload: Any
    requeues: int = 0


@dataclass
class _Worker:
    proc: multiprocessing.Process
    conn: Any
    task: Optional[_Task] = None


# -- supervisor --------------------------------------------------------------


class WorkerSupervisor:
    """Run ``payloads`` through supervised worker processes.

    Parameters
    ----------
    worker_fn:
        Module-level callable executed in the workers (must be picklable
        under the start method: ``fork`` where the platform has it).
    payloads:
        One opaque payload per task; task ids are their indices.
    workers:
        Pool size (capped at the number of tasks).
    """

    def __init__(
        self,
        worker_fn: Callable[[Any], Any],
        payloads: Sequence[Any],
        workers: int,
    ) -> None:
        self._worker_fn = worker_fn
        self._queue: Deque[_Task] = deque(
            _Task(task_id=i, payload=p) for i, p in enumerate(payloads)
        )
        self._target = max(1, min(int(workers), len(self._queue)))
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else methods[0]
        )
        self._workers: List[_Worker] = []

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
                for event in self._reap():
                    yield event
        finally:
            self._shutdown()

    # -- internals -----------------------------------------------------------

    def _busy(self) -> List[_Worker]:
        return [w for w in self._workers if w.task is not None]

    def _spawn(self) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main, args=(child_conn, self._worker_fn), daemon=True
        )
        proc.start()
        child_conn.close()
        self._workers.append(_Worker(proc=proc, conn=parent_conn))

    def _retire(self, worker: _Worker, kill: bool = False) -> None:
        worker.task = None
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

    def _assign(self) -> List[object]:
        events: List[object] = []
        # Top the pool up, but never beyond the work left to do.
        while len(self._workers) < min(
            self._target, len(self._queue) + len(self._busy())
        ):
            self._spawn()
        for worker in self._workers:
            if not self._queue:
                break
            if worker.task is not None:
                continue
            task = self._queue.popleft()
            try:
                worker.conn.send(task.payload)
            except (BrokenPipeError, OSError):
                # Worker died between spawn and first task; the reap
                # pass replaces it.  Put the task back untouched.
                self._queue.appendleft(task)
                continue
            worker.task = task
            events.append(TaskAssigned(task_id=task.task_id))
        return events

    def _collect(self) -> List[object]:
        events: List[object] = []
        busy = self._busy()
        if not busy:
            return events
        by_conn: Dict[Any, _Worker] = {w.conn: w for w in busy}
        try:
            ready = _connection_wait(list(by_conn), timeout=_POLL_INTERVAL_S)
        except OSError:  # a conn died mid-wait; the reap pass handles it
            ready = []
        for conn in ready:
            worker = by_conn[conn]
            try:
                kind, value = conn.recv()
            except (EOFError, OSError):
                continue  # worker died; the reap pass handles it
            task = worker.task
            worker.task = None
            if kind == "ok":
                events.append(TaskDone(task_id=task.task_id, result=value))
            else:
                error, error_traceback = value
                events.append(TaskFailed(task.task_id, error, error_traceback))
        return events

    def _reap(self) -> List[object]:
        """Replace dead workers; a dead worker's task is re-queued or failed.

        An idle worker that died holds no task to account for: it is
        removed and the next assign pass spawns its replacement.
        """
        events: List[object] = []
        for worker in list(self._workers):
            if worker.proc.is_alive():
                continue
            task = worker.task
            reason = f"worker killed (exit code {worker.proc.exitcode})"
            self._retire(worker, kill=True)
            if task is None:
                continue
            events.append(WorkerDeath(reason=reason, task_id=task.task_id))
            task.requeues += 1
            if task.requeues <= MAX_REQUEUES:
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
