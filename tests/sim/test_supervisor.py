"""Tests for the worker supervisor (repro.sim.supervisor).

The supervisor is generic -- ``worker_fn(payload) -> result`` -- so
these tests drive it with tiny arithmetic payloads and misbehaving
workers (suicide by SIGKILL, SIGSTOP freezes) rather than simulations.
The contracts pinned here: every task settles exactly once (done or
failed), a raising task fails on its first attempt, a killed worker
re-queues its task at most ``MAX_REQUEUES`` times rather than failing
it, and no worker process outlives the event loop -- a frozen one
included.
"""

import multiprocessing
import os
import signal
import time

import pytest

from repro.sim.supervisor import (
    MAX_REQUEUES,
    TaskAssigned,
    TaskDone,
    TaskFailed,
    TaskRequeued,
    WorkerDeath,
    WorkerSupervisor,
    in_process_events,
)

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="supervisor tests use the fork start method for closure-free workers",
)


# -- worker functions (module-level: picklable under any start method) -------


def _double(x):
    return 2 * x


def _fail_on_odd(x):
    if x % 2:
        raise ValueError(f"odd payload {x}")
    return 2 * x


def _always_fail(x):
    raise RuntimeError("nope")


def _suicide_once(args):
    """Die by SIGKILL the first time a marker allows it, then compute."""
    marker, x = args
    try:
        fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return 2 * x
    os.close(fd)
    os.kill(os.getpid(), signal.SIGKILL)


def _always_suicide(x):
    os.kill(os.getpid(), signal.SIGKILL)


def _freeze_once(args):
    """SIGSTOP self (watchdog thread included) the first time."""
    marker, x = args
    try:
        fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return 2 * x
    os.close(fd)
    os.kill(os.getpid(), signal.SIGSTOP)
    time.sleep(60)  # never reached before the supervisor kills us


def _slow(x):
    time.sleep(30)
    return x


def _in_process(worker_fn, payloads):
    return in_process_events(worker_fn, payloads)


def _two_workers(worker_fn, payloads):
    return WorkerSupervisor(worker_fn, payloads, workers=2).events()


both_executors = pytest.mark.parametrize(
    "execute", [_in_process, _two_workers], ids=["in-process", "2-workers"]
)


def _drain(supervisor):
    events = list(supervisor.events())
    done = {e.task_id: e.result for e in events if isinstance(e, TaskDone)}
    failed = {e.task_id: e.error for e in events if isinstance(e, TaskFailed)}
    return events, done, failed


def _assert_no_stray_workers():
    deadline = time.monotonic() + 5.0
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert multiprocessing.active_children() == []


class TestHappyPath:
    def test_all_tasks_complete(self):
        supervisor = WorkerSupervisor(_double, list(range(8)), workers=3)
        events, done, failed = _drain(supervisor)
        assert failed == {}
        assert done == {i: 2 * i for i in range(8)}
        assert sum(isinstance(e, TaskAssigned) for e in events) == 8
        _assert_no_stray_workers()

    def test_pool_is_capped_at_the_task_count(self):
        supervisor = WorkerSupervisor(_double, [1], workers=16)
        _, done, _ = _drain(supervisor)
        assert done == {0: 2}
        assert supervisor._target == 1

    def test_closing_the_stream_ends_the_loop_and_the_pool(self):
        """The sweep's execute stage closes the stream when its consumer
        raises (an interrupt, a strict failure): busy workers die too."""
        events = WorkerSupervisor(_slow, list(range(4)), workers=2).events()
        with pytest.raises(KeyboardInterrupt):
            try:
                for event in events:
                    assert isinstance(event, TaskAssigned)
                    assert multiprocessing.active_children()
                    raise KeyboardInterrupt
            finally:
                events.close()
        _assert_no_stray_workers()


class TestFailureRule:
    """One rule for both executors: a raised exception fails the task at
    once; only a lost worker re-runs it."""

    @both_executors
    def test_a_clean_task_yields_assigned_then_done(self, execute):
        events = list(execute(_double, [0, 1, 2]))
        assert sorted(type(e).__name__ for e in events) == (
            ["TaskAssigned"] * 3 + ["TaskDone"] * 3
        )
        for task_id in range(3):
            assigned, done = [e for e in events if e.task_id == task_id]
            assert isinstance(assigned, TaskAssigned)
            assert isinstance(done, TaskDone) and done.result == 2 * task_id

    @both_executors
    def test_a_raising_task_fails_on_its_first_attempt(self, execute, monkeypatch):
        sleeps = []
        monkeypatch.setattr(time, "sleep", sleeps.append)
        events = list(execute(_fail_on_odd, [0, 1, 2, 3]))
        monkeypatch.undo()
        for task_id in (1, 3):
            assigned, failed = [e for e in events if e.task_id == task_id]
            assert isinstance(assigned, TaskAssigned)
            assert isinstance(failed, TaskFailed)
            assert failed.error == f"ValueError: odd payload {task_id}"
            assert "in _fail_on_odd" in failed.traceback
            assert failed.traceback.rstrip().endswith(failed.error)
        assert not any(isinstance(e, (TaskRequeued, WorkerDeath)) for e in events)
        assert sleeps == []
        _assert_no_stray_workers()


class TestInProcessEvents:
    """The one-worker executor yields the supervisor's events without a
    process."""

    def test_results_and_failures_settle_in_task_order(self):
        events = list(in_process_events(_fail_on_odd, [0, 1, 2]))
        settled = [
            (type(e).__name__, e.task_id)
            for e in events
            if isinstance(e, (TaskDone, TaskFailed))
        ]
        assert settled == [("TaskDone", 0), ("TaskFailed", 1), ("TaskDone", 2)]
        assert [e.result for e in events if isinstance(e, TaskDone)] == [0, 4]

    def test_keyboard_interrupt_is_not_retried(self):
        def interrupted(_):
            raise KeyboardInterrupt

        events = in_process_events(interrupted, [1])
        assert isinstance(next(events), TaskAssigned)
        with pytest.raises(KeyboardInterrupt):
            next(events)


class TestWorkerDeaths:
    def test_killed_worker_is_replaced_and_task_requeued(self, tmp_path):
        marker = str(tmp_path / "died-once")
        payloads = [(marker, i) for i in range(3)]
        supervisor = WorkerSupervisor(_suicide_once, payloads, workers=2)
        events, done, failed = _drain(supervisor)
        assert failed == {}
        assert done == {i: 2 * i for i in range(3)}
        deaths = [e for e in events if isinstance(e, WorkerDeath)]
        assert len(deaths) == 1
        assert "killed" in deaths[0].reason
        requeued = [e for e in events if isinstance(e, TaskRequeued)]
        assert len(requeued) == 1
        _assert_no_stray_workers()

    def test_requeues_are_bounded_per_task(self):
        supervisor = WorkerSupervisor(_always_suicide, [7], workers=1)
        events, done, failed = _drain(supervisor)
        assert done == {}
        assert set(failed) == {0}
        assert "died every time" in failed[0]
        assert sum(isinstance(e, TaskRequeued) for e in events) == MAX_REQUEUES
        # The first attempt plus every re-queue.
        assert sum(isinstance(e, WorkerDeath) for e in events) == MAX_REQUEUES + 1
        _assert_no_stray_workers()


class TestHangs:
    def test_closing_the_event_stream_reaps_a_sigstopped_worker(self, tmp_path):
        """A hung worker is not detected; closing the stream (what the
        sweep does on Ctrl-C) kills it without waiting for its result."""
        marker = str(tmp_path / "froze-once")
        events = WorkerSupervisor(_freeze_once, [(marker, 5)], workers=1).events()
        try:
            for event in events:
                if isinstance(event, TaskAssigned):
                    break
            time.sleep(0.3)
        finally:
            events.close()
        _assert_no_stray_workers()
