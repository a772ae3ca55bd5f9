"""Tests for the worker supervisor (repro.sim.supervisor).

The supervisor is generic -- ``worker_fn(payload) -> result`` -- so
these tests drive it with tiny arithmetic payloads and misbehaving
workers (suicide by SIGKILL, SIGSTOP freezes, deliberate sleeps) rather
than simulations.  The contracts pinned here: every task settles exactly
once (done or failed), worker deaths re-queue rather than fail, hangs
are told apart from slow cells, the pool shrinks gracefully, and no
worker process outlives the event loop.
"""

import multiprocessing
import os
import signal
import time

import pytest

from repro.sim.supervisor import (
    PoolShrunk,
    TaskAssigned,
    TaskDone,
    TaskFailed,
    TaskRequeued,
    TaskRetry,
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
    """SIGSTOP self (heartbeat thread included) the first time."""
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


class TestRetries:
    def test_worker_errors_consume_attempts_then_fail(self):
        supervisor = WorkerSupervisor(
            _fail_on_odd, [0, 1, 2, 3], workers=2, max_retries=1, retry_backoff_s=0.0
        )
        events, done, failed = _drain(supervisor)
        assert done == {0: 0, 2: 4}
        assert set(failed) == {1, 3}
        assert all("odd payload" in error for error in failed.values())
        # Each failed task burned its retry first.
        retried = [e.task_id for e in events if isinstance(e, TaskRetry)]
        assert sorted(retried) == [1, 3]
        _assert_no_stray_workers()

    def test_no_backoff_sleep_after_the_final_attempt(self):
        """With zero retries a huge backoff must never be paid."""
        supervisor = WorkerSupervisor(
            _always_fail, [1], workers=1, max_retries=0, retry_backoff_s=30.0
        )
        start = time.monotonic()
        _, done, failed = _drain(supervisor)
        assert time.monotonic() - start < 5.0
        assert done == {} and set(failed) == {0}

    def test_backoff_is_nonblocking_for_other_tasks(self):
        """One task waiting out its backoff must not stall the rest."""
        supervisor = WorkerSupervisor(
            _fail_on_odd, [1, 0, 2, 4], workers=1, max_retries=1, retry_backoff_s=1.0
        )
        events = []
        order = []
        for event in supervisor.events():
            events.append(event)
            if isinstance(event, TaskDone):
                order.append(event.task_id)
        # The even payloads completed while task 0 (payload 1) backed off.
        assert order[:3] == [1, 2, 3]


class TestInProcessEvents:
    """The one-worker executor yields the supervisor's events under its
    retry rule, without a process."""

    def test_assign_retry_assign_fail_with_one_backoff(self, monkeypatch):
        import repro.sim.supervisor as supervisor_module

        sleeps = []
        monkeypatch.setattr(supervisor_module.time, "sleep", sleeps.append)
        events = list(
            in_process_events(_always_fail, [7], max_retries=1, retry_backoff_s=0.25)
        )
        assert [type(e) for e in events] == [
            TaskAssigned, TaskRetry, TaskAssigned, TaskFailed,
        ]
        assert [e.attempt for e in events[:3]] == [0, 1, 1]
        assert events[-1].error == "RuntimeError: nope"
        assert "RuntimeError: nope" in events[-1].traceback
        assert sleeps == [0.25]  # exactly max_retries backoffs

    @pytest.mark.parametrize("max_retries", [0, 2])
    def test_backoffs_double_and_skip_the_final_attempt(self, monkeypatch, max_retries):
        import repro.sim.supervisor as supervisor_module

        sleeps = []
        monkeypatch.setattr(supervisor_module.time, "sleep", sleeps.append)
        events = list(
            in_process_events(
                _always_fail, [1], max_retries=max_retries, retry_backoff_s=0.5
            )
        )
        assert sum(isinstance(e, TaskAssigned) for e in events) == max_retries + 1
        assert sleeps == [0.5 * 2**k for k in range(max_retries)]

    def test_results_and_failures_settle_in_task_order(self):
        events = list(
            in_process_events(_fail_on_odd, [0, 1, 2], max_retries=0, retry_backoff_s=0)
        )
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

        events = in_process_events(interrupted, [1], max_retries=3, retry_backoff_s=0)
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
        assert len(deaths) == 1 and not deaths[0].deliberate
        assert "killed" in deaths[0].reason
        requeued = [e for e in events if isinstance(e, TaskRequeued)]
        assert len(requeued) == 1
        assert supervisor.deaths == 1
        _assert_no_stray_workers()

    def test_requeues_are_bounded_per_task(self):
        supervisor = WorkerSupervisor(
            _always_suicide, [7], workers=1, max_requeues=2, shrink_after_deaths=100
        )
        events, done, failed = _drain(supervisor)
        assert done == {}
        assert set(failed) == {0}
        assert "died every time" in failed[0]
        assert sum(isinstance(e, TaskRequeued) for e in events) == 2
        assert supervisor.deaths == 3  # initial + 2 requeues
        _assert_no_stray_workers()

    def test_repeated_deaths_shrink_the_pool(self):
        supervisor = WorkerSupervisor(
            _always_suicide,
            list(range(3)),
            workers=3,
            max_requeues=0,
            shrink_after_deaths=1,
        )
        events, _, failed = _drain(supervisor)
        assert set(failed) == {0, 1, 2}
        shrinks = [e.target for e in events if isinstance(e, PoolShrunk)]
        assert shrinks == [2, 1]  # never below one worker
        assert supervisor._target == 1
        _assert_no_stray_workers()


class TestHangsAndTimeouts:
    def test_frozen_worker_is_detected_as_hung_not_slow(self, tmp_path):
        marker = str(tmp_path / "froze-once")
        supervisor = WorkerSupervisor(
            _freeze_once,
            [(marker, 5)],
            workers=1,
            heartbeat_interval_s=0.05,
            hang_timeout_s=0.5,
        )
        events, done, failed = _drain(supervisor)
        assert failed == {}
        assert done == {0: 10}
        deaths = [e for e in events if isinstance(e, WorkerDeath)]
        assert len(deaths) == 1 and not deaths[0].deliberate
        assert "hung" in deaths[0].reason
        _assert_no_stray_workers()

    def test_slow_task_is_killed_and_counts_an_attempt(self):
        supervisor = WorkerSupervisor(
            _slow,
            [3],
            workers=1,
            task_timeout_s=0.4,
            max_retries=0,
            retry_backoff_s=0.0,
            heartbeat_interval_s=0.05,
            hang_timeout_s=30.0,
        )
        events, done, failed = _drain(supervisor)
        assert done == {}
        assert set(failed) == {0} and "timed out" in failed[0]
        deaths = [e for e in events if isinstance(e, WorkerDeath)]
        # A deliberate timeout kill, not an unexpected death: it neither
        # shrinks the pool nor counts toward the death budget.
        assert len(deaths) == 1 and deaths[0].deliberate
        assert supervisor.timeout_kills == 1 and supervisor.deaths == 0
        assert not any(isinstance(e, PoolShrunk) for e in events)
        _assert_no_stray_workers()
