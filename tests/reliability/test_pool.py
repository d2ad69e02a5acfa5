"""Unit tests for the one pool wait and the one retry budget.

:meth:`PersistentPool.wait` is the only place a pool result is read, by
the stream pool, the sweep pool and ``pool_table_tasks`` alike, and
:func:`spend_attempt` is their one piece of retry bookkeeping.  These
tests pin both on a real one-worker pool before the chaos suites drive
them end to end.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import BrokenExecutor

import pytest

from repro.reliability import (
    Deadline,
    DeadlineExceededError,
    ReliabilityReport,
    RetryError,
    RetryPolicy,
    Watchdog,
)
from repro.reliability.pool import PersistentPool, heartbeat, spend_attempt


def _no_setup() -> None:
    """Pool initializer with nothing to install."""


def _square(value: int) -> int:
    return value * value


def _hang_silently(seconds: float) -> None:
    """Beat busy once, then go silent: what the watchdog calls hung."""
    heartbeat()
    time.sleep(seconds)


@pytest.fixture()
def pool():
    pool = PersistentPool("test-pool-heartbeat-")
    pool.ensure("unit", 1, _no_setup)
    yield pool
    pool.retire()


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


class TestWait:
    def test_returns_the_result(self, pool):
        report = ReliabilityReport()
        for deadline in (None, Deadline(30.0)):
            future = pool.executor.submit(_square, 12)
            assert pool.wait(
                future, watchdog=Watchdog(), deadline=deadline,
                label="pipeline.chunk", position=0, report=report,
            ) == 144
        assert not report.any_recovery

    def test_expired_deadline_kills_retires_and_raises_at_the_callers_position(
        self, pool
    ):
        future = pool.executor.submit(_hang_silently, 60.0)
        workers = pool.worker_pids()
        started = time.monotonic()
        with pytest.raises(DeadlineExceededError) as excinfo:
            pool.wait(
                future, watchdog=None, deadline=Deadline(0.3),
                label="pipeline.chunk", position=3,
                report=ReliabilityReport(),
            )
        assert (excinfo.value.label, excinfo.value.position) == (
            "pipeline.chunk", 3,
        )
        assert time.monotonic() - started < 10.0
        # retired: no executor, no heartbeat directory, no live worker
        assert pool.executor is None
        assert pool.heartbeat_dir is None
        assert workers and not any(_alive(pid) for pid in workers)

    def test_watchdog_kill_is_counted(self, pool):
        future = pool.executor.submit(_hang_silently, 60.0)
        report = ReliabilityReport()
        started = time.monotonic()
        with pytest.raises(BrokenExecutor):
            pool.wait(
                future, watchdog=Watchdog(budget=0.3, poll=0.05),
                deadline=Deadline(30.0), label="pool.worker", position=0,
                report=report,
            )
        assert time.monotonic() - started < 10.0
        assert report.watchdog_kills == 1


class TestSpendAttempt:
    def test_below_the_budget_records_the_retry_and_backs_off(
        self, monkeypatch
    ):
        slept = []
        monkeypatch.setattr(time, "sleep", slept.append)
        policy = RetryPolicy(max_attempts=3, base_delay=0.5)
        report = ReliabilityReport()
        for attempt in (1, 2):
            spend_attempt(policy, attempt, OSError("worker"), report)
        assert report.retries == {"pool.worker": 2}
        assert slept == [
            policy.delay("pool.worker", 1), policy.delay("pool.worker", 2),
        ]

    def test_at_the_budget_raises_from_the_last_failure(self, monkeypatch):
        slept = []
        monkeypatch.setattr(time, "sleep", slept.append)
        cause = OSError("worker")
        report = ReliabilityReport()
        with pytest.raises(RetryError) as excinfo:
            spend_attempt(RetryPolicy(max_attempts=3), 3, cause, report)
        assert excinfo.value.label == "pool.worker"
        assert excinfo.value.attempts == 3
        assert excinfo.value.__cause__ is cause
        assert not report.retries
        assert slept == []
