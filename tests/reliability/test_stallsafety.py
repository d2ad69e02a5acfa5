"""Unit tests for the stall-safety primitives.

Deadlines and the worker watchdog are small state machines; these tests
pin their contracts (what counts as expired / stale, what the disarmed
fast paths cost nothing for) before the chaos hang-matrix exercises them
end to end.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from collections import Counter
from dataclasses import fields

import pytest

from repro.reliability import (
    HANG,
    MEMORY,
    SLOW,
    Deadline,
    DeadlineExceededError,
    FaultPlan,
    PERMANENT,
    ReliabilityReport,
    TRANSIENT,
    Watchdog,
    beat,
    check_deadline,
    classify,
    fault_point,
)
from repro.reliability.watchdog import BUSY, IDLE


class TestDeadline:
    def test_budget_must_be_positive(self):
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError, match="positive"):
                Deadline(bad)

    def test_fresh_deadline_has_headroom(self):
        deadline = Deadline(60.0)
        assert not deadline.expired()
        assert 0.0 <= deadline.elapsed() < 1.0
        assert 59.0 < deadline.remaining() <= 60.0
        deadline.check("pipeline.chunk", 3)  # no raise

    def test_expiry_raises_with_resumable_position(self):
        deadline = Deadline(1e-9)
        time.sleep(0.002)
        assert deadline.expired()
        assert deadline.remaining() == 0.0
        with pytest.raises(DeadlineExceededError) as excinfo:
            deadline.check("pipeline.chunk", 7)
        err = excinfo.value
        assert err.label == "pipeline.chunk"
        assert err.position == 7
        assert err.budget == 1e-9
        assert err.elapsed >= 0.002
        assert "exceeded at pipeline.chunk[7]" in str(err)

    def test_expiry_is_permanent_for_the_retry_taxonomy(self):
        # Retrying a run that ran out of wall-clock inside the same
        # budget would loop; the taxonomy must not classify it transient.
        err = DeadlineExceededError("pipeline.chunk", 0, 1.0, 2.0)
        assert classify(err) == PERMANENT

    def test_timeout_caps_blocking_waits(self):
        deadline = Deadline(60.0)
        assert deadline.timeout(0.25) == 0.25
        assert 59.0 < deadline.timeout() <= 60.0
        expired = Deadline(1e-9)
        time.sleep(0.002)
        assert expired.timeout(5.0) == 0.0  # immediate-timeout poll

    def test_after_reads_like_the_call_site(self):
        deadline = Deadline.after(30.0)
        assert deadline.budget == 30.0

    def test_check_deadline_disarmed_is_a_noop(self):
        check_deadline(None, "anything", 99)  # must not raise
        armed = Deadline(1e-9)
        time.sleep(0.002)
        with pytest.raises(DeadlineExceededError):
            check_deadline(armed, "sweep.cell", 2)


class TestWatchdog:
    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="budget"):
            Watchdog(budget=0.0)
        with pytest.raises(ValueError, match="poll"):
            Watchdog(poll=0.0)

    def _beat_at(self, hb_dir, pid, state, age):
        beat(str(hb_dir), pid=pid, state=state)
        stamp = time.time() - age
        os.utime(os.path.join(str(hb_dir), str(pid)), (stamp, stamp))

    def test_busy_and_silent_past_budget_is_stale(self, tmp_path):
        dog = Watchdog(budget=5.0, poll=0.1)
        self._beat_at(tmp_path, 111, BUSY, age=10.0)
        self._beat_at(tmp_path, 222, BUSY, age=1.0)
        assert dog.stale_pids(str(tmp_path), [111, 222]) == [111]

    def test_idle_workers_are_never_stale(self, tmp_path):
        # A worker that finished early and is waiting for the slow one
        # must not be killed — that would break the executor for nothing.
        dog = Watchdog(budget=5.0, poll=0.1)
        self._beat_at(tmp_path, 111, IDLE, age=60.0)
        assert dog.stale_pids(str(tmp_path), [111]) == []

    def test_never_beat_is_not_stale(self, tmp_path):
        # A spare worker the executor never fed has no heartbeat file;
        # a hang before the first beat is the deadline's problem.
        dog = Watchdog(budget=5.0, poll=0.1)
        assert dog.stale_pids(str(tmp_path), [12345]) == []
        assert dog.last_beat(str(tmp_path), 12345) == (0.0, IDLE)

    def test_torn_read_defaults_to_busy(self, tmp_path):
        # An empty file (caught mid-rewrite) reads as BUSY — harmless,
        # because its fresh mtime keeps the worker under budget.
        path = tmp_path / "333"
        path.write_text("")
        dog = Watchdog(budget=5.0, poll=0.1)
        _, state = dog.last_beat(str(tmp_path), 333)
        assert state == BUSY
        assert dog.stale_pids(str(tmp_path), [333]) == []

    def test_beat_without_directory_is_a_noop(self):
        beat(None)  # production default: no heartbeat dir, no I/O

    def test_kill_stale_sigkills_the_hung_process(self, tmp_path):
        victim = subprocess.Popen(
            [sys.executable, "-c", "import time; time.sleep(60)"]
        )
        try:
            dog = Watchdog(budget=0.5, poll=0.1)
            self._beat_at(tmp_path, victim.pid, BUSY, age=5.0)
            killed = dog.kill_stale(str(tmp_path), [victim.pid])
            assert killed == [victim.pid]
            assert victim.wait(timeout=10) == -9
        finally:
            if victim.poll() is None:
                victim.kill()
                victim.wait()

    def test_kill_ignores_already_dead_pids(self, tmp_path):
        victim = subprocess.Popen([sys.executable, "-c", "pass"])
        victim.wait()
        dog = Watchdog(budget=0.5, poll=0.1)
        assert dog.kill([victim.pid]) == []


class TestStallFaultKinds:
    def test_memory_fault_raises_memory_error(self):
        plan = FaultPlan().add("pipeline.embed", MEMORY, at=1)
        with plan.armed():
            assert fault_point("pipeline.embed", 0) is None
            with pytest.raises(MemoryError, match=r"pipeline\.embed\[1\]"):
                fault_point("pipeline.embed", 1)
        assert plan.pending() == 0

    def test_memory_error_is_transient(self):
        # MemoryError routes through source/sink retry and pool
        # re-dispatch, where pressure from elsewhere can clear.
        assert classify(MemoryError()) == TRANSIENT

    def test_hang_sleeps_then_continues(self):
        plan = FaultPlan(hang_seconds=0.05).add("source.read", HANG, at=0)
        with plan.armed():
            started = time.monotonic()
            assert fault_point("source.read", 0) is None
            assert time.monotonic() - started >= 0.04
        assert plan.fired == [("source.read", 0, HANG)]

    def test_slow_sleeps_its_own_knob(self):
        plan = FaultPlan(slow_seconds=0.03).add("sink.write", SLOW, at=0)
        with plan.armed():
            started = time.monotonic()
            assert fault_point("sink.write", 0) is None
            assert time.monotonic() - started >= 0.02
        assert plan.pending() == 0


class TestReportStallFields:
    def test_new_counters_round_trip_and_merge(self):
        first = ReliabilityReport(watchdog_kills=1, pool_fallbacks=2)
        first.retries["sink.write"] = 2
        first.retries["pool.worker"] = 1
        second = ReliabilityReport(watchdog_kills=2, bad_rows=3)
        second.retries["sink.write"] = 1
        second.retries["pool.worker"] = 1
        first.merge(second)
        payload = first.to_dict()
        assert payload["watchdog_kills"] == 3
        assert payload["pool_fallbacks"] == 2
        assert payload["bad_rows"] == 3
        assert payload["retries"] == {"sink.write": 3, "pool.worker": 2}
        assert payload["total_retries"] == 5
        # every counter field, plus the derived retry total — and none of
        # the memory-budget, backend-fallback or breaker counters
        assert set(payload) == (
            {item.name for item in fields(ReliabilityReport)}
            | {"total_retries"}
        )
        assert not {
            "chunk_shrinks", "chunk_regrows", "backend_fallbacks",
            "breaker_trips",
        } & set(payload)

    def test_every_counter_merges(self):
        names = [
            item.name for item in fields(ReliabilityReport)
            if item.name != "retries"
        ]
        first = ReliabilityReport(**{name: 1 for name in names})
        first.merge(ReliabilityReport(**{name: 2 for name in names}))
        assert all(getattr(first, name) == 3 for name in names)

    def test_stall_recovery_counts_as_recovery(self):
        assert ReliabilityReport(watchdog_kills=1).any_recovery
        assert ReliabilityReport(lease_takeovers=1).any_recovery
        assert ReliabilityReport(pool_fallbacks=1).any_recovery
        assert not ReliabilityReport().any_recovery
        # input and audit counters are not recoveries
        assert not ReliabilityReport(
            bad_rows=4, quarantined_rows=2, chunks_verified=5
        ).any_recovery

    def test_each_recovery_counter_alone_counts_as_recovery(self):
        # any_recovery is derived from the fields, so a counter added
        # later counts unless it is declared an input/audit counter
        audit = {"bad_rows", "quarantined_rows", "chunks_verified"}
        for item in fields(ReliabilityReport):
            report = ReliabilityReport()
            value = getattr(report, item.name)
            if isinstance(value, Counter):
                value["label"] = 1
            else:
                setattr(report, item.name, 1)
            assert report.any_recovery is (item.name not in audit), item.name

    def test_json_round_trip_matches_to_dict(self):
        report = ReliabilityReport(sink_rollbacks=2, corrupt_chunks=1)
        report.retries["source.read"] = 3
        report.retries["pool.worker"] = 1
        assert json.loads(report.to_json()) == report.to_dict()

    def test_summary_names_the_stall_recoveries(self):
        report = ReliabilityReport(watchdog_kills=1, pool_fallbacks=1)
        report.retries["pool.worker"] = 2
        text = report.summary()
        assert "1 watchdog kills" in text
        assert "1 fallbacks" in text
        assert "pool.worker x2" in text
