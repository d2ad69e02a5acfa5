"""Chaos suite for the multicore streaming path.

Faults aimed at the worker pool (SIGKILL, hard hangs, a spent retry
budget) must never change a verdict or a byte of marked output: the
ordered merge re-dispatches or finishes the run in process, and the
result stays bit-identical to the serial path.  A run that stops instead
— a deadline, or ``retry=None`` — must leave no worker behind that the
next run could trip over.  The torn-commit matrix SIGKILLs a *parallel*
embed coordinator in a real subprocess and resumes it with workers on —
the resumed file must equal an uninterrupted serial run byte for byte.

Run with ``pytest -m chaos``; ``REPRO_CHAOS_REDUCED=1`` shrinks the
kill matrix to one boundary (the CI smoke job does).
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro import MarkKey, Watermark
from repro.core import EmbeddingSpec
from repro.datagen import generate_item_scan
from repro.reliability import (
    HANG,
    IO_ERROR,
    KILL,
    SLOW,
    Deadline,
    DeadlineExceededError,
    FaultPlan,
    InjectedFaultError,
    RetryPolicy,
    Watchdog,
)
from repro.stream import parallel
from repro.stream import (
    TableChunkSource,
    open_sink,
    shutdown_stream_pool,
    stream_detect,
    stream_mark,
)

pytestmark = pytest.mark.chaos

ROWS = 1200
CHUNK = 150
N_CHUNKS = ROWS // CHUNK
REDUCED = bool(os.environ.get("REPRO_CHAOS_REDUCED"))

BOUNDARIES = [1] if REDUCED else [0, 1, N_CHUNKS // 2, N_CHUNKS - 1]

_WORKER = textwrap.dedent("""
    import sys
    from repro import MarkKey, Watermark
    from repro.core import EmbeddingSpec
    from repro.datagen import generate_item_scan
    from repro.reliability import KILL, FaultPlan
    from repro.stream import TableChunkSource, open_sink, stream_mark

    at, out, ckpt = sys.argv[1:4]
    base = generate_item_scan({rows}, item_count=80, seed=19)
    plan = FaultPlan().add("pipeline.chunk", KILL, at=int(at))
    with plan.armed():
        stream_mark(
            TableChunkSource(base, chunk_size={chunk}),
            Watermark.from_int(0x2AB, 10),
            MarkKey.from_seed("chaos-parallel"),
            EmbeddingSpec("Visit_Nbr", "Item_Nbr", 40, 10, 120),
            open_sink(out),
            checkpoint_path=ckpt,
            workers=2,
        )
    raise SystemExit("unreachable: the injected kill never fired")
""").format(rows=ROWS, chunk=CHUNK)


@pytest.fixture(scope="module", autouse=True)
def _pool_teardown():
    yield
    shutdown_stream_pool()


@pytest.fixture(scope="module")
def base():
    return generate_item_scan(ROWS, item_count=80, seed=19)


@pytest.fixture(scope="module")
def key():
    return MarkKey.from_seed("chaos-parallel")


@pytest.fixture(scope="module")
def wm():
    return Watermark.from_int(0x2AB, 10)


@pytest.fixture(scope="module")
def spec():
    return EmbeddingSpec("Visit_Nbr", "Item_Nbr", 40, 10, 120)


@pytest.fixture(scope="module")
def serial_verdict(base, key, spec):
    return stream_detect(TableChunkSource(base, chunk_size=CHUNK), key, spec)


def _assert_same_detection(parallel, serial):
    assert parallel.votes == serial.votes
    assert parallel.detection.watermark == serial.detection.watermark
    assert parallel.detection.fit_count == serial.detection.fit_count
    assert parallel.rows == serial.rows


class TestParallelDetectChaos:
    def test_worker_sigkill_redispatches_bit_identical(
        self, base, key, spec, serial_verdict, chaos_report
    ):
        shutdown_stream_pool()
        plan = FaultPlan().add("pool.worker", KILL, at=1)
        with plan.armed():
            verdict = stream_detect(
                TableChunkSource(base, chunk_size=CHUNK), key, spec,
                workers=2, retry=RetryPolicy(max_attempts=4, base_delay=0.0),
            )
        _assert_same_detection(verdict, serial_verdict)
        assert verdict.reliability.pool_respawns >= 1
        assert verdict.parallel.redispatches >= 1
        chaos_report(verdict.reliability)

    def test_hung_worker_is_watchdogged_and_redispatched(
        self, base, key, spec, serial_verdict, chaos_report
    ):
        shutdown_stream_pool()
        plan = FaultPlan(hang_seconds=60.0).add("pool.worker", HANG, at=2)
        started = time.monotonic()
        with plan.armed():
            verdict = stream_detect(
                TableChunkSource(base, chunk_size=CHUNK), key, spec,
                workers=2, retry=RetryPolicy(max_attempts=4, base_delay=0.0),
                watchdog=Watchdog(budget=1.0, poll=0.2),
            )
        wall = time.monotonic() - started
        _assert_same_detection(verdict, serial_verdict)
        assert verdict.reliability.watchdog_kills >= 1
        assert wall < 30.0, f"watchdog recovery took {wall:.1f}s"
        chaos_report(verdict.reliability)

    def test_spent_retry_budget_finishes_in_process_bit_identical(
        self, base, key, spec, serial_verdict, chaos_report
    ):
        shutdown_stream_pool()
        # chunk 0 kills its worker on both of its two attempts: the
        # budget is spent, and every chunk finishes in the coordinator
        plan = FaultPlan().add("pool.worker", KILL, at=0, times=2)
        retry = RetryPolicy(max_attempts=2, base_delay=0.0)
        with plan.armed():
            verdict = stream_detect(
                TableChunkSource(base, chunk_size=CHUNK), key, spec,
                workers=2, retry=retry,
            )
        _assert_same_detection(verdict, serial_verdict)
        assert plan.pending() == 0
        assert verdict.reliability.pool_fallbacks == 1
        assert verdict.reliability.pool_respawns == 1
        assert verdict.parallel.chunks_parallel == 0
        assert verdict.parallel.chunks_serial == N_CHUNKS
        # no cooldown: the next run uses the pool again
        again = stream_detect(
            TableChunkSource(base, chunk_size=CHUNK), key, spec,
            workers=2, retry=retry,
        )
        _assert_same_detection(again, serial_verdict)
        assert again.parallel.chunks_parallel == N_CHUNKS
        assert again.reliability.pool_fallbacks == 0
        chaos_report(verdict.reliability)

    def test_fail_fast_raises_without_falling_back(self, base, key, spec):
        shutdown_stream_pool()
        plan = FaultPlan().add("pool.worker", IO_ERROR, at=0)
        with plan.armed(), pytest.raises(InjectedFaultError) as excinfo:
            stream_detect(
                TableChunkSource(base, chunk_size=CHUNK), key, spec,
                workers=2, retry=None,
            )
        assert (excinfo.value.label, excinfo.value.index) == (
            "pool.worker", 0,
        )
        assert plan.pending() == 0

    def test_fail_fast_worker_crash_leaves_no_broken_pool(
        self, base, key, spec, serial_verdict
    ):
        shutdown_stream_pool()
        plan = FaultPlan().add("pool.worker", KILL, at=1)
        with plan.armed(), pytest.raises(BrokenProcessPool):
            stream_detect(
                TableChunkSource(base, chunk_size=CHUNK), key, spec,
                workers=2,
            )
        # the broken executor was retired before the raise, so runs with
        # the same run state get a fresh pool
        for _ in range(2):
            again = stream_detect(
                TableChunkSource(base, chunk_size=CHUNK), key, spec,
                workers=2,
            )
            _assert_same_detection(again, serial_verdict)

    @pytest.mark.parametrize("observed_at", [1, 4])
    def test_deadline_stop_retires_the_hung_pool(self, base, spec, observed_at):
        shutdown_stream_pool()
        # No watchdog: a worker hangs on chunk 1, and the deadline stops
        # the run either in the wait on chunk 1 or, once chunk 0 has
        # committed, in a slow read-ahead of chunk 4
        plan = FaultPlan(hang_seconds=30.0, slow_seconds=3.0)
        plan.add("pool.worker", HANG, at=1)
        if observed_at == 4:
            plan.add("source.read", SLOW, at=4)
        with plan.armed(), pytest.raises(DeadlineExceededError) as excinfo:
            stream_detect(
                TableChunkSource(base, chunk_size=CHUNK),
                MarkKey.from_seed("hung"), spec, workers=2,
                deadline=Deadline(1.5), watchdog=False,
            )
        assert (excinfo.value.label, excinfo.value.position) == (
            "pipeline.chunk", observed_at,
        )
        assert parallel._pool.executor is None
        # the next run, under another key, must not wait on the hung
        # worker when it replaces the pool
        other = MarkKey.from_seed("after-the-hang")
        started = time.monotonic()
        verdict = stream_detect(
            TableChunkSource(base, chunk_size=CHUNK), other, spec,
            workers=2, deadline=Deadline(10.0),
        )
        assert time.monotonic() - started < 10.0
        _assert_same_detection(
            verdict,
            stream_detect(TableChunkSource(base, chunk_size=CHUNK), other, spec),
        )


class TestParallelTornCommit:
    @pytest.fixture(scope="class")
    def reference(self, base, key, wm, spec, tmp_path_factory):
        path = tmp_path_factory.mktemp("uninterrupted") / "ref.csv.gz"
        stream_mark(
            TableChunkSource(base, chunk_size=CHUNK), wm, key, spec,
            open_sink(path),
        )
        return path.read_bytes()

    @pytest.mark.parametrize("boundary", BOUNDARIES)
    def test_sigkill_mid_parallel_embed_resumes_byte_identical(
        self, base, key, wm, spec, reference, tmp_path, chaos_report,
        boundary,
    ):
        out, ckpt = tmp_path / "out.csv.gz", tmp_path / "run.ckpt"
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        # No pipes: the coordinator's orphaned pool workers inherit
        # stdout/stderr, so captured pipes would never reach EOF after
        # the SIGKILL.  A fresh session lets us reap those orphans.
        errlog = tmp_path / "crash.stderr"
        with open(errlog, "wb") as stderr:
            proc = subprocess.Popen(
                [sys.executable, "-c", _WORKER, str(boundary), str(out),
                 str(ckpt)],
                env=env, stdout=subprocess.DEVNULL, stderr=stderr,
                start_new_session=True,
            )
            try:
                rc = proc.wait(timeout=120)
            finally:
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except (ProcessLookupError, PermissionError):
                    pass
        assert rc == -signal.SIGKILL, (
            f"expected SIGKILL at pipeline.chunk[{boundary}], "
            f"got rc={rc}\nstderr: {errlog.read_text()}"
        )
        result = stream_mark(
            TableChunkSource(base, chunk_size=CHUNK), wm, key, spec,
            open_sink(out), checkpoint_path=ckpt, resume=True, workers=2,
        )
        assert result.resumed_at_chunk == boundary + 1
        assert result.resumed_at_chunk + result.chunks == N_CHUNKS
        assert out.read_bytes() == reference
        chaos_report(result.reliability)
