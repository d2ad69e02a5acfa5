"""Chaos suite: hang/slow/memory stall-matrix over stream and pool paths.

The kill-matrix proves crash-safety; this matrix proves *stall*-safety.
Each cell arms a :class:`~repro.reliability.FaultPlan` with a stall kind
(``hang`` sleeps and continues, ``slow`` throttles, ``memory`` raises
``MemoryError``) at one labeled injection point and asserts the run
recovers — within its :class:`~repro.reliability.Deadline`, through a
checkpoint resume, via the worker watchdog, or by finishing in process
once a cell spends the pool's retry budget — with output
**byte-identical** to an undisturbed run.

Run with ``pytest -m chaos``; ``REPRO_CHAOS_REDUCED=1`` shrinks the
matrix (the CI smoke job does).  All injected sleeps are tens of
milliseconds: stall-safety is about *detecting* silence, not waiting
long.
"""

from __future__ import annotations

import os

import pytest

from repro import MarkKey, Watermark
from repro.core import EmbeddingSpec
from repro.datagen import generate_item_scan
from repro.experiments import (
    MODE_POOLED,
    MODE_SERIAL,
    SweepEngine,
    SweepProtocol,
    shutdown_sweep_pool,
)
from repro.experiments import sweepengine
from repro.attacks import SubsetAlterationAttack
from repro.quality import MaxAlterationFraction
from repro.reliability import (
    HANG,
    IO_ERROR,
    MEMORY,
    SLOW,
    Deadline,
    DeadlineExceededError,
    FaultPlan,
    RetryPolicy,
    Watchdog,
)
from repro.stream import (
    TableChunkSource,
    open_sink,
    stream_mark,
    stream_verify,
    stream_verify_multipass,
)

pytestmark = pytest.mark.chaos

ROWS = 600
CHUNK = 150
N_CHUNKS = ROWS // CHUNK
REDUCED = bool(os.environ.get("REPRO_CHAOS_REDUCED"))

FAST = RetryPolicy(max_attempts=4, base_delay=0.0)

#: one representative index per label — chosen mid-run so recovery has
#: durable chunks both behind and ahead of the stall
STALL_AT = {
    "source.read": 2,
    "sink.write": 2,
    "sink.flush": 2,       # fires inside the retry-wrapped write+flush
    "checkpoint.save": 2,  # chunks_done is 1-based at save time
    "pipeline.embed": 1,   # before the chunk is durable
    "pipeline.chunk": 1,   # after the chunk is durable (crash-equivalent)
}
STALL_LABELS = (
    ["source.read", "pipeline.embed"] if REDUCED else list(STALL_AT)
)
STALL_KINDS = [HANG, MEMORY] if REDUCED else [HANG, SLOW, MEMORY]

#: chunk steps with no in-process handler for exhaustion: a MemoryError
#: there stops the run, and the checkpoint resumes it at this chunk
RESUME_AT = {"pipeline.embed": 1, "pipeline.chunk": 2}


@pytest.fixture(scope="module")
def base():
    return generate_item_scan(ROWS, item_count=80, seed=13)


@pytest.fixture(scope="module")
def key():
    return MarkKey.from_seed("stall")


@pytest.fixture(scope="module")
def wm():
    return Watermark.from_int(0x2AB, 10)


@pytest.fixture(scope="module")
def spec():
    return EmbeddingSpec("Visit_Nbr", "Item_Nbr", 40, 10, 120)


@pytest.fixture(scope="module")
def reference(base, key, wm, spec, tmp_path_factory):
    """Undisturbed streamed outputs: the per-format ground truth."""
    root = tmp_path_factory.mktemp("undisturbed")
    truth = {}
    for fmt in ("csv", "csv.gz"):
        path = root / f"ref.{fmt}"
        stream_mark(
            TableChunkSource(base, chunk_size=CHUNK), wm, key, spec,
            open_sink(path),
        )
        truth[fmt] = path.read_bytes()
    return truth


def _stalled_mark(base, wm, key, spec, out, ckpt, plan, *, resume=False,
                  deadline_s=30.0, **kwargs):
    with plan.armed():
        return stream_mark(
            TableChunkSource(base, chunk_size=CHUNK), wm, key, spec,
            open_sink(out), checkpoint_path=ckpt, resume=resume,
            retry=FAST, deadline=Deadline(deadline_s), **kwargs,
        )


class TestStreamStallMatrix:
    @pytest.mark.parametrize("kind", STALL_KINDS)
    @pytest.mark.parametrize("label", STALL_LABELS)
    def test_stall_recovers_within_deadline_byte_identical(
        self, base, key, wm, spec, reference, tmp_path, chaos_report,
        label, kind,
    ):
        if kind == MEMORY and label in RESUME_AT:
            # Exhaustion in a chunk step is a resumable stop: the
            # previous chunk is durable, and the checkpoint resumes.  Both
            # formats run, so gzip member framing stays pinned too.
            for fmt in ("csv", "csv.gz"):
                out = tmp_path / f"out.{fmt}"
                ckpt = tmp_path / f"run-{fmt}.ckpt"
                plan = FaultPlan().add(label, kind, at=STALL_AT[label])
                with pytest.raises(MemoryError):
                    _stalled_mark(base, wm, key, spec, out, ckpt, plan)
                assert plan.pending() == 0
                result = _stalled_mark(
                    base, wm, key, spec, out, ckpt, FaultPlan(), resume=True
                )
                assert result.resumed_at_chunk == RESUME_AT[label]
                assert result.resumed_at_chunk + result.chunks == N_CHUNKS
                assert out.read_bytes() == reference[fmt]
                chaos_report(result.reliability)
            return
        out, ckpt = tmp_path / "out.csv", tmp_path / "run.ckpt"
        plan = FaultPlan(hang_seconds=0.05, slow_seconds=0.02).add(
            label, kind, at=STALL_AT[label]
        )
        result = _stalled_mark(base, wm, key, spec, out, ckpt, plan)
        assert result.chunks == N_CHUNKS
        assert plan.pending() == 0
        assert out.read_bytes() == reference["csv"]
        if kind == MEMORY:
            assert result.reliability.any_recovery
        chaos_report(result.reliability)

    def test_hang_past_deadline_stops_resumably(
        self, base, key, wm, spec, reference, tmp_path, chaos_report
    ):
        out, ckpt = tmp_path / "out.csv", tmp_path / "run.ckpt"
        # The hang outlives the whole budget: the next chunk boundary
        # must raise with chunk 0 already durable — not block forever,
        # not corrupt the output.
        plan = FaultPlan(hang_seconds=0.4).add("source.read", HANG, at=1)
        with pytest.raises(DeadlineExceededError) as excinfo:
            _stalled_mark(
                base, wm, key, spec, out, ckpt, plan, deadline_s=0.2
            )
        assert excinfo.value.label == "pipeline.chunk"
        assert excinfo.value.position >= 1
        result = _stalled_mark(
            base, wm, key, spec, out, ckpt, FaultPlan(), resume=True
        )
        assert result.resumed_at_chunk >= 1
        assert result.resumed_at_chunk + result.chunks == N_CHUNKS
        assert out.read_bytes() == reference["csv"]
        chaos_report(result.reliability)


    def test_guarded_embed_memory_fault_resumes_byte_identical(
        self, base, key, wm, spec, tmp_path, chaos_report
    ):
        # Guard budgets are chunk-scoped, so a guarded chunk is never
        # split: exhaustion stops the run like an unguarded one, and the
        # resume re-embeds the failed chunk under a fresh guard.
        def constraints():
            return [MaxAlterationFraction(0.02)]

        undisturbed = tmp_path / "undisturbed.csv"
        clean = stream_mark(
            TableChunkSource(base, chunk_size=CHUNK), wm, key, spec,
            open_sink(undisturbed), constraints_factory=constraints,
        )
        assert clean.vetoed > 0  # the guard actually binds
        out, ckpt = tmp_path / "out.csv", tmp_path / "run.ckpt"
        plan = FaultPlan().add("pipeline.embed", MEMORY, at=2)
        with pytest.raises(MemoryError):
            _stalled_mark(
                base, wm, key, spec, out, ckpt, plan,
                constraints_factory=constraints,
            )
        assert plan.pending() == 0
        result = _stalled_mark(
            base, wm, key, spec, out, ckpt, FaultPlan(), resume=True,
            constraints_factory=constraints,
        )
        assert result.resumed_at_chunk == 2
        assert out.read_bytes() == undisturbed.read_bytes()
        assert result.vetoed == clean.vetoed
        assert result.guard_report.vetoes_by_constraint == \
            clean.guard_report.vetoes_by_constraint
        chaos_report(result.reliability)

    def test_memory_fault_in_process_is_not_a_pool_fallback(
        self, base, key, wm, spec, reference, tmp_path, chaos_report
    ):
        # An in-process run has no pool to fall back from: exhaustion
        # propagates under a retry policy, and the resume runs in process
        # again.
        out, ckpt = tmp_path / "out.csv", tmp_path / "run.ckpt"
        plan = FaultPlan().add("pipeline.embed", MEMORY, at=1)
        with pytest.raises(MemoryError):
            _stalled_mark(base, wm, key, spec, out, ckpt, plan, workers=1)
        assert plan.pending() == 0
        result = _stalled_mark(
            base, wm, key, spec, out, ckpt, FaultPlan(), resume=True,
            workers=1,
        )
        assert result.resumed_at_chunk == 1
        assert out.read_bytes() == reference["csv"]
        assert result.parallel is None
        assert result.reliability.pool_fallbacks == 0
        chaos_report(result.reliability)


class TestStreamStallDetection:
    @pytest.fixture(scope="class")
    def marked(self, base, key, wm, spec, tmp_path_factory):
        root = tmp_path_factory.mktemp("marked")
        out = root / "marked.csv"
        stream_mark(
            TableChunkSource(base, chunk_size=CHUNK), wm, key, spec,
            open_sink(out),
        )
        from repro.stream import CSVChunkSource

        return lambda: CSVChunkSource(out, base.schema, chunk_size=CHUNK)

    def test_memory_fault_on_read_recovers(self, marked, key, wm, spec):
        clean = stream_verify(marked(), key, spec, wm)
        plan = FaultPlan().add("source.read", MEMORY, at=1)
        with plan.armed():
            recovered = stream_verify(
                marked(), key, spec, wm, retry=FAST,
                deadline=Deadline(30.0),
            )
        assert recovered.votes == clean.votes
        assert recovered.reliability.source_reopens == 1

    def test_memory_fault_in_a_detect_chunk_propagates(
        self, marked, key, wm, spec
    ):
        # Detection keeps no checkpoint and never slices a chunk:
        # exhaustion after a chunk's tally stops the scan, and a re-run
        # from the start is vote-identical to an undisturbed one.
        clean = stream_verify(marked(), key, spec, wm)
        plan = FaultPlan().add("pipeline.chunk", MEMORY, at=1)
        with plan.armed():
            with pytest.raises(MemoryError):
                stream_verify(
                    marked(), key, spec, wm, retry=FAST,
                    deadline=Deadline(30.0),
                )
        assert plan.pending() == 0
        again = stream_verify(marked(), key, spec, wm)
        assert again.votes == clean.votes
        assert again.verification.matching_bits == \
            clean.verification.matching_bits

    def test_expired_deadline_raises_before_scanning(
        self, marked, key, wm, spec
    ):
        deadline = Deadline(1e-9)
        with pytest.raises(DeadlineExceededError):
            stream_verify(marked(), key, spec, wm, deadline=deadline)

    def test_multipass_honors_the_deadline(self, marked, key, wm, spec):
        with pytest.raises(DeadlineExceededError):
            stream_verify_multipass(
                marked(), [key, MarkKey.from_seed("other")], spec,
                [wm, wm], deadline=Deadline(1e-9),
            )


class TestPoolStallChaos:
    PROTOCOL = SweepProtocol(mark_attribute="Item_Nbr", e=40)
    SEEDS = range(3)

    @pytest.fixture(autouse=True)
    def _pool_cleanup(self):
        yield
        shutdown_sweep_pool()

    def _attacks(self):
        return [
            (x, SubsetAlterationAttack("Item_Nbr", x, 0.7))
            for x in (0.2, 0.5)
        ]

    def _flatten(self, points):
        return [
            (point.x, result)
            for point in points
            for result in point.passes
        ]

    def test_watchdog_kills_hung_worker_and_respawns_bit_identical(
        self, base, chaos_report
    ):
        serial = SweepEngine(mode=MODE_SERIAL).run(
            base, self.PROTOCOL, self._attacks(), self.SEEDS
        )
        engine = SweepEngine(
            mode=MODE_POOLED, max_workers=2,
            retry=RetryPolicy(max_attempts=4, base_delay=0.0),
            watchdog=Watchdog(budget=0.4, poll=0.05),
        )
        # The worker sleeps 60 s mid-task — only the watchdog's SIGKILL
        # (after 0.4 s of heartbeat silence) can get the seed back.
        plan = FaultPlan(hang_seconds=60.0).add("pool.worker", HANG, at=1)
        with plan.armed():
            pooled = engine.run(
                base, self.PROTOCOL, self._attacks(), self.SEEDS
            )
        assert self._flatten(pooled) == self._flatten(serial)
        report = engine.reliability_report()
        assert report.watchdog_kills >= 1
        assert report.pool_respawns >= 1
        assert report.pool_fallbacks == 0
        chaos_report(report)

    def test_slow_worker_is_not_killed(self, base, chaos_report):
        serial = SweepEngine(mode=MODE_SERIAL).run(
            base, self.PROTOCOL, self._attacks(), self.SEEDS
        )
        engine = SweepEngine(
            mode=MODE_POOLED, max_workers=2,
            retry=RetryPolicy(max_attempts=4, base_delay=0.0),
            watchdog=Watchdog(budget=0.5, poll=0.05),
        )
        # Slow is not hung: the worker keeps beating between cells and
        # finishes; a watchdog that killed it would be a false positive.
        plan = FaultPlan(slow_seconds=0.1).add("pool.worker", SLOW, at=1)
        with plan.armed():
            pooled = engine.run(
                base, self.PROTOCOL, self._attacks(), self.SEEDS
            )
        assert self._flatten(pooled) == self._flatten(serial)
        report = engine.reliability_report()
        assert report.watchdog_kills == 0
        assert report.cell_retries == 0
        chaos_report(report)

    def test_worker_memory_fault_retries_without_respawn(
        self, base, chaos_report
    ):
        serial = SweepEngine(mode=MODE_SERIAL).run(
            base, self.PROTOCOL, self._attacks(), self.SEEDS
        )
        engine = SweepEngine(
            mode=MODE_POOLED, max_workers=2,
            retry=RetryPolicy(max_attempts=4, base_delay=0.0),
        )
        plan = FaultPlan().add("pool.worker", MEMORY, at=2)
        with plan.armed():
            pooled = engine.run(
                base, self.PROTOCOL, self._attacks(), self.SEEDS
            )
        assert self._flatten(pooled) == self._flatten(serial)
        report = engine.reliability_report()
        assert report.cell_retries > 0
        assert report.pool_respawns == 0
        assert report.watchdog_kills == 0
        chaos_report(report)

    def test_pooled_deadline_expiry_raises_not_hangs(self, base):
        engine = SweepEngine(mode=MODE_POOLED, max_workers=2, watchdog=False)
        plan = FaultPlan(hang_seconds=60.0).add("pool.worker", HANG, at=0)
        # No watchdog: the deadline alone must turn a 60 s worker hang
        # into a prompt DeadlineExceededError (killing the hung workers
        # on the way out), never an unbounded future.result() wait.
        with plan.armed():
            with pytest.raises(DeadlineExceededError) as excinfo:
                engine.run(
                    base, self.PROTOCOL, self._attacks(), self.SEEDS,
                    deadline=Deadline(0.4),
                )
        assert excinfo.value.label == "pool.worker"

    def test_spent_retry_budget_finishes_hoisted_and_next_run_pools(
        self, base, chaos_report
    ):
        serial = SweepEngine(mode=MODE_SERIAL).run(
            base, self.PROTOCOL, self._attacks(), self.SEEDS
        )
        engine = SweepEngine(
            mode=MODE_POOLED, max_workers=2,
            retry=RetryPolicy(max_attempts=2, base_delay=0.0),
        )
        # Seed 0 fails past its two attempts: the run finishes on the
        # bit-identical hoisted path.
        plan = FaultPlan().add("pool.worker", IO_ERROR, at=0, times=3)
        with plan.armed():
            first = engine.run(
                base, self.PROTOCOL, self._attacks(), self.SEEDS
            )
        assert self._flatten(first) == self._flatten(serial)
        assert plan.pending() == 1  # the third trigger was never drawn
        report = engine.reliability_report()
        assert report.pool_fallbacks == 1
        assert report.retries["pool.worker"] == 1
        assert sweepengine._pool.executor is None
        # No cooldown: the next run goes back to the pool.
        second = engine.run(base, self.PROTOCOL, self._attacks(), self.SEEDS)
        assert self._flatten(second) == self._flatten(serial)
        assert engine.reliability_report().pool_fallbacks == 1
        assert sweepengine._pool.executor is not None
        chaos_report(engine.reliability_report())
