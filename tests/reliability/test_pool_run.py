"""The one ordered pool run, driven through its three callers.

Stream chunks, sweep seeds and the analysis Monte-Carlo trials
(``pool_table_tasks``) all run through
:class:`repro.reliability.pool.OrderedRun`, so they share one failure
rule: a transient failure is re-dispatched under the retry budget, a task
that spends the budget finishes the run in process (keeping what the pool
already committed), a permanent error raises at once, and a pool that
cannot start counts as a failed task.
"""

from __future__ import annotations

import errno

import pytest

from repro import MarkKey, Watermark
from repro.attacks import Attack, SubsetAlterationAttack
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
from repro.reliability import (
    HANG,
    IO_ERROR,
    KILL,
    Deadline,
    DeadlineExceededError,
    FaultPlan,
    RetryPolicy,
)
from repro.reliability.pool import PersistentPool
from repro.stream import TableChunkSource, shutdown_stream_pool, stream_verify

PROTOCOL = SweepProtocol(mark_attribute="Item_Nbr", e=40)
FAST = RetryPolicy(max_attempts=2, base_delay=0.0)
CHUNK = 150


@pytest.fixture(autouse=True)
def _pool_cleanup():
    yield
    shutdown_sweep_pool()
    shutdown_stream_pool()


@pytest.fixture(scope="module")
def base():
    return generate_item_scan(1200, item_count=80, seed=13)


def _attacks(xs=(0.2, 0.5)):
    return [(x, SubsetAlterationAttack("Item_Nbr", x, 0.7)) for x in xs]


def _flatten(points):
    return [(point.x, result) for point in points for result in point.passes]


def _serial(base, attacks, seeds):
    return _flatten(
        SweepEngine(mode=MODE_SERIAL).run(base, PROTOCOL, attacks, seeds)
    )


class RefusingAttack(Attack):
    """An attack that always raises a permanent error."""

    name = "refusing"

    def apply(self, table, rng):
        raise ValueError("this attack refuses every table")


class TallyingAttack(Attack):
    """A subset alteration that appends one line to ``path`` each time
    it is applied, in whichever process applies it."""

    name = "tallying"

    def __init__(self, path, x):
        self.path = str(path)
        self.inner = SubsetAlterationAttack("Item_Nbr", x, 0.7)

    def apply(self, table, rng):
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write("applied\n")
        return self.inner.apply(table, rng)


def _row_count(table, extra):
    """A pool_table_tasks task: the table's row count plus ``extra``."""
    return len(table) + extra


def _refuse(table, extra):
    """A pool_table_tasks task that raises a permanent error."""
    raise ValueError(f"refused task {extra}")


def _no_fork(*args, **kwargs):
    raise OSError(errno.EAGAIN, "fork: resource temporarily unavailable")


class TestPooledSweep:
    def test_a_permanent_error_raises_at_once(self, base, caplog):
        engine = SweepEngine(mode=MODE_POOLED, max_workers=2)
        with caplog.at_level("WARNING"), pytest.raises(ValueError):
            engine.run(base, PROTOCOL, [(0.3, RefusingAttack())], range(3))
        assert engine.reliability_report().pool_fallbacks == 0
        assert not any(
            "falling back" in record.getMessage() for record in caplog.records
        )
        assert engine.embeds_performed == 0

    def test_a_spent_budget_keeps_the_seeds_the_pool_committed(self, base):
        seeds = range(6)
        serial = _serial(base, _attacks(), seeds)
        engine = SweepEngine(mode=MODE_POOLED, max_workers=2, retry=FAST)
        # Seed 3 fails on both of its attempts; seeds 0-2 have committed
        # from the pool by then, so only seeds 3-5 run in process.
        plan = FaultPlan().add("pool.worker", IO_ERROR, at=3, times=3)
        with plan.armed():
            pooled = engine.run(base, PROTOCOL, _attacks(), seeds)
        assert _flatten(pooled) == serial
        assert engine.embeds_performed < 6
        assert plan.pending() == 1
        assert engine.reliability_report().pool_fallbacks == 1
        assert sweepengine._pool.executor is None

    def test_a_planned_fault_replays_before_the_first_cell(
        self, base, tmp_path
    ):
        tally = tmp_path / "applied.txt"
        attacks = [(x, TallyingAttack(tally, x)) for x in (0.2, 0.4, 0.6)]
        engine = SweepEngine(mode=MODE_POOLED, max_workers=1, retry=FAST)
        plan = FaultPlan().add("pool.worker", IO_ERROR, at=0)
        with plan.armed():
            engine.run(base, PROTOCOL, attacks, [0])
        assert plan.pending() == 0
        # The failed attempt applied no attack: each cell ran once.
        assert tally.read_text(encoding="utf-8").count("applied") == 3
        assert engine.reliability_report().cell_retries == 3

    def test_a_deadline_stop_reports_the_head_seed(self, base):
        engine = SweepEngine(mode=MODE_POOLED, max_workers=2, watchdog=False)
        plan = FaultPlan(hang_seconds=60.0).add("pool.worker", HANG, at=10)
        with plan.armed(), pytest.raises(DeadlineExceededError) as excinfo:
            engine.run(
                base, PROTOCOL, _attacks(), range(10, 13),
                deadline=Deadline(0.4),
            )
        assert (excinfo.value.label, excinfo.value.position) == (
            "pool.worker", 10,
        )
        assert sweepengine._pool.executor is None

    def test_cell_retries_count_redispatched_seeds(self, base):
        seeds = range(4)
        serial = _serial(base, _attacks(), seeds)
        engine = SweepEngine(
            mode=MODE_POOLED, max_workers=1,
            retry=RetryPolicy(max_attempts=4, base_delay=0.0),
        )
        # The one worker dies on seed 0 with seeds 0 and 1 in flight:
        # both are re-dispatched, and seeds 2 and 3 go out afterwards.
        plan = FaultPlan().add("pool.worker", KILL, at=0)
        with plan.armed():
            pooled = engine.run(base, PROTOCOL, _attacks(), seeds)
        assert _flatten(pooled) == serial
        report = engine.reliability_report()
        assert report.pool_respawns == 1
        assert report.cell_retries == 2 * len(_attacks())

    def test_a_pool_that_cannot_start_finishes_in_process(
        self, base, monkeypatch
    ):
        serial = _serial(base, _attacks(), range(3))
        monkeypatch.setattr(PersistentPool, "ensure", _no_fork)
        engine = SweepEngine(mode=MODE_POOLED, max_workers=2, retry=FAST)
        pooled = engine.run(base, PROTOCOL, _attacks(), range(3))
        assert _flatten(pooled) == serial
        assert engine.reliability_report().pool_fallbacks == 1


class TestTableTasks:
    def test_a_spent_budget_finishes_the_batch_in_process(self, base):
        # The default policy allows three attempts: task 1 fails on all.
        plan = FaultPlan().add("pool.worker", IO_ERROR, at=1, times=3)
        with plan.armed():
            results = sweepengine.pool_table_tasks(
                base, _row_count, [(0,), (1,), (2,)], max_workers=2,
            )
        assert results == [len(base), len(base) + 1, len(base) + 2]
        assert plan.pending() == 0
        assert sweepengine._pool.executor is None

    def test_a_permanent_error_raises(self, base):
        with pytest.raises(ValueError, match="refused task 0"):
            sweepengine.pool_table_tasks(
                base, _refuse, [(0,), (1,)], max_workers=2,
            )


class TestStreamPoolStart:
    @pytest.fixture()
    def run(self, base):
        key = MarkKey.from_seed("pool-start")
        spec = EmbeddingSpec("Visit_Nbr", "Item_Nbr", 40, 10, 60)
        watermark = Watermark.from_int(0x2AB, 10)

        def verify(**kwargs):
            return stream_verify(
                TableChunkSource(base, chunk_size=CHUNK), key, spec,
                watermark, **kwargs,
            )

        return verify

    def test_a_pool_that_cannot_start_finishes_in_process(
        self, run, monkeypatch
    ):
        expected = run()
        monkeypatch.setattr(PersistentPool, "ensure", _no_fork)
        verdict = run(workers=2, retry=FAST)
        assert verdict.votes == expected.votes
        assert verdict.reliability.pool_fallbacks == 1
        assert verdict.parallel.chunks_parallel == 0
        assert verdict.parallel.chunks_serial == expected.chunks

    def test_fail_fast_raises_when_the_pool_cannot_start(
        self, run, monkeypatch
    ):
        monkeypatch.setattr(PersistentPool, "ensure", _no_fork)
        with pytest.raises(OSError) as excinfo:
            run(workers=2, retry=None)
        assert excinfo.value.errno == errno.EAGAIN
