"""One persistent worker pool, one ordered run over it, one failure rule.

The parallel stream pipeline and the sweep engine each keep a single
``ProcessPoolExecutor`` alive across runs, keyed by the state its workers
were initialized with — warm worker caches are only valid for that
state.  Stream chunks, sweep seeds and the analysis Monte-Carlo trials
(:func:`~repro.experiments.sweepengine.pool_table_tasks`) all run through
this module:

* **lifecycle** — :class:`PersistentPool` creates the executor for a
  ``(token, workers)`` key, reuses it while the key holds, retires it
  (and its heartbeat directory) on a new key or on shutdown, and
  :meth:`~PersistentPool.retire` sends its workers ``SIGKILL`` first,
  because ``Executor.shutdown`` *joins* workers and a hung one would
  outlive it;
* **the run** — :class:`OrderedRun` is the only code that submits work
  to an executor.  It keeps ``2 × workers`` tasks in flight and commits
  their results strictly in task order;
* **the wait** — :meth:`PersistentPool.wait` is the only place a pool
  result is read: it polls in watchdog-sized slices capped by the run's
  :class:`~repro.reliability.Deadline`, lets the
  :class:`~repro.reliability.Watchdog` kill workers silent mid-task, and
  on expiry retires the pool before raising
  :class:`~repro.reliability.DeadlineExceededError`;
* **the failure rule** — a transient failure (a worker error, a dead or
  killed worker, a pool that cannot start or accept a task) re-dispatches
  the task under the run's :class:`~repro.reliability.RetryPolicy`
  (:func:`spend_attempt`), respawning a broken pool.  Every task is a
  pure function of its keyed inputs, so when one spends the whole budget
  the run finishes in process with the caller's in-process function —
  same bits, one core — logging one warning and counting one
  ``pool_fallbacks``.  ``retry=None`` fails fast, and a permanent error
  raises at once;
* **heartbeats** — every worker beats into the pool-scoped directory
  (:func:`heartbeat`) that the :class:`~repro.reliability.Watchdog`
  resolved by :func:`resolve_watchdog` scans;
* **faults** — an armed :class:`~repro.reliability.FaultPlan` lives in
  the parent, so pool workers start disarmed; the run draws each
  ``"pool.worker"`` fault at submit time (:func:`planned_fault`) and
  ships it with the task, and the worker replays it (:func:`misbehave`)
  before the task's work starts.  The trigger is consumed at the first
  submit, so a retried task runs clean.
"""

from __future__ import annotations

import logging
import os
import shutil
import signal
import tempfile
import time
from collections import deque
from collections.abc import Callable, Iterable
from concurrent.futures import BrokenExecutor, Future
from concurrent.futures import TimeoutError as FuturesTimeout
from dataclasses import dataclass, field
from typing import Any

from .deadline import Deadline, check_deadline
from .faults import (
    HANG,
    KILL,
    MEMORY,
    SLOW,
    InjectedFaultError,
    active_plan,
    disarm,
)
from .report import ReliabilityReport
from .retry import (
    TRANSIENT,
    TRANSIENT_TYPES,
    RetryError,
    RetryPolicy,
    classify,
)
from .watchdog import BUSY, IDLE, Watchdog, beat

logger = logging.getLogger(__name__)

#: the label of pool-task faults and retries (and of sweep deadline stops)
POOL_LABEL = "pool.worker"

#: tasks in flight as a multiple of the worker count: enough to keep
#: every worker busy while the head commits, few enough that the
#: caller's memory stays O(workers × task)
READAHEAD_FACTOR = 2

#: the heartbeat directory of the pool this process works for (set in
#: each worker by the pool initializer; ``None`` in the parent)
_HEARTBEAT_DIR: str | None = None


def _init_worker(heartbeat_dir: str, initializer, initargs: tuple) -> None:
    """Pool initializer: disarm any inherited fault plan, install the
    heartbeat directory, run the caller's initializer, report idle."""
    global _HEARTBEAT_DIR
    disarm()
    _HEARTBEAT_DIR = heartbeat_dir
    initializer(*initargs)
    beat(heartbeat_dir, state=IDLE)


def heartbeat(state: str = BUSY) -> None:
    """Worker-side beat into the pool's heartbeat directory."""
    beat(_HEARTBEAT_DIR, state=state)


def resolve_watchdog(watchdog: Watchdog | bool | None) -> Watchdog | None:
    """A ``watchdog=`` parameter as the watchdog over a pool: ``None``
    takes the default (a pool wait should never block forever on a hung
    worker), ``False`` disables it."""
    if watchdog is False:
        return None
    if isinstance(watchdog, Watchdog):
        return watchdog
    return Watchdog()


class PersistentPool:
    """One reusable ``ProcessPoolExecutor`` slot with its heartbeat
    directory (named ``<prefix>XXXX`` under the temp directory)."""

    def __init__(self, prefix: str):
        self.prefix = prefix
        self.executor = None
        self.token: tuple | None = None
        self.heartbeat_dir: str | None = None

    def ensure(self, token, workers: int, initializer, *initargs):
        """The executor for ``(token, workers)``, created or reused.

        A different key retires the old pool first; every new worker
        runs ``initializer(*initargs)`` once.
        """
        if self.executor is not None and self.token == (token, workers):
            return self.executor
        self.shutdown()
        from concurrent.futures import ProcessPoolExecutor

        self.heartbeat_dir = tempfile.mkdtemp(prefix=self.prefix)
        self.executor = ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_worker,
            initargs=(self.heartbeat_dir, initializer, initargs),
        )
        self.token = (token, workers)
        return self.executor

    def shutdown(self) -> None:
        """Retire the executor and remove its heartbeat directory."""
        if self.executor is not None:
            self.executor.shutdown(wait=True, cancel_futures=True)
        if self.heartbeat_dir is not None:
            shutil.rmtree(self.heartbeat_dir, ignore_errors=True)
        self.executor = None
        self.token = None
        self.heartbeat_dir = None

    def worker_pids(self) -> list[int]:
        """PIDs of the live workers (empty when no pool is up)."""
        if self.executor is None:
            return []
        return list((getattr(self.executor, "_processes", None) or {}).keys())

    def retire(self) -> None:
        """``SIGKILL`` every live worker, then retire the executor: a run
        that stops or gives up on the pool leaves no worker running, and
        the next run starts a fresh pool."""
        Watchdog.kill(self.worker_pids())
        self.shutdown()

    def check_deadline(
        self, deadline: Deadline | None, label: str, position: int
    ) -> None:
        """Raise :class:`~repro.reliability.DeadlineExceededError` at
        ``label[position]`` once ``deadline`` has expired, retiring the
        pool first so no hung task outlives the stop."""
        if deadline is not None and deadline.expired():
            self.retire()
            deadline.check(label, position)

    def wait(
        self,
        future,
        *,
        watchdog: Watchdog | None,
        deadline: Deadline | None,
        label: str,
        position: int,
        report: ReliabilityReport,
    ):
        """The result of ``future``, a task on this pool.

        Polls in watchdog-sized slices (1 s without a watchdog) capped by
        ``deadline``.  Each wakeup lets ``watchdog`` ``SIGKILL`` workers
        silent mid-task past its budget — counted as ``watchdog_kills``;
        the broken executor then raises from the future and the caller
        re-dispatches.  Once ``deadline`` expires the pool is retired and
        the deadline error raised at ``label[position]``.
        """
        poll = watchdog.poll if watchdog is not None else 1.0
        while True:
            self.check_deadline(deadline, label, position)
            try:
                return future.result(
                    timeout=poll if deadline is None else deadline.timeout(poll)
                )
            except FuturesTimeout:
                pass
            if watchdog is None or self.heartbeat_dir is None:
                continue
            killed = watchdog.kill_stale(
                self.heartbeat_dir, self.worker_pids()
            )
            if killed:
                report.watchdog_kills += len(killed)
                logger.warning(
                    "watchdog killed %d hung pool worker(s) silent past "
                    "%.6gs: %s", len(killed), watchdog.budget, killed,
                )


def spend_attempt(
    policy: RetryPolicy,
    attempt: int,
    exc: BaseException,
    report: ReliabilityReport,
) -> None:
    """Count failed attempt ``attempt`` (1-based) of a pool task against
    ``policy``: below the budget, record the retry and back off; at the
    budget, raise :class:`~repro.reliability.RetryError` from ``exc`` —
    the caller then finishes the run in process."""
    if attempt >= policy.max_attempts:
        raise RetryError(POOL_LABEL, attempt) from exc
    report.record_retry(POOL_LABEL, attempt, exc)
    time.sleep(policy.delay(POOL_LABEL, attempt))


def planned_fault(index: int) -> tuple[str, float] | None:
    """Parent side: consume the armed plan's ``"pool.worker"`` trigger at
    ``index`` as a shippable ``(kind, seconds)`` pair (the stall length
    for ``hang``/``slow``), or ``None`` when nothing is scheduled."""
    plan = active_plan()
    if plan is None:
        return None
    kind = plan.draw(POOL_LABEL, index)
    if kind is None:
        return None
    if kind == HANG:
        return kind, plan.hang_seconds
    if kind == SLOW:
        return kind, plan.slow_seconds
    return kind, 0.0


def misbehave(fault: tuple[str, float] | None, index: int) -> None:
    """Worker side: replay a fault shipped by :func:`planned_fault` —
    ``SIGKILL`` for ``kill``; a stall followed by a transient error for
    ``hang`` (the watchdog or the retry path recovers, whichever notices
    first); a stall for ``slow``; ``MemoryError`` for ``memory``; and
    :class:`InjectedFaultError` otherwise."""
    if fault is None:
        return
    kind, seconds = fault
    if kind == KILL:
        os.kill(os.getpid(), signal.SIGKILL)  # pragma: no cover — fatal
    if kind == HANG:
        time.sleep(seconds)
        raise InjectedFaultError(POOL_LABEL, index, kind)
    if kind == SLOW:
        time.sleep(seconds)
        return
    if kind == MEMORY:
        raise MemoryError(f"injected memory fault at pool.worker[{index}]")
    raise InjectedFaultError(POOL_LABEL, index, kind)


def _pool_call(task_fn, index: int, task, fault) -> Any:
    """Worker side of :class:`OrderedRun`: beat busy, replay the fault
    shipped with the task, return ``task_fn(task)``, beat idle."""
    heartbeat()
    try:
        misbehave(fault, index)
        return task_fn(task)
    finally:
        heartbeat(IDLE)


@dataclass
class ParallelReport:
    """Telemetry of one :class:`OrderedRun` (a parallel stream run's
    ``result.parallel``)."""

    workers: int
    #: tasks (chunks) whose result came from a pool worker
    chunks_parallel: int = 0
    #: tasks finished in process after a task spent the retry budget on
    #: the pool (bit-identical, one core)
    chunks_serial: int = 0
    #: tasks re-submitted after a worker failure (bit-identical replays)
    redispatches: int = 0
    #: last telemetry snapshot per worker pid — for stream runs, chunks
    #: processed, kernel launches and digests computed since the worker
    #: was forked
    worker_stats: dict[int, dict[str, Any]] = field(default_factory=dict)

    def note(self, stats: dict[str, Any]) -> None:
        self.worker_stats[stats["pid"]] = {
            key: value for key, value in stats.items() if key != "pid"
        }


class OrderedRun:
    """Ordered commit over ``(index, task)`` pairs, on a pool or in process.

    The caller supplies four things: ``open_pool()``, which returns the
    executor of ``pool`` for this run (``None``: every task runs in
    process — no pool, nothing pickled); ``pool_task(task)``, a
    picklable function a worker runs; ``local_task(task)``, which gives
    the same result in this process; and ``commit(task, result)``, which
    is only ever called in task order — the invariant every bit-identity
    claim of its callers rests on.  ``index`` addresses the task's
    ``"pool.worker"`` fault and its deadline stop at ``label[index]``.

    On the pool, ``READAHEAD_FACTOR × workers`` tasks are in flight.  A
    transient failure re-dispatches the task under ``retry``, a broken
    pool is respawned and its unfinished tasks re-dispatched, and a task
    that spends the budget finishes the run in process.  ``retry=None``
    fails fast; a permanent error always raises.
    """

    def __init__(
        self,
        pool: PersistentPool,
        open_pool: Callable[[], Any] | None,
        pool_task: Callable[[Any], Any],
        local_task: Callable[[Any], Any],
        commit: Callable[[Any, Any], None],
        *,
        workers: int,
        label: str,
        retry: RetryPolicy | None,
        deadline: Deadline | None,
        watchdog: Watchdog | None,
        reliability: ReliabilityReport,
    ):
        self.pool = pool
        self.open_pool = open_pool
        self.pool_task = pool_task
        self.local_task = local_task
        self.commit = commit
        self.label = label
        self.retry = retry
        self.deadline = deadline
        self.watchdog = watchdog
        self.reliability = reliability
        self.report = ParallelReport(workers=workers)
        self.window = READAHEAD_FACTOR * workers
        #: ``[future, index, task, failed attempts]`` in task order
        self.in_flight: deque[list] = deque()
        self.executor = None
        self.in_process = open_pool is None

    def run(self, tasks: Iterable[tuple[int, Any]]) -> ParallelReport:
        for index, task in tasks:
            if self.in_process:
                self._run_here(index, task)
                continue
            self.pool.check_deadline(self.deadline, self.label, index)
            entry = [None, index, task, 0]
            self._submit(entry)
            self.in_flight.append(entry)
            while len(self.in_flight) >= self.window:
                self._commit_head()
        while self.in_flight:
            self._commit_head()
        return self.report

    def _submit(self, entry: list) -> None:
        try:
            if self.executor is None:
                self.executor = self.open_pool()
            entry[0] = self.executor.submit(
                _pool_call, self.pool_task, entry[1], entry[2],
                planned_fault(entry[1]),
            )
        except (BrokenExecutor, *TRANSIENT_TYPES) as exc:
            # A pool that cannot start (fork failing with EAGAIN) or lost
            # a worker between commits: the task fails, and its commit
            # takes the usual recovery path.
            entry[0] = Future()
            entry[0].set_exception(exc)

    def _run_here(self, index: int, task) -> None:
        check_deadline(self.deadline, self.label, index)
        self.commit(task, self.local_task(task))
        self.report.chunks_serial += 1

    def _commit_head(self) -> None:
        entry = self.in_flight[0]
        future, index, task, _ = entry
        try:
            result = self.pool.wait(
                future, watchdog=self.watchdog, deadline=self.deadline,
                label=self.label, position=index, report=self.reliability,
            )
        except BrokenExecutor as exc:
            # Retire the broken executor before anything else, the
            # fail-fast raise included: the next run on this pool would
            # otherwise be handed it.
            self.pool.retire()
            self.executor = None
            if self.retry is None:
                raise
            self._recover(entry, exc, broken=True)
            return
        except TRANSIENT_TYPES as exc:
            # Anything outside the shared transient taxonomy propagates
            # untouched (a logic error replayed is a logic error twice);
            # ``classify`` still vets members of the tuple, because some
            # carry a permanent payload (e.g. ``OSError`` + ENOSPC).
            if classify(exc) is not TRANSIENT or self.retry is None:
                raise
            logger.warning(
                "%s[%d] failed with transient %r; recovering",
                self.label, index, exc,
            )
            self._recover(entry, exc, broken=False)
            return
        self.in_flight.popleft()
        self.commit(task, result)
        self.report.chunks_parallel += 1

    def _recover(self, entry: list, exc: BaseException, broken: bool) -> None:
        """Re-dispatch a failed task (its fault trigger was consumed at
        the first submit, so the replay runs clean).  A broken pool
        respawns and re-dispatches every unfinished task in order.  A
        task that spent the retry budget finishes the run in process."""
        entry[3] += 1
        try:
            spend_attempt(self.retry, entry[3], exc, self.reliability)
        except RetryError:
            logger.warning(
                "%s[%d] spent its retry budget on the pool (%r); "
                "finishing the run in process", self.label, entry[1], exc,
            )
            self._finish_in_process()
            return
        if not broken:
            self.report.redispatches += 1
            self._submit(entry)
            return
        self.reliability.pool_respawns += 1
        logger.warning(
            "pool broke at %s[%d] (%r): respawning and re-dispatching %d "
            "in-flight tasks", self.label, entry[1], exc, len(self.in_flight),
        )
        for waiting in self.in_flight:
            future = waiting[0]
            if future.done() and future.exception() is None:
                continue  # completed before the breakage; keep the result
            self.report.redispatches += 1
            self._submit(waiting)

    def _finish_in_process(self) -> None:
        """Retire the pool and run every in-flight (and every remaining)
        task here with ``local_task``, in the same order — same bits,
        one core."""
        self.in_process = True
        self.reliability.pool_fallbacks += 1
        self.pool.retire()
        self.executor = None
        while self.in_flight:
            _, index, task, _ = self.in_flight.popleft()
            self._run_here(index, task)
