"""One persistent worker pool and the one rule for its failures.

The sweep engine and the parallel stream pipeline each keep a single
``ProcessPoolExecutor`` alive across runs, keyed by the state its workers
were initialized with — warm worker caches are only valid for that
state.  Both use this module for everything around the executor:

* **lifecycle** — :class:`PersistentPool` creates the executor for a
  ``(token, workers)`` key, reuses it while the key holds, retires it
  (and its heartbeat directory) on a new key or on shutdown, and
  :meth:`~PersistentPool.retire` sends its workers ``SIGKILL`` first,
  because ``Executor.shutdown`` *joins* workers and a hung one would
  outlive it;
* **the wait** — :meth:`PersistentPool.wait` is the only place a pool
  result is read: it polls in watchdog-sized slices capped by the run's
  :class:`~repro.reliability.Deadline`, lets the
  :class:`~repro.reliability.Watchdog` kill workers silent mid-task, and
  on expiry retires the pool before raising
  :class:`~repro.reliability.DeadlineExceededError`;
* **the retry budget** — :func:`spend_attempt` counts one failed attempt
  of a task against the run's :class:`~repro.reliability.RetryPolicy`.
  Every chunk and sweep cell is a pure function of its keyed inputs, so
  when one spends the whole budget the run finishes in process with the
  same per-chunk or per-cell function — same bits, one core — logging one
  warning and counting one ``pool_fallbacks``.  A stream run with
  ``retry=None`` fails fast instead;
* **heartbeats** — every worker beats into the pool-scoped directory
  (:func:`heartbeat`) that the :class:`~repro.reliability.Watchdog`
  resolved by :func:`resolve_watchdog` scans;
* **faults** — an armed :class:`~repro.reliability.FaultPlan` lives in
  the parent, so pool workers start disarmed; the parent draws each
  ``"pool.worker"`` fault at submit time (:func:`planned_fault`) and
  ships it into the task, where :func:`misbehave` replays it.  The
  trigger is consumed at the first submit, so a retried task runs clean.
"""

from __future__ import annotations

import logging
import os
import shutil
import signal
import tempfile
import time

from .deadline import Deadline
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
from .retry import RetryError, RetryPolicy
from .watchdog import BUSY, IDLE, Watchdog, beat

logger = logging.getLogger(__name__)

#: the label of pool-task faults and retries (and of sweep deadline stops)
POOL_LABEL = "pool.worker"

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
        from concurrent.futures import TimeoutError as FuturesTimeout

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
