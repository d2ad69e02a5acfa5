"""Watchdog: detect and kill *hung* pool workers, not just dead ones.

PR 6's pool recovery handles workers that die (``BrokenExecutor`` →
respawn → re-dispatch, bit-identical under the per-seed rng labels).  A
worker that *hangs* — stuck syscall, pathological input, an injected
``hang`` fault — never breaks the executor; without a watchdog the
parent blocks in ``future.result()`` forever.

The protocol is deliberately primitive, because it must survive the
exact failure it polices:

* **heartbeats** — each worker writes a per-PID file in a pool-scoped
  heartbeat directory (:func:`beat`) at every cell boundary (state
  ``"busy"``) and once more when its task returns (state ``"idle"``).
  A file's mtime is crash-proof shared state: no locks, no pipes a hung
  process could stop draining.
* **staleness** — the parent, while polling ``future.result(timeout=
  poll)``, asks the :class:`Watchdog` for workers whose last beat said
  ``"busy"`` and is older than ``budget`` seconds.  Idle workers (done
  early, waiting for the slow one) and workers that never beat (spares
  the executor never fed) are *not* stale — killing a healthy worker
  would break the executor for nothing.  A worker hung before its first
  beat is the deadline's problem, not the watchdog's.
* **kill + respawn** — stale workers get ``SIGKILL``; the broken
  executor then takes PR 6's existing respawn path and the lost seeds
  are re-dispatched bit-identically.  Kills are counted as
  ``watchdog_kills`` in the engine's reliability report.

The budget is a *silence* budget, not a task budget: a worker crunching
a huge cell keeps beating at cell boundaries and is never killed.
"""

from __future__ import annotations

import os
import signal
import time

#: heartbeat states a worker reports
BUSY = "busy"
IDLE = "idle"


def beat(
    heartbeat_dir: str | None,
    pid: int | None = None,
    state: str = BUSY,
) -> None:
    """Worker-side heartbeat: write this process's state file in the
    pool's heartbeat directory.  Best-effort — a failed beat must never
    fail the task (the watchdog kills quiet workers; dying of a full
    disk here would be self-fulfilling)."""
    if heartbeat_dir is None:
        return
    path = os.path.join(heartbeat_dir, str(pid or os.getpid()))
    try:
        with open(path, "w", encoding="ascii") as handle:
            handle.write(state)
    except OSError:  # pragma: no cover — best-effort by contract
        pass


class Watchdog:
    """Parent-side staleness policy over a pool heartbeat directory."""

    def __init__(self, budget: float = 300.0, poll: float = 1.0):
        if budget <= 0.0:
            raise ValueError(f"budget must be positive seconds, got {budget}")
        if poll <= 0.0:
            raise ValueError(f"poll must be positive seconds, got {poll}")
        #: seconds of mid-task silence after which a worker is presumed hung
        self.budget = budget
        #: how often the parent's result wait wakes to scan for staleness
        self.poll = poll

    def last_beat(self, heartbeat_dir: str, pid: int) -> tuple[float, str]:
        """``(epoch mtime, state)`` of ``pid``'s last heartbeat, or
        ``(0.0, IDLE)`` when the worker never beat.

        A torn read (the worker is rewriting the file right now) reports
        ``BUSY`` — conservative, but harmless: the fresh mtime keeps the
        worker under budget.
        """
        path = os.path.join(heartbeat_dir, str(pid))
        try:
            mtime = os.path.getmtime(path)
            with open(path, encoding="ascii") as handle:
                state = handle.read().strip() or BUSY
        except OSError:
            return 0.0, IDLE
        return mtime, state

    def stale_pids(self, heartbeat_dir: str, pids: list[int]) -> list[int]:
        """Workers mid-task and silent past the budget."""
        now = time.time()
        stale = []
        for pid in pids:
            mtime, state = self.last_beat(heartbeat_dir, pid)
            if state == BUSY and now - mtime > self.budget:
                stale.append(pid)
        return stale

    @staticmethod
    def kill(pids: list[int]) -> list[int]:
        """``SIGKILL`` each pid; returns those actually signalled."""
        killed = []
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                continue
            killed.append(pid)
        return killed

    def kill_stale(self, heartbeat_dir: str, pids: list[int]) -> list[int]:
        """Scan-and-kill in one step; returns the pids killed."""
        return self.kill(self.stale_pids(heartbeat_dir, pids))

    def __repr__(self) -> str:  # pragma: no cover — debugging aid
        return f"Watchdog(budget={self.budget}, poll={self.poll})"
