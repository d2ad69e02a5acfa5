"""Wall-clock deadlines: stall-safety's cooperative time budget.

Crash-safety (PR 6) bounds *failures*; a deadline bounds *time*.  A
:class:`Deadline` is a monotonic wall-clock budget threaded through the
streaming pipelines and the sweep engine, checked cooperatively at chunk
and cell boundaries (one ``is not None`` test plus one
``time.monotonic()`` call — cheap enough for the hot path, see
``bench_reliability.py``) and passed as the timeout of every pool
``future.result()``.

Expiry raises :class:`DeadlineExceededError` carrying the *resumable
position* — the number of chunks (or sweep cells) already durable — so a
checkpointed run can be continued with a fresh budget and produce output
byte-identical to an uninterrupted run.  The error is classified
*permanent* by the retry taxonomy (deliberately: retrying a run that ran
out of time inside the same budget would loop), and maps to CLI exit
code 7.
"""

from __future__ import annotations

import time


class DeadlineExceededError(Exception):
    """A run outlived its wall-clock budget.

    ``position`` is the resumable progress marker at the boundary where
    expiry was observed: for streamed runs the number of *durable*
    chunks (a checkpointed run resumes exactly there), for pooled sweeps
    the number of completed seed tasks.
    """

    def __init__(
        self,
        label: str,
        position: int,
        budget: float,
        elapsed: float,
    ):
        self.label = label
        self.position = position
        self.budget = budget
        self.elapsed = elapsed
        super().__init__(
            f"deadline of {budget:.6g}s exceeded at {label}[{position}] "
            f"after {elapsed:.6g}s"
        )

    def __reduce__(self):
        return (
            DeadlineExceededError,
            (self.label, self.position, self.budget, self.elapsed),
        )


class Deadline:
    """A monotonic wall-clock budget with a remaining/expired API.

    Built once per run (``Deadline(seconds)`` or :meth:`after`), never
    reset: resuming a run means building a fresh deadline, exactly like
    re-invoking the CLI with ``--deadline`` after an exit-code-7 stop.
    """

    __slots__ = ("budget", "_started", "_expires_at")

    def __init__(self, budget: float):
        if not budget > 0.0:
            raise ValueError(
                f"deadline budget must be positive seconds, got {budget!r}"
            )
        self.budget = float(budget)
        self._started = time.monotonic()
        self._expires_at = self._started + self.budget

    @classmethod
    def after(cls, seconds: float) -> "Deadline":
        """``Deadline(seconds)``, reading like the call site means it."""
        return cls(seconds)

    def elapsed(self) -> float:
        """Seconds since the deadline was armed."""
        return time.monotonic() - self._started

    def remaining(self) -> float:
        """Seconds left in the budget, floored at zero."""
        return max(0.0, self._expires_at - time.monotonic())

    def expired(self) -> bool:
        return time.monotonic() >= self._expires_at

    def timeout(self, cap: float | None = None) -> float:
        """The budget's remainder as a blocking-call timeout.

        ``cap`` bounds the wait (a watchdog poll interval, a retry
        backoff ceiling); the result is never negative, so an expired
        deadline turns blocking waits into immediate-timeout polls.
        """
        remaining = self.remaining()
        if cap is None:
            return remaining
        return min(remaining, cap)

    def check(self, label: str, position: int = 0) -> None:
        """Raise :class:`DeadlineExceededError` if the budget is spent."""
        if self.expired():
            raise DeadlineExceededError(
                label, position, self.budget, self.elapsed()
            )

    def __repr__(self) -> str:  # pragma: no cover — debugging aid
        return (
            f"Deadline(budget={self.budget!r}, "
            f"remaining={self.remaining():.6g})"
        )


def check_deadline(
    deadline: Deadline | None, label: str, position: int = 0
) -> None:
    """The hot-path boundary check: free when no deadline is armed.

    Disarmed (``deadline is None`` — the production default) this is a
    single ``None`` test, mirroring the disarmed
    :func:`~repro.reliability.faults.fault_point` contract; the
    reliability bench holds both under a microsecond per call.
    """
    if deadline is not None:
        deadline.check(label, position)
