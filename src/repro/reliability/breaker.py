"""Circuit breaker: stop retrying what keeps failing, degrade instead.

Retry handles *transient* faults; a fault that fires on every attempt is
not transient any more, and burning the whole retry budget against it on
every call turns one sick dependency into a stalled run.  A
:class:`CircuitBreaker` counts **consecutive** transient failures per
label and, at ``threshold``, *opens*: callers consult :meth:`allow` and
take a degradation path instead of dispatching again.

The degradation ladders it guards are the repo's bit-identical ones —
the pooled → hoisted sweep modes and the parallel → serial stream
coordinator — so an open breaker changes *how fast* a run executes,
never *what* it produces.  Every open/close transition is recorded
(with its cause) in :attr:`transitions` and surfaced through the owning
component's :class:`~repro.reliability.report.ReliabilityReport`
(``breaker_trips``), because silent degradation is the failure mode this
package exists to prevent.

After ``cooldown`` seconds an open circuit becomes *half-open*:
:meth:`allow` admits one trial, a success closes the circuit, a failure
re-opens it for another cooldown.
"""

from __future__ import annotations

import time
from collections.abc import Callable


class CircuitBreaker:
    """Per-label consecutive-failure breaker with cooldown/half-open."""

    def __init__(
        self,
        threshold: int = 3,
        cooldown: float = 60.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        if cooldown < 0.0:
            raise ValueError(f"cooldown must be >= 0, got {cooldown}")
        self.threshold = threshold
        self.cooldown = cooldown
        self._clock = clock
        #: per-label consecutive failure counts
        self._failures: dict[str, int] = {}
        #: per-label open timestamps (present = open)
        self._opened_at: dict[str, float] = {}
        #: telemetry: ``(label, "open" | "close", cause)`` triples
        self.transitions: list[tuple[str, str, str]] = []

    def record_failure(self, label: str, cause: str = "") -> bool:
        """Count one failure of ``label``; true when this one opened the
        circuit (the transition, not the steady open state)."""
        count = self._failures.get(label, 0) + 1
        self._failures[label] = count
        if label in self._opened_at:
            # A failed half-open trial re-opens for a fresh cooldown.
            self._opened_at[label] = self._clock()
            return False
        if count >= self.threshold:
            self._opened_at[label] = self._clock()
            self.transitions.append((label, "open", cause))
            return True
        return False

    def record_success(self, label: str) -> None:
        """A successful call closes the circuit and resets the count."""
        self._failures[label] = 0
        if self._opened_at.pop(label, None) is not None:
            self.transitions.append((label, "close", "successful call"))

    def is_open(self, label: str) -> bool:
        """Is the circuit currently open (cooldown notwithstanding)?"""
        return label in self._opened_at

    def allow(self, label: str) -> bool:
        """May ``label`` be dispatched?  Closed: yes.  Open: only once
        the cooldown has elapsed (the half-open trial)."""
        opened_at = self._opened_at.get(label)
        if opened_at is None:
            return True
        return self._clock() - opened_at >= self.cooldown

    def trips(self, label: str | None = None) -> int:
        """How many times circuits opened (optionally for one label)."""
        return sum(
            1
            for tr_label, action, _ in self.transitions
            if action == "open" and (label is None or tr_label == label)
        )

    def __repr__(self) -> str:  # pragma: no cover — debugging aid
        return (
            f"CircuitBreaker(threshold={self.threshold}, "
            f"open={sorted(self._opened_at)})"
        )
