"""Bounded, deterministic retry: the recovery half of the harness.

A :class:`RetryPolicy` describes *how often* and *how patiently* an I/O
boundary is retried; :func:`call_with_retry` applies it around one
idempotent operation (a sink write after rollback to the last durable
marker, a checkpoint save, a chunk re-read).  Two properties matter:

* **classification** — only *transient* faults are retried.  Real I/O
  errors (``OSError`` and friends, SQLite's operational errors, torn
  gzip streams) are transient; logic and data errors
  (:class:`~repro.core.errors.WatermarkingError`, schema violations,
  checkpoint corruption) are permanent — retrying them would loop on a
  bug.  :func:`classify` is the single shared taxonomy.
* **deterministic backoff** — delays grow exponentially and are
  jittered, but the jitter comes from
  ``random.Random(f"retry:{seed}:{label}:{attempt}")`` — the repo's
  literal-label rng contract — so a retry schedule is reproducible
  under a fixed policy seed (pinned by the reliability tests).
"""

from __future__ import annotations

import errno
import random
import sqlite3
import time
import zlib
from collections.abc import Callable
from dataclasses import dataclass

from ..core.errors import WatermarkingError
from ..relational.errors import RelationalError

TRANSIENT = "transient"
PERMANENT = "permanent"

#: fault classes a retry can plausibly outlast.  ``gzip.BadGzipFile`` is
#: an ``OSError`` subclass; ``zlib.error`` (truncated compressed data)
#: is not, hence listed.  ``EOFError`` covers truncated streams surfaced
#: by ``gzip``/``pickle`` readers.  ``MemoryError`` is transient by the
#: same logic a disk error is: pressure from elsewhere in the process
#: (caches, a sibling worker) can clear between attempts, so source/sink
#: retries and pool re-dispatch replay it.  A ``MemoryError`` inside a
#: stream chunk step is not retried: it propagates with the previous
#: chunk durable, and a resume continues from there.
TRANSIENT_TYPES: tuple[type[BaseException], ...] = (
    OSError,
    EOFError,
    zlib.error,
    sqlite3.OperationalError,
    MemoryError,
)

#: fault classes no retry can fix — fail fast, preserve the traceback
PERMANENT_TYPES: tuple[type[BaseException], ...] = (
    WatermarkingError,
    RelationalError,
)


def classify(exc: BaseException) -> str:
    """The shared transient/permanent taxonomy.

    Unknown exception types default to *permanent*: silently retrying a
    bug is worse than failing loudly on a transient we misjudged.
    """
    if isinstance(exc, PERMANENT_TYPES):
        return PERMANENT
    if isinstance(exc, OSError) and exc.errno == errno.ENOSPC:
        # A full disk does not heal between backoff sleeps.  Fail fast at
        # the last durable boundary; the operator frees space and the run
        # continues with ``--resume``.
        return PERMANENT
    if isinstance(exc, TRANSIENT_TYPES):
        return TRANSIENT
    return PERMANENT


class RetryError(Exception):
    """A retried operation kept failing; ``__cause__`` holds the last
    underlying exception."""

    def __init__(self, label: str, attempts: int):
        self.label = label
        self.attempts = attempts
        super().__init__(
            f"{label!r} still failing after {attempts} attempt(s)"
        )

    def __reduce__(self):
        return (RetryError, (self.label, self.attempts))


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded attempts with deterministic exponential backoff.

    ``max_attempts`` counts the first try: ``max_attempts=3`` means one
    try plus at most two retries.  Delay before retry ``n`` (1-based) is
    ``min(base_delay * multiplier**(n-1), max_delay)`` scaled by a
    seeded jitter in ``[1-jitter, 1+jitter]``.
    """

    max_attempts: int = 3
    base_delay: float = 0.02
    multiplier: float = 2.0
    max_delay: float = 1.0
    jitter: float = 0.25
    seed: int | str = 0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )

    def delay(self, label: str, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based) of ``label``."""
        raw = min(
            self.base_delay * self.multiplier ** (attempt - 1),
            self.max_delay,
        )
        rng = random.Random(f"retry:{self.seed}:{label}:{attempt}")
        return raw * (1.0 + self.jitter * (2.0 * rng.random() - 1.0))


#: a policy that never retries — the "reliability layer off" sentinel
NO_RETRY = RetryPolicy(max_attempts=1)


def call_with_retry(
    fn: Callable[[], "object"],
    label: str,
    policy: RetryPolicy | None,
    *,
    recover: Callable[[], None] | None = None,
    on_retry: Callable[[str, int, BaseException], None] | None = None,
    sleep: Callable[[float], None] = time.sleep,
):
    """Run ``fn`` under ``policy``; returns its result — the one retry
    loop of every I/O boundary (sink write, checkpoint save, source
    re-read).

    On a transient failure the sequence is *notify -> backoff ->
    recover -> retry*: ``on_retry(label, attempt, exc)`` feeds the
    reliability report, and ``recover`` restores the precondition that
    makes the retry idempotent (e.g. truncating a sink back to its last
    durable offset, re-opening a source at the failed chunk).  Permanent
    failures propagate untouched; transient exhaustion raises
    :class:`RetryError` from the last cause.  ``policy=None`` is the
    fail-fast run: ``fn`` is called once and any failure propagates as
    it was raised.
    """
    attempt = 1
    while True:
        try:
            return fn()
        except Exception as exc:
            if policy is None or classify(exc) is not TRANSIENT:
                raise
            if attempt >= policy.max_attempts:
                raise RetryError(label, attempt) from exc
            if on_retry is not None:
                on_retry(label, attempt, exc)
            sleep(policy.delay(label, attempt))
            if recover is not None:
                recover()
            attempt += 1
