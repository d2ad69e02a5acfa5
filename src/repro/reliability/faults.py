"""Deterministic fault injection: break the pipeline on purpose.

Recovery code that has never seen a failure is untested code.  This
module lets the test suite (and the chaos benches) schedule *precise*
failures — an ``IOError`` on chunk 3's sink write, a torn gzip member on
flush 2, a corrupted checkpoint payload, a ``SIGKILL`` at a chunk
boundary, a dead pool worker on seed 1 — and then assert that the
retry/recovery layer restores a byte-identical outcome.

Design rules, mirroring the repo's determinism contract:

* **Label-addressed** — every injection point has a literal label
  (``"sink.write"``, ``"source.read"``, ``"checkpoint.save"``,
  ``"pool.worker"``, ...) and a zero-based index (chunk index, seed);
  a :class:`FaultPlan` schedules fault *kinds* at ``(label, index)``
  addresses with a bounded trigger count, so fault sequences are
  order-independent and reproducible run to run.
* **Seeded** — any randomness a fault needs (how many rows of a torn
  write survive) comes from ``random.Random(f"fault:{seed}:{label}:
  {index}")``, the same literal-label rng contract the attack sweep
  uses.
* **Zero overhead disarmed** — production code consults
  :func:`fault_point` (one module-global ``None`` check per *chunk*,
  never per row) and :func:`injection_armed` guards any
  fault-preparation work, so an unarmed pipeline pays nothing.

Faults are injected *through the same exceptions real failures raise*
(:class:`InjectedFaultError` is an ``OSError``), so the retry layer
cannot special-case them.
"""

from __future__ import annotations

import errno
import os
import random
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass

#: raise an OSError (EIO) at the injection point — the generic
#: transient-I/O failure
IO_ERROR = "io-error"

#: cooperative: the injection point persists a *partial* write (a half
#: chunk, a prefix of a JSON payload) and then fails
TORN_WRITE = "torn-write"

#: cooperative: a gzip sink flushes a member with no trailer (compressed
#: bytes on disk, stream not closed) and then fails
TRUNCATED_GZIP = "truncated-gzip"

#: cooperative: a JSON payload is written bit-rotted but syntactically
#: plausible — the "silently corrupted checkpoint" case CRC verification
#: exists to catch
CORRUPT_JSON = "corrupt-json"

#: the process dies on the spot (``SIGKILL`` — no atexit, no flush), or a
#: pool worker is instructed to die mid-task
KILL = "kill"

#: stall: the injection point sleeps :attr:`FaultPlan.hang_seconds` and
#: then continues — in-process, recovery is the *deadline's* job (the
#: next chunk/cell boundary raises); in a pool worker, the watchdog's
HANG = "hang"

#: throttled I/O: the injection point sleeps :attr:`FaultPlan
#: .slow_seconds` and continues — the degraded-but-alive dependency a
#: deadline must tolerate without tripping
SLOW = "slow"

#: exhaustion: the injection point raises ``MemoryError`` — a resumable
#: stop in a chunk step (the previous chunk stays durable), the
#: transient-retry path at the I/O points, and a re-dispatch in a pool
#: worker
MEMORY = "memory"

#: cooperative: silent media damage — the injection point corrupts one
#: already-flushed byte (a written chunk, a journal line, a read record)
#: and then *continues as if nothing happened*.  No error is raised; the
#: corruption must be caught downstream by the chunk-hash manifest
#: (:mod:`~repro.reliability.integrity`), never by the retry layer.
BITFLIP = "bitflip"

#: the disk filled: an ``OSError`` with ``errno=ENOSPC`` at a
#: write/flush point.  Classified *permanent* — a full disk does not
#: heal between retry attempts — so the run stops gracefully at the
#: last durable boundary and resumes after the operator frees space.
DISK_FULL = "disk-full"

KINDS = (
    IO_ERROR, TORN_WRITE, TRUNCATED_GZIP, CORRUPT_JSON, KILL,
    HANG, SLOW, MEMORY, BITFLIP, DISK_FULL,
)

#: kinds :func:`fault_point` resolves itself; the rest are returned to
#: the (cooperating) injection point
_SELF_SERVICE = (IO_ERROR, KILL, HANG, SLOW, MEMORY, DISK_FULL)


class InjectedFaultError(OSError):
    """The transient I/O failure a :class:`FaultPlan` injects.

    An ``OSError`` with ``errno=EIO`` (``ENOSPC`` for :data:`DISK_FULL`),
    so retry classification treats it exactly like a real disk error —
    no test-only code path in the recovery layer.
    """

    def __init__(
        self, label: str, index: int, kind: str = IO_ERROR,
        err: int = errno.EIO,
    ):
        self.label = label
        self.index = index
        self.kind = kind
        super().__init__(
            err, f"injected {kind} fault at {label}[{index}]"
        )

    def __reduce__(self):
        # ``OSError`` pickles ``(errno, strerror)`` as the constructor
        # arguments; this constructor takes ``(label, index, kind, err)``.
        return (
            InjectedFaultError,
            (self.label, self.index, self.kind, self.errno),
        )


@dataclass(frozen=True)
class Fault:
    """One scheduled failure: ``kind`` at ``(label, index)``, firing at
    most ``times`` times before the address exhausts."""

    label: str
    index: int
    kind: str
    times: int = 1


class FaultPlan:
    """A seeded schedule of failures, consulted by injection points.

    Plans are built once (``add`` chains), armed around the code under
    test (:meth:`armed`, or process-globally via :func:`arm`), and
    consumed as the pipeline hits the scheduled addresses.  ``times``
    bounds every address, so a recovered retry of the same chunk runs
    clean — exactly how a transient real-world fault behaves.
    """

    def __init__(
        self,
        seed: int | str = 0,
        hang_seconds: float = 60.0,
        slow_seconds: float = 0.05,
    ):
        self.seed = seed
        #: how long a :data:`HANG` fault stays silent (tests shrink it;
        #: a hung pool worker is SIGKILLed by the watchdog mid-sleep)
        self.hang_seconds = hang_seconds
        #: per-trigger delay of a :data:`SLOW` fault
        self.slow_seconds = slow_seconds
        self._pending: dict[tuple[str, int], list] = {}
        #: telemetry: (label, index, kind) triples actually fired
        self.fired: list[tuple[str, int, str]] = []

    def add(
        self, label: str, kind: str, at: int = 0, times: int = 1
    ) -> "FaultPlan":
        """Schedule ``kind`` at ``(label, at)``; returns ``self``."""
        if kind not in KINDS:
            raise ValueError(f"fault kind must be one of {KINDS}, got {kind!r}")
        if times < 1:
            raise ValueError(f"times must be >= 1, got {times}")
        self._pending[(label, int(at))] = [kind, times]
        return self

    def scheduled(self, label: str, index: int) -> bool:
        """Is a fault still pending at ``(label, index)``?  (Peek — does
        not consume a trigger.)"""
        return (label, int(index)) in self._pending

    def draw(self, label: str, index: int) -> str | None:
        """Consume one trigger at ``(label, index)``: its kind, or
        ``None`` when nothing (or nothing *left*) is scheduled there."""
        entry = self._pending.get((label, int(index)))
        if entry is None:
            return None
        kind, remaining = entry
        if remaining <= 1:
            del self._pending[(label, int(index))]
        else:
            entry[1] = remaining - 1
        self.fired.append((label, int(index), kind))
        return kind

    def rng(self, label: str, index: int) -> random.Random:
        """The private generator of fault ``(label, index)`` — the
        literal-label contract, so torn-write cut points etc. reproduce."""
        return random.Random(f"fault:{self.seed}:{label}:{index}")

    def pending(self) -> int:
        """Total triggers not yet fired (assert == 0 to prove a chaos
        scenario exercised its whole schedule)."""
        return sum(entry[1] for entry in self._pending.values())

    @contextmanager
    def armed(self):
        """Arm this plan process-globally for the ``with`` body."""
        previous = arm(self)
        try:
            yield self
        finally:
            arm(previous)


# The single process-global armed plan.  Injection points read it with
# one attribute lookup; ``None`` (the production state) short-circuits
# everything.
_PLAN: FaultPlan | None = None


def arm(plan: FaultPlan | None) -> FaultPlan | None:
    """Install ``plan`` as the armed plan; returns the previous one."""
    global _PLAN
    previous = _PLAN
    _PLAN = plan
    return previous


def disarm() -> None:
    """Remove any armed plan (the production state)."""
    arm(None)


def active_plan() -> FaultPlan | None:
    """The armed plan, or ``None``."""
    return _PLAN


def injection_armed() -> bool:
    """Cheap guard for fault-preparation work (flushes, row splitting)
    that only a *scheduled* fault needs."""
    return _PLAN is not None


def fault_point(label: str, index: int) -> str | None:
    """Declare an injection point; acts on any fault scheduled here.

    Disarmed (no plan): a single ``None`` check, nothing else.  Armed:
    consumes at most one trigger at ``(label, index)`` and

    * raises :class:`InjectedFaultError` for :data:`IO_ERROR`,
    * ``SIGKILL``-s the process for :data:`KILL` (never returns),
    * sleeps through :data:`HANG` / :data:`SLOW` (``plan.hang_seconds``
      / ``plan.slow_seconds``) and then *continues* — stall faults are
      for the deadline/watchdog layer to observe, not errors,
    * raises ``MemoryError`` for :data:`MEMORY`,
    * raises :class:`InjectedFaultError` with ``errno=ENOSPC`` for
      :data:`DISK_FULL` — the graceful-stop path, never retried,
    * returns the kind for the cooperative faults (:data:`TORN_WRITE`,
      :data:`TRUNCATED_GZIP`, :data:`CORRUPT_JSON`, :data:`BITFLIP`) —
      the injection point itself performs the partial/corrupted write
      and then fails (or, for :data:`BITFLIP`, silently continues).
    """
    plan = _PLAN
    if plan is None:
        return None
    kind = plan.draw(label, index)
    if kind is None:
        return None
    if kind == KILL:
        os.kill(os.getpid(), signal.SIGKILL)  # pragma: no cover — fatal
    if kind == IO_ERROR:
        raise InjectedFaultError(label, index)
    if kind == DISK_FULL:
        raise InjectedFaultError(label, index, DISK_FULL, errno.ENOSPC)
    if kind == HANG:
        time.sleep(plan.hang_seconds)
        return None
    if kind == SLOW:
        time.sleep(plan.slow_seconds)
        return None
    if kind == MEMORY:
        raise MemoryError(f"injected memory fault at {label}[{index}]")
    return kind
