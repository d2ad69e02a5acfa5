"""Reliability telemetry: what the recovery layer actually did.

Silent recovery is indistinguishable from silent degradation, so every
retry, rollback, fallback and respawn is counted in a
:class:`ReliabilityReport` the caller can read (and the chaos CI job
uploads as an artifact).  The report is plain counters — JSON-friendly,
mergeable, and cheap enough to thread through hot paths.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field, fields

#: counters that describe the input or an audit rather than a recovery
_NOT_RECOVERY = frozenset({"bad_rows", "quarantined_rows", "chunks_verified"})


@dataclass
class ReliabilityReport:
    """Counters of recovery actions taken during one run."""

    #: retries performed, by injection-point label (``"sink.write"`` ...)
    retries: Counter = field(default_factory=Counter)
    #: sink rollbacks to the last durable marker before a rewrite
    sink_rollbacks: int = 0
    #: source re-opens at a chunk boundary after a read failure
    source_reopens: int = 0
    #: resumes that fell back to the previous (``.prev``) checkpoint
    #: because the newest one failed verification
    checkpoint_rollbacks: int = 0
    #: malformed input rows skipped or quarantined (CSV ``on_bad_rows``)
    bad_rows: int = 0
    quarantined_rows: int = 0
    #: pool recovery (see :mod:`~repro.reliability.pool`): broken pools
    #: respawned, and runs finished in process after a chunk or cell
    #: spent the retry budget on the pool
    pool_respawns: int = 0
    pool_fallbacks: int = 0
    #: sweep cells re-dispatched (see :class:`~repro.experiments.SweepEngine`)
    cell_retries: int = 0
    #: hung pool workers SIGKILLed by the watchdog (heartbeat silence)
    watchdog_kills: int = 0
    #: integrity layer (see :mod:`~repro.reliability.integrity`):
    #: output-prefix chunks re-hashed during a verified resume
    chunks_verified: int = 0
    #: journalled chunks discarded on resume because their on-disk bytes
    #: no longer matched the recorded digest (bit-rot rewinds)
    integrity_rewinds: int = 0
    #: source chunks skipped by verified-read because their row-content
    #: digest mismatched the manifest
    corrupt_chunks: int = 0
    #: stale run leases taken over (dead holder pid / expired heartbeat)
    lease_takeovers: int = 0

    def record_retry(self, label: str, attempt: int, exc: BaseException) -> None:
        """``on_retry`` hook for :func:`~repro.reliability.call_with_retry`."""
        self.retries[label] += 1

    @property
    def total_retries(self) -> int:
        return sum(self.retries.values())

    @property
    def any_recovery(self) -> bool:
        """Did this run survive at least one fault?"""
        return any(
            getattr(self, item.name)
            for item in fields(self)
            if item.name not in _NOT_RECOVERY
        )

    def merge(self, other: "ReliabilityReport") -> None:
        for item in fields(self):
            mine = getattr(self, item.name)
            if isinstance(mine, Counter):
                mine.update(getattr(other, item.name))
            else:
                setattr(self, item.name, mine + getattr(other, item.name))

    def to_dict(self) -> dict:
        payload: dict = {"total_retries": self.total_retries}
        for item in fields(self):
            value = getattr(self, item.name)
            payload[item.name] = (
                dict(value) if isinstance(value, Counter) else value
            )
        return payload

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def summary(self) -> str:
        """One-line human summary (the CLI prints it after recovery)."""
        if not self.any_recovery and not self.bad_rows and not self.chunks_verified:
            return "reliability: clean run (no retries, no recovery)"
        parts = []
        if self.total_retries:
            labels = ", ".join(
                f"{label} x{count}" for label, count in sorted(self.retries.items())
            )
            parts.append(f"{self.total_retries} retries ({labels})")
        if self.sink_rollbacks:
            parts.append(f"{self.sink_rollbacks} sink rollbacks")
        if self.source_reopens:
            parts.append(f"{self.source_reopens} source reopens")
        if self.checkpoint_rollbacks:
            parts.append(f"{self.checkpoint_rollbacks} checkpoint rollbacks")
        if self.bad_rows:
            parts.append(
                f"{self.bad_rows} bad rows "
                f"({self.quarantined_rows} quarantined)"
            )
        if (
            self.pool_respawns or self.pool_fallbacks or self.cell_retries
            or self.watchdog_kills
        ):
            parts.append(
                f"pool: {self.cell_retries} task retries, "
                f"{self.pool_respawns} respawns, "
                f"{self.pool_fallbacks} fallbacks, "
                f"{self.watchdog_kills} watchdog kills"
            )
        if (
            self.chunks_verified or self.integrity_rewinds
            or self.corrupt_chunks or self.lease_takeovers
        ):
            parts.append(
                f"integrity: {self.chunks_verified} chunks verified, "
                f"{self.integrity_rewinds} rewinds, "
                f"{self.corrupt_chunks} corrupt source chunks, "
                f"{self.lease_takeovers} lease takeovers"
            )
        return "reliability: " + "; ".join(parts)
