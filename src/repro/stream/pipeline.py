"""Streaming mark/detect pipelines: the out-of-core execution layer.

The paper's scheme decides every embedding and detection action from a
keyed hash of the tuple's (primary-key) value alone, so both directions
are embarrassingly chunkable:

* :func:`stream_mark` pulls schema-typed chunks from a
  :class:`~repro.stream.sources.ChunkSource`, runs the embed kernels on
  each chunk (the NumPy vector kernel, on one warm stream-scoped
  :class:`~repro.crypto.HashEngine`), and pushes the marked chunks into
  a :class:`~repro.stream.sinks.ChunkSink` — with an optional checkpoint
  file making the run resumable after interruption;
* :func:`stream_verify` / :func:`stream_verify_multipass` keep running
  per-slot vote accumulators (:class:`~repro.core.VoteAccumulator`) that
  merge each chunk's bincount tallies associatively, preserving the
  global first-vote tie rule — streamed detection over an arbitrarily
  large file uses O(chunk + channel length) memory and is bit-identical
  to the in-memory :func:`~repro.core.verify` on the concatenated rows.

This module says what a chunk does; :mod:`repro.stream.parallel` runs
the chunks.  It owns what is specific to each entry point — validation,
resume, the per-chunk functions (:func:`_embed_chunk` for marking,
:func:`_chunk_votes` for detection), the sink/journal/checkpoint commit
of a marked chunk, the final verdicts.  Each call builds one *run* (what
every chunk needs, the chunk builder and the per-chunk function) and
hands it to :func:`~repro.stream.parallel.run_chunks`, which adds the
source's payload profile: one ordered run for both
directions and every worker count: ``workers=None`` or ``1`` computes
each chunk in process; ``workers > 1`` initializes a process pool with
the pickled run, makes the same per-chunk call there and commits in the
same order.  A mark's commit folds the chunk's counters and starts its
sink segment (a gzip sink builds the member on its helper thread), and
hands back the chunk's *durable half* — the sink write, fsync, journal
record and checkpoint.  One durable half is in flight while the next
chunk is read and computed; the run finishes it before the next chunk
commits, after the last chunk, and before an error propagates.

Memory discipline: the stream-scoped engine bounds its memoization caches
relative to the chunk size (fresh key values arrive forever; an unbounded
digest cache would silently grow O(rows)), per-chunk guards die with
their chunk (no cross-chunk rollback log), and the vector plan arrays are
weak-keyed per chunk factorization, so they are reclaimed with the chunk.
The durable half in flight holds only what its write needs: a CSV
sink's encoded segment or member (not the chunk table), a SQLite or
table sink's chunk.  Within one process the engine stays warm across
chunks *and* across a mark-then-verify pair — re-seeing a value
re-hashes nothing.
"""

from __future__ import annotations

import logging
import os
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Hashable

from ..core import kernels
from ..core.detection import (
    DEFAULT_SIGNIFICANCE,
    DetectionResult,
    SlotVotes,
    VerificationResult,
    VoteAccumulator,
    _assemble_verification,
    _check_expected,
    _check_maps,
    extract_slot_votes,
)
from ..core.embedding import (
    EmbeddingResult,
    EmbeddingSpec,
    VARIANT_KEYED,
    embed,
    value_pair_count,
)
from ..core.errors import DetectionError, SpecError
from ..core.watermark import Watermark
from ..crypto import BACKENDS, SCALAR, HashEngine, MarkKey
from ..quality import GuardReport, QualityGuard
from ..relational import CategoricalDomain, Schema, Table
from ..reliability.deadline import Deadline
from ..reliability.faults import fault_point
from ..reliability.integrity import (
    RunLock,
    append_journal_chunk,
    audit_stream,
    journal_path,
    load_journal,
    manifest_from_journal,
    truncate_journal,
    write_journal_header,
)
from ..reliability.report import ReliabilityReport
from ..reliability.retry import RetryPolicy, call_with_retry
from .checkpoint import (
    MarkCheckpoint,
    load_verified_checkpoint,
    mark_fingerprint,
    save_checkpoint,
)
from .errors import CheckpointError, StreamError
from .parallel import (
    in_pool_worker,
    resolve_workers,
    run_chunks,
    stream_engine,
)
from .sinks import ChunkSink
from .sources import (
    build_chunk,
    build_chunk_codes,
    source_chunk_size,
    source_schema,
)

logger = logging.getLogger(__name__)


def _resolve_stream_backend(
    backend: HashEngine | str | None,
    key: MarkKey,
    chunk_size: int,
) -> HashEngine | None:
    """Normalize a ``backend=`` parameter to the engine every chunk runs
    on — ``None`` for SCALAR.

    ``None`` and VECTOR get a fresh stream-scoped engine; an explicit
    :class:`HashEngine` instance runs the vector kernels as is, so
    callers may pass a differently-bounded (or shared, pre-warmed)
    instance.
    """
    if isinstance(backend, HashEngine):
        if backend.key != key:
            raise StreamError(
                "backend engine was built for a different MarkKey"
            )
        return backend
    if backend is not None and backend not in BACKENDS:
        raise StreamError(
            f"backend must be one of {BACKENDS} or a HashEngine, "
            f"got {backend!r}"
        )
    if backend == SCALAR:
        return None
    return stream_engine(key, chunk_size)


def _count_source_losses(reliability: ReliabilityReport, source) -> None:
    """Fold the rows and chunks the source dropped into ``reliability``."""
    reliability.bad_rows += getattr(source, "bad_row_count", 0)
    reliability.quarantined_rows += getattr(source, "quarantined_rows", 0)
    reliability.corrupt_chunks += getattr(source, "corrupt_chunks", 0)


# -- streaming embed -----------------------------------------------------------

@dataclass
class StreamMarkResult:
    """Merged report of a (possibly resumed) streaming embed."""

    spec: EmbeddingSpec
    chunks: int
    rows: int
    fit_count: int
    applied: int
    vetoed: int
    unchanged: int
    slots_written: set[int] = field(default_factory=set)
    guard_report: GuardReport = field(default_factory=GuardReport)
    resumed_at_chunk: int = 0
    reliability: ReliabilityReport = field(default_factory=ReliabilityReport)
    #: :class:`~repro.reliability.pool.ParallelReport` when ``workers > 1``
    parallel: Any = None
    #: the :class:`~repro.reliability.integrity.ChunkManifest` recorded
    #: by the sink (``None`` when manifest recording was not armed)
    manifest: Any = None

    @property
    def slot_coverage(self) -> float:
        """Fraction of ``wm_data`` slots carried by at least one tuple."""
        if self.spec.channel_length == 0:
            return 0.0
        return len(self.slots_written) / self.spec.channel_length

    @property
    def alteration_fraction(self) -> float:
        """Fraction of fit carriers whose value actually changed."""
        if self.fit_count == 0:
            return 0.0
        return self.applied / self.fit_count


def _validate_mark_inputs(
    schema: Schema, watermark: Watermark, spec: EmbeddingSpec
) -> CategoricalDomain:
    """Schema-level validation of a streaming embed (no table in memory)."""
    if spec.variant != VARIANT_KEYED:
        raise StreamError(
            "stream_mark supports the fully blind 'keyed' variant only: "
            "the 'map' variant must remember one embedding-map entry per "
            "carrier, which contradicts bounded-memory streaming — use "
            "the in-memory embed for map-variant relations"
        )
    if len(watermark) != spec.watermark_length:
        raise SpecError(
            f"watermark has {len(watermark)} bits, spec says "
            f"{spec.watermark_length}"
        )
    attribute = schema.attribute(spec.mark_attribute)
    if not attribute.is_categorical or attribute.domain is None:
        raise SpecError(
            f"mark attribute {spec.mark_attribute!r} is not categorical"
        )
    if value_pair_count(attribute.domain) == 0:
        raise SpecError(
            f"attribute {spec.mark_attribute!r} has a single-value domain; "
            f"no embedding bandwidth"
        )
    schema.position(spec.key_attribute)  # raises if unknown
    return attribute.domain


def _embed_chunk(
    run: dict[str, Any],
    engines: Sequence[HashEngine | None],
    index: int,
    chunk: Table,
) -> tuple[Table | list[tuple], EmbeddingResult, GuardReport]:
    """The per-chunk function of a :func:`stream_mark` run: embed one
    chunk in place under a fresh per-chunk guard on ``engines[0]``
    (``None``: SCALAR).  Returns ``(marked, pass_result, guard_report)``,
    where ``marked`` is the chunk table — or, in a pool worker, its rows,
    which the coordinator rebuilds."""
    spec, domain = run["spec"], run["domain"]
    if chunk.schema.attribute(spec.mark_attribute).domain != domain:
        raise StreamError(
            "chunk domain drifted from the declared domain — "
            "stream_mark sources must be built with infer_domains=False"
        )
    # Injection point: embed-step faults (hang/slow/memory) land here,
    # before the chunk is durable, unlike the post-durability
    # "pipeline.chunk" point.  Pool workers run disarmed.
    fault_point("pipeline.embed", index)
    factory = run["constraints_factory"]
    guard = QualityGuard(list(factory()) if factory else [])
    guard.bind(chunk)
    if engines[0] is None:
        pass_result = embed(
            chunk, run["watermark"], run["keys"][0], spec, guard=guard,
            engine=SCALAR,
        )
    else:
        pass_result = EmbeddingResult(
            spec=spec, fit_count=0, applied=0, vetoed=0, unchanged=0,
        )
        kernels.embed_vector(
            chunk, spec, domain, run["wm_data"], guard, pass_result,
            engines[0],
        )
    marked = list(iter(chunk)) if in_pool_worker() else chunk
    return marked, pass_result, guard.report


def stream_mark(
    source,
    watermark: Watermark,
    key: MarkKey,
    spec: EmbeddingSpec,
    sink: ChunkSink,
    *,
    backend: HashEngine | str | None = None,
    checkpoint_path=None,
    resume: bool = False,
    constraints_factory: Callable[[], list] | None = None,
    retry: RetryPolicy | None = None,
    deadline: Deadline | None = None,
    workers: int | str | None = None,
    watchdog=None,
    manifest: bool | None = None,
    verify_resume: bool = False,
    lock: bool = False,
) -> StreamMarkResult:
    """Embed ``watermark`` into a streamed relation, chunk by chunk.

    Each chunk runs through the existing embed kernels (the vector
    kernel unless ``backend`` is SCALAR) on one warm stream-scoped
    engine; marked chunks land in ``sink`` and the per-chunk guard
    logs/reports are merged into the returned :class:`StreamMarkResult`.
    Because every decision is a pure function of ``(key, tuple key
    value)``, the concatenated sink output is cell-identical to an
    in-memory embed of the whole relation.

    With ``checkpoint_path`` the pipeline flushes the sink and atomically
    records progress after every chunk; ``resume=True`` picks up from the
    last record (verifying, via a keyless fingerprint, that key, spec and
    watermark match the interrupted run) and produces output identical to
    an uninterrupted run.  A chunk's write, flush and record (its
    durable half) run while the next chunk is read and embedded, before
    that chunk commits, after the last chunk, or before an error
    propagates — so an error leaves every chunk whose commit began
    durable, but a kill while chunk k is read or embedded finds chunk
    k - 1 still in flight and resumes at k - 1 (a kill in chunk 1 leaves
    no checkpoint yet, as a kill in chunk 0 does).

    ``constraints_factory`` builds a fresh constraint list per chunk
    (constraints are stateful, so instances cannot be shared across
    chunks); note that guard budgets therefore apply *per chunk*, not to
    the relation as a whole.

    The source must present the canonical declared domain on every chunk
    (``infer_domains=False``); marking under per-chunk inferred domains
    would embed against inconsistent value orderings.

    A ``retry`` policy arms the recovery layer: transient failures of
    source reads (re-open at the failed chunk boundary), sink writes
    (roll back to the last durable marker, rewrite the chunk) and
    checkpoint saves are retried with deterministic backoff, and every
    recovery action is counted in ``result.reliability``.  ``retry=None``
    (the default) keeps the historical fail-fast behavior.  Resume always
    prefers the newest checkpoint that passes CRC verification, falling
    back to the rotated ``.prev`` record when the newest is corrupt.

    ``workers`` fans the per-chunk embed kernels across a persistent
    process pool (``"auto"`` sizes it from ``cpu_count``); the ordered
    commit loop writes marked chunks to the sink in sequence, so output
    bytes, checkpoints and ``--resume`` stay identical to ``workers=1``.
    ``watchdog`` (pool runs only) heartbeat-monitors pool workers; pass
    ``False`` to disable the default watchdog.  Under ``retry``, a chunk
    whose pool attempts spend the whole budget finishes the run in
    process — the same output bytes, counted as ``pool_fallbacks``;
    ``retry=None`` fails fast on a pool failure.  Pool workers cannot
    take a ``constraints_factory`` or a shared :class:`HashEngine`
    instance.  A ``MemoryError`` propagates with every committed chunk
    durable; ``resume=True`` continues from there.

    Integrity layer (see :mod:`repro.reliability.integrity`):
    ``manifest`` arms per-chunk sha256 recording in the sink, journalled
    next to the checkpoint (``<checkpoint>.journal``) so
    :func:`~repro.reliability.integrity.audit_stream` can localize any
    later corruption to the exact chunk.  The default (``None``) arms it
    automatically whenever a ``checkpoint_path`` is given and the sink
    supports it — hashing never changes the output bytes.
    ``verify_resume=True`` makes resume re-hash the surviving output
    prefix against the journal instead of trusting it, rewinding to the
    last *verified* chunk (bit-rot in the prefix is rewritten, and the
    final output stays byte-identical to an uninterrupted run).
    ``lock=True`` takes an ``O_EXCL`` run lease on the checkpoint/sink
    pair so a concurrent embed/resume of the same output fails fast with
    :class:`~repro.reliability.integrity.RunLockedError` instead of
    interleaving writes; a lease whose holder died is taken over.
    """
    worker_count = resolve_workers(workers)
    if worker_count > 1:
        if isinstance(backend, HashEngine):
            raise StreamError(
                "parallel stream_mark cannot share a HashEngine across "
                "processes; pass a backend sentinel instead"
            )
        if constraints_factory is not None:
            raise StreamError(
                "parallel stream_mark does not support "
                "constraints_factory: guard constraints are stateful "
                "and chunk-scoped — run with workers=1"
            )
    schema = source_schema(source)
    if schema is None:
        raise StreamError(
            "stream_mark needs a schema-carrying ChunkSource "
            "(CSV/SQLite/synthetic), not a plain iterable"
        )
    domain = _validate_mark_inputs(schema, watermark, spec)
    engine = _resolve_stream_backend(backend, key, source_chunk_size(source))
    run = {
        "keys": [key], "spec": spec, "domain": domain,
        "watermark": watermark,
        "wm_data": spec.ecc().encode(watermark.bits, spec.channel_length),
        "constraints_factory": constraints_factory,
        "build": build_chunk, "compute": _embed_chunk,
    }

    result = StreamMarkResult(
        spec=spec, chunks=0, rows=0, fit_count=0, applied=0, vetoed=0,
        unchanged=0,
    )
    fingerprint = mark_fingerprint(key, spec, watermark)
    reliability = result.reliability

    supports_manifest = getattr(sink, "supports_manifest", False)
    record_manifest = (
        manifest if manifest is not None
        else (checkpoint_path is not None and supports_manifest)
    )
    if record_manifest and not supports_manifest:
        raise StreamError(
            f"{type(sink).__name__} cannot record a chunk-hash manifest; "
            f"use a CSV/gzip/SQLite sink or pass manifest=False"
        )
    if verify_resume and not resume:
        raise StreamError("verify_resume=True requires resume=True")
    if verify_resume and not record_manifest:
        raise StreamError(
            "verified resume needs the chunk-hash manifest: keep "
            "manifest recording enabled (a checkpoint_path plus a "
            "manifest-capable sink)"
        )
    journal = (
        journal_path(checkpoint_path)
        if record_manifest and checkpoint_path is not None
        else None
    )

    run_lock = None
    if lock:
        # The lease guards the whole run, resume inspection included — a
        # concurrent process must not even read the checkpoint while we
        # may be rewriting it.
        run_lock = RunLock(
            _lock_path(checkpoint_path, sink), fingerprint=fingerprint
        )
        if run_lock.acquire():
            reliability.lease_takeovers += 1

    start = 0
    try:
        if resume:
            if checkpoint_path is None:
                raise CheckpointError("resume=True needs a checkpoint_path")
            checkpoint, rolled_back = load_verified_checkpoint(checkpoint_path)
            if checkpoint is None:
                raise CheckpointError(
                    f"no checkpoint to resume from at {checkpoint_path}"
                )
            if rolled_back:
                reliability.checkpoint_rollbacks += 1
            if checkpoint.fingerprint != fingerprint:
                raise CheckpointError(
                    "checkpoint belongs to a different (key, spec, watermark) "
                    "run — refusing to resume into a half-marked relation"
                )
            if verify_resume:
                start = _verified_restore(
                    result, sink, schema, journal, fingerprint, reliability
                )
            else:
                start = checkpoint.chunks_done
                # the checkpoint's cumulative counters, as one delta
                _fold_delta(result, {
                    **checkpoint.counters, "rows": checkpoint.rows_done,
                    "slots": checkpoint.slots_written,
                    "vetoes": checkpoint.vetoes_by_constraint,
                })
                prefix = None
                if journal is not None:
                    jheader, jrecords = load_journal(journal)
                    if (
                        jheader is not None
                        and jheader.get("fingerprint") == fingerprint
                        and len(jrecords) >= start
                    ):
                        prefix = manifest_from_journal(
                            jheader, jrecords[:start]
                        )
                    else:
                        # The journal is missing, foreign, or shorter than
                        # the checkpoint: the prefix digests cannot be
                        # reconstructed, so recording cannot continue
                        # coherently — drop it rather than leave a
                        # misleading half-manifest for a later audit.
                        logger.warning(
                            "chunk-hash journal at %s is missing or does "
                            "not match this run; manifest recording "
                            "disabled for the resumed run", journal,
                        )
                        try:
                            os.unlink(journal)
                        except OSError:
                            pass
                        journal = None
                        record_manifest = False
                if record_manifest:
                    sink.arm_manifest()
                sink.restore(schema, checkpoint.sink_state)
                if prefix is not None:
                    sink.restore_manifest(prefix)
                    truncate_journal(journal, start)
        else:
            if record_manifest:
                sink.arm_manifest()
            sink.open(schema)
            _start_journal(journal, sink, fingerprint)

        # The durable marker the retry layer rolls the sink back to before
        # rewriting a chunk whose write failed mid-way.  A run that neither
        # retries nor checkpoints never asks the sink for a marker.
        flush = retry is not None or checkpoint_path is not None
        last_good = sink.flush_state() if retry is not None else None

        def rollback():
            reliability.sink_rollbacks += 1
            sink.restore(schema, last_good)

        def commit(task, embedded) -> Callable[[], None]:
            """Commit one marked chunk: fold its counters into the result
            and start its segment (:meth:`ChunkSink.start_chunk`).
            Returns the chunk's durable half, which the ordered run calls
            before the next chunk commits: write the segment (rolling
            back and rewriting under ``retry``), then the journal record
            and the checkpoint.  Both halves run in strict chunk order,
            which is what keeps output bytes and checkpoints identical at
            every worker count."""
            marked, pass_result, guard_report = embedded
            if not isinstance(marked, Table):  # a pool worker's marked rows
                marked = Table.from_trusted_rows(
                    schema, marked,
                    name=f"{run['profile']['name']}[{task.index}]",
                )
            delta = _journal_delta(pass_result, guard_report, len(marked))
            result.chunks += 1
            _fold_delta(result, delta)
            return partial(
                durable, task.index, delta, sink.start_chunk(marked)
            )

        def durable(index: int, delta: dict, segment) -> None:
            """One chunk's durable half: ``segment`` is the write
            :meth:`ChunkSink.start_chunk` returned."""
            nonlocal last_good

            def write():
                segment()
                return sink.flush_state() if flush else None

            state = last_good = call_with_retry(
                write, "sink.write", retry,
                recover=rollback, on_retry=reliability.record_retry,
            )
            if journal is not None:
                # Journal before checkpoint: a crash between the two
                # leaves the journal one record ahead, which resume
                # tolerates (the journalled chunk's bytes are durable —
                # flush_state above).
                append_journal_chunk(
                    journal,
                    index=index,
                    entry=sink.manifest.entries[-1],
                    delta=delta,
                    sink_state=state,
                )
            if run_lock is not None:
                run_lock.heartbeat()

            if checkpoint_path is not None:
                # ``result`` holds this chunk's counters and no later
                # chunk's: the next commit comes after this half.
                call_with_retry(
                    lambda: save_checkpoint(
                        checkpoint_path,
                        _as_checkpoint(result, fingerprint, start, state),
                    ),
                    "checkpoint.save", retry,
                    on_retry=reliability.record_retry,
                )

        try:
            result.parallel = run_chunks(
                source, start, run, [engine], commit,
                workers=worker_count, retry=retry, deadline=deadline,
                watchdog=watchdog, reliability=reliability,
            )
        finally:
            sink.close()
        _count_source_losses(reliability, source)
        result.resumed_at_chunk = start
        if record_manifest:
            result.manifest = getattr(sink, "manifest", None)
        return result
    finally:
        if run_lock is not None:
            run_lock.release()


def _lock_path(checkpoint_path, sink) -> str:
    """Where the run lease lives: next to the checkpoint when there is
    one (the thing two resumes actually race on), else next to the
    sink's output file."""
    if checkpoint_path is not None:
        return str(checkpoint_path) + ".lock"
    path = getattr(sink, "path", None)
    if path is None:
        raise StreamError(
            "run locking needs a checkpoint_path or a path-backed sink"
        )
    return str(path) + ".lock"


def _start_journal(journal, sink, fingerprint: str) -> None:
    """Begin a fresh chunk-hash journal for a just-opened sink."""
    if journal is None:
        return
    write_journal_header(
        journal,
        fingerprint=fingerprint,
        kind=sink.manifest.kind,
        header_entry=sink.manifest.header,
        open_state=sink.flush_state(),
    )


def _journal_delta(pass_result, guard_report, nrows: int) -> dict:
    """One chunk's counter contributions — per-chunk *deltas*, so any
    journal prefix reconstructs the cumulative result exactly."""
    return {
        "rows": nrows,
        "fit_count": pass_result.fit_count,
        "applied": pass_result.applied,
        "vetoed": pass_result.vetoed,
        "unchanged": pass_result.unchanged,
        "report_applied": guard_report.applied,
        "report_vetoed": guard_report.vetoed,
        "report_noop": guard_report.noop,
        "slots": sorted(pass_result.slots_written),
        "vetoes": dict(guard_report.vetoes_by_constraint),
    }


def _fold_delta(result: StreamMarkResult, delta: dict) -> None:
    """Add one chunk's counter delta (:func:`_journal_delta`) to
    ``result`` — the one fold of a committed chunk, of each journalled
    chunk a verified resume keeps (the journal prefix is then
    authoritative: the checkpoint may describe chunks the rewind just
    discarded), and of a checkpoint's totals on a plain resume."""
    result.rows += int(delta.get("rows", 0))
    result.fit_count += int(delta.get("fit_count", 0))
    result.applied += int(delta.get("applied", 0))
    result.vetoed += int(delta.get("vetoed", 0))
    result.unchanged += int(delta.get("unchanged", 0))
    result.guard_report.applied += int(delta.get("report_applied", 0))
    result.guard_report.vetoed += int(delta.get("report_vetoed", 0))
    result.guard_report.noop += int(delta.get("report_noop", 0))
    result.slots_written.update(delta.get("slots", ()))
    result.guard_report.vetoes_by_constraint.update(delta.get("vetoes", {}))


def _verified_restore(
    result: StreamMarkResult,
    sink,
    schema,
    journal,
    fingerprint: str,
    reliability: ReliabilityReport,
) -> int:
    """Re-hash the surviving output prefix and position sink + journal +
    result at the last *verified* chunk.  Returns the resume index.

    Bit-rot anywhere in the prefix rewinds to just before the damage (a
    damaged header segment restarts from scratch); the rewound chunks are
    rewritten by the resumed run, so the final output is byte-identical
    to an uninterrupted one.
    """
    header, records = load_journal(journal)
    if header is None or header.get("fingerprint") != fingerprint:
        raise CheckpointError(
            f"verified resume needs an intact chunk-hash journal at "
            f"{journal} matching this run; re-run with "
            f"verify_resume=False, or restart without resume"
        )
    prefix = manifest_from_journal(header, records)
    report = audit_stream(
        sink.path, manifest=prefix,
        table=getattr(sink, "table", "relation"),
    )
    reliability.chunks_verified += report.chunks
    sink.arm_manifest()
    open_state = header.get("open_state")
    verified = report.verified_chunks
    if not report.header_ok or (verified == 0 and open_state is None):
        # even the preamble is damaged (or there is nothing trustworthy
        # to rewind to): restart the output from scratch
        reliability.integrity_rewinds += len(records) + 1
        sink.open(schema)
        _start_journal(journal, sink, fingerprint)
        return 0
    if verified < len(records):
        reliability.integrity_rewinds += len(records) - verified
    for record in records[:verified]:
        _fold_delta(result, record.get("delta") or {})
    if verified == 0:
        sink.restore(schema, open_state)
    else:
        sink.restore(schema, records[verified - 1]["sink_state"])
    sink.restore_manifest(manifest_from_journal(header, records[:verified]))
    truncate_journal(journal, verified)
    return verified


def _as_checkpoint(
    result: StreamMarkResult,
    fingerprint: str,
    start: int,
    sink_state: dict[str, Any],
) -> MarkCheckpoint:
    return MarkCheckpoint(
        fingerprint=fingerprint,
        chunks_done=start + result.chunks,
        rows_done=result.rows,
        counters={
            "fit_count": result.fit_count,
            "applied": result.applied,
            "vetoed": result.vetoed,
            "unchanged": result.unchanged,
            "report_applied": result.guard_report.applied,
            "report_vetoed": result.guard_report.vetoed,
            "report_noop": result.guard_report.noop,
        },
        slots_written=sorted(result.slots_written),
        vetoes_by_constraint=dict(result.guard_report.vetoes_by_constraint),
        sink_state=sink_state,
    )


# -- streaming detection -------------------------------------------------------

@dataclass
class StreamDetection:
    """Blind streamed extraction plus its accumulated vote state."""

    detection: DetectionResult
    votes: SlotVotes
    chunks: int
    rows: int
    reliability: ReliabilityReport = field(default_factory=ReliabilityReport)
    #: :class:`~repro.reliability.pool.ParallelReport` when ``workers > 1``
    parallel: Any = None


@dataclass
class StreamVerification:
    """Streamed verification verdict plus its accumulated vote state."""

    verification: VerificationResult
    votes: SlotVotes
    chunks: int
    rows: int
    reliability: ReliabilityReport = field(default_factory=ReliabilityReport)
    #: :class:`~repro.reliability.pool.ParallelReport` when ``workers > 1``
    parallel: Any = None

    @property
    def detected(self) -> bool:
        return self.verification.detected

    def summary(self) -> str:
        return self.verification.summary()


def _chunk_votes(
    run: dict[str, Any],
    engines: Sequence[HashEngine | None],
    index: int,
    chunk,
) -> tuple[list[SlotVotes], int]:
    """The per-chunk function of a detection run: every pass's slot-vote
    tallies for one chunk, and its row count.  One
    :func:`~repro.core.kernels.detect_multipass` launch serves all VECTOR
    passes, which share the chunk's key factorization by construction;
    SCALAR (``None`` engines) scans the chunk table once per pass."""
    keys, spec, maps = run["keys"], run["spec"], run["maps"]
    domain, value_mapping = run["domain"], run["value_mapping"]
    if None in engines:
        tallies = [
            extract_slot_votes(
                chunk, key, spec, embedding_map, domain, value_mapping,
                engine=SCALAR,
            )
            for key, embedding_map in zip(keys, maps)
        ]
    else:
        tallies = [
            SlotVotes.from_arrays(*tally)
            for tally in kernels.detect_multipass(
                [chunk] * len(keys), spec, [domain] * len(keys), maps,
                value_mapping, engines,
            )
        ]
    return tallies, len(chunk)


def _scan(
    source,
    keys: Sequence[MarkKey],
    spec: EmbeddingSpec,
    maps: Sequence[dict[Hashable, int] | None],
    *,
    domain: CategoricalDomain | None,
    value_mapping: dict[Hashable, Hashable] | None,
    backend: HashEngine | str | None,
    workers: int | str | None,
    retry: RetryPolicy | None,
    deadline: Deadline | None,
    watchdog,
    reliability: ReliabilityReport,
) -> tuple[list[VoteAccumulator], int, int, Any]:
    """The one detection scan of :func:`stream_detect` and
    :func:`stream_verify_multipass`: every key's tallies of ``source``,
    ``(accumulators, chunks, rows, parallel report)``, merged in chunk
    order, so every accumulator's state is identical at every worker
    count.

    Every chunk decodes against one canonical domain, never a per-chunk
    (possibly inference-widened) schema: the explicit ``domain`` (the
    escrowed ``record.domain_values``, the blind-detection norm), else
    the source's declared schema, else — for a schema-less iterable —
    the first chunk's.  The vector kernels read only a chunk's key and
    mark column codes, so a VECTOR run builds raw CSV payloads with
    :func:`~repro.stream.sources.build_chunk_codes` (same typing, same
    checks, no rows); SCALAR, the reference, builds every chunk table.
    """
    chunk_size = source_chunk_size(source)
    schema = source_schema(source)
    if domain is None and schema is not None:
        domain = schema.attribute(spec.mark_attribute).domain
    engines = [
        _resolve_stream_backend(backend, key, chunk_size) for key in keys
    ]
    accumulators = [VoteAccumulator(spec.channel_length) for _ in keys]
    chunks = rows = 0

    def commit(task, result) -> None:
        nonlocal chunks, rows
        tallies, nrows = result
        for accumulator, tally in zip(accumulators, tallies):
            accumulator.add(tally)
        chunks += 1
        rows += nrows

    run = {
        "keys": list(keys), "maps": list(maps), "spec": spec,
        "domain": domain, "value_mapping": value_mapping,
        "build": build_chunk if None in engines else partial(
            build_chunk_codes,
            attributes=(spec.key_attribute, spec.mark_attribute),
        ),
        "compute": _chunk_votes,
    }
    parallel = run_chunks(
        source, 0, run, engines, commit,
        # after the domain and the engines: a call wrong in two ways
        # raises the error it always raised
        workers=resolve_workers(workers), retry=retry, deadline=deadline,
        watchdog=watchdog, reliability=reliability,
    )
    return accumulators, chunks, rows, parallel


def stream_detect(
    source,
    key: MarkKey,
    spec: EmbeddingSpec,
    *,
    embedding_map: dict[Hashable, int] | None = None,
    domain: CategoricalDomain | None = None,
    value_mapping: dict[Hashable, Hashable] | None = None,
    backend: HashEngine | str | None = None,
    retry: RetryPolicy | None = None,
    deadline: Deadline | None = None,
    workers: int | str | None = None,
    watchdog=None,
) -> StreamDetection:
    """Blindly extract the most likely watermark from a streamed relation.

    Bit-identical to :func:`repro.core.detect` over the concatenation of
    the chunks, at O(chunk + channel length) memory: each chunk
    contributes one bincount tally to a :class:`VoteAccumulator`, and the
    majority/first-vote resolution runs once at the end.  A ``retry``
    policy makes transient chunk-read failures re-open the source at the
    failed boundary instead of aborting the scan — safe because each
    chunk's tally is merged only after the chunk was fully read.

    ``workers`` fans chunk decode + kernel work across a persistent
    process pool (``"auto"`` sizes it from ``cpu_count``); tallies are
    merged in chunk order, so the verdict is bit-identical to
    ``workers=1`` for every worker count.  ``watchdog`` (pool runs only)
    heartbeat-monitors pool workers; ``False`` disables it.  Under
    ``retry``, a chunk whose pool attempts spend the whole budget
    finishes the scan in process — the same verdict, counted as
    ``pool_fallbacks``; ``retry=None`` fails fast on a pool failure.
    """
    _check_maps(spec, embedding_map)
    if resolve_workers(workers) > 1 and isinstance(backend, HashEngine):
        raise StreamError(
            "parallel stream_detect cannot share a HashEngine across "
            "processes; pass a backend sentinel instead"
        )
    reliability = ReliabilityReport()
    accumulators, chunks, rows, report = _scan(
        source, [key], spec, [embedding_map], domain=domain,
        value_mapping=value_mapping, backend=backend, workers=workers,
        retry=retry, deadline=deadline, watchdog=watchdog,
        reliability=reliability,
    )
    _count_source_losses(reliability, source)
    return StreamDetection(
        detection=accumulators[0].detection(spec),
        votes=accumulators[0].votes(),
        chunks=chunks,
        rows=rows,
        reliability=reliability,
        parallel=report,
    )


def stream_verify(
    source,
    key: MarkKey,
    spec: EmbeddingSpec,
    expected: Watermark,
    *,
    embedding_map: dict[Hashable, int] | None = None,
    domain: CategoricalDomain | None = None,
    value_mapping: dict[Hashable, Hashable] | None = None,
    significance: float = DEFAULT_SIGNIFICANCE,
    backend: HashEngine | str | None = None,
    retry: RetryPolicy | None = None,
    deadline: Deadline | None = None,
    workers: int | str | None = None,
    watchdog=None,
) -> StreamVerification:
    """Streamed counterpart of :func:`repro.core.verify`.

    The verdict — decoded payload, per-slot votes, matching bits,
    false-hit probability — is bit-identical to the in-memory
    :func:`~repro.core.verify` on the same rows, for every chunk size.
    Suspect files may hold out-of-domain values (attacked copies): read
    them with ``infer_domains=True`` sources and pass the escrowed
    canonical ``domain`` explicitly, exactly like the in-memory blind
    detector.
    """
    _check_expected(spec, expected)
    streamed = stream_detect(
        source,
        key,
        spec,
        embedding_map=embedding_map,
        domain=domain,
        value_mapping=value_mapping,
        backend=backend,
        retry=retry,
        deadline=deadline,
        workers=workers,
        watchdog=watchdog,
    )
    return StreamVerification(
        verification=_assemble_verification(
            streamed.detection, expected, significance
        ),
        votes=streamed.votes,
        chunks=streamed.chunks,
        rows=streamed.rows,
        reliability=streamed.reliability,
        parallel=streamed.parallel,
    )


def stream_verify_multipass(
    source,
    keys: Sequence[MarkKey],
    spec: EmbeddingSpec,
    expecteds: Sequence[Watermark],
    *,
    embedding_maps: Sequence[dict[Hashable, int] | None] | None = None,
    domain: CategoricalDomain | None = None,
    value_mapping: dict[Hashable, Hashable] | None = None,
    significance: float = DEFAULT_SIGNIFICANCE,
    backend: str | None = None,
    retry: RetryPolicy | None = None,
    deadline: Deadline | None = None,
    workers: int | str | None = None,
    watchdog=None,
) -> list[VerificationResult]:
    """Streamed counterpart of :func:`repro.core.verify_multipass`.

    Verifies P keyed passes of one spec over a single pass through the
    stream: every chunk is tallied for all P keys at once through the
    fused multi-pass kernel (all passes share the chunk's key-column
    factorization by construction), and P accumulators carry the per-pass
    vote state.  Results are bit-identical to a loop of in-memory
    :func:`~repro.core.verify` calls over the concatenated rows.

    ``workers`` fans the fused per-chunk tally work across a persistent
    process pool; ordered accumulator merges keep every pass's verdict
    bit-identical to ``workers=1``.
    """
    keys = list(keys)
    expecteds = list(expecteds)
    if len(keys) != len(expecteds):
        raise DetectionError(
            f"{len(keys)} keys but {len(expecteds)} expected watermarks"
        )
    maps: Sequence[dict[Hashable, int] | None]
    maps = (
        list(embedding_maps) if embedding_maps is not None
        else [None] * len(keys)
    )
    if len(maps) != len(keys):
        raise DetectionError(
            f"{len(keys)} keys but {len(maps)} embedding maps"
        )
    _check_maps(spec, *maps)
    _check_expected(spec, *expecteds)
    if isinstance(backend, HashEngine):
        raise StreamError(
            "stream_verify_multipass needs one engine per pass; pass a "
            "backend sentinel instead"
        )
    accumulators, _, _, _ = _scan(
        source, keys, spec, maps, domain=domain,
        value_mapping=value_mapping, backend=backend, workers=workers,
        retry=retry, deadline=deadline, watchdog=watchdog,
        reliability=ReliabilityReport(),
    )
    ecc = spec.ecc()
    return [
        _assemble_verification(
            accumulator.detection(spec, ecc=ecc), expected, significance
        )
        for accumulator, expected in zip(accumulators, expecteds)
    ]
