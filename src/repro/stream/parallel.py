"""The ordered chunk run behind every streaming mark and detect.

The scheme's per-tuple decisions are pure functions of a keyed hash of
the tuple's key value, so chunks are independent by construction and
``VoteAccumulator`` merges are associative.  This module runs chunks;
:mod:`repro.stream.pipeline` says what a chunk does.  Every ``stream_*``
call builds one **run**, a dict holding:

* what every chunk needs — keys, spec, domain, and the embedding maps
  or the watermark data;
* the source's payload profile
  (:func:`~repro.stream.sources.payload_profile`), which
  :func:`run_chunks` adds;
* the chunk builder (``run["build"]``):
  :func:`~repro.stream.sources.build_chunk` (a chunk table) for marking
  and the SCALAR reference, :func:`~repro.stream.sources.build_chunk_codes`
  (the key and mark column codes of a raw CSV payload) for VECTOR
  detection;
* the per-chunk function (``run["compute"]``), which lives next to its
  entry point in :mod:`repro.stream.pipeline`.

:func:`run_chunks` runs it through the one ordered pool run,
:class:`~repro.reliability.pool.OrderedRun`, at every worker count.
Every run reads the same chunk tasks — the source's one reader,
:func:`~repro.stream.sources.payload_chunks` (raw CSV text, typed row
tuples, finished tables) — and every chunk is computed at one call
site, ``run["compute"](run, engines, index, chunk)``, wherever it runs:

* **In process** (``workers=None`` or ``1``) — the run reads one task,
  builds and computes its chunk on the caller's engines and commits it.
  A mark's commit hands back its durable half (sink write, fsync,
  journal record, checkpoint), which stays in flight while the next
  chunk is read and computed — a gzip sink deflates the member on its
  helper thread meanwhile — and runs before that chunk commits, after
  the last chunk, or before an error propagates.  Detection commits
  hand back nothing.  No pool, nothing pickled.
* **On a pool** (``workers > 1``) — the coordinator keeps
  ``2 × workers`` chunks in flight on a persistent process pool, so
  decode overlaps compute.  Each worker is initialized once with the
  run itself, pickled; it builds one warm chunk-bounded
  :func:`stream_engine` per key and makes the same call through one pool
  task, which builds each task's chunk there (a CSV chunk's field split
  and typing happen *in the worker*: the coordinator only decompresses
  the file and cuts its text at line ends).  A later run that pickles
  identically reuses the pool and its warm engines.

Either way, chunks commit in strict chunk order: detection merges each
chunk's tallies into the accumulators, embedding writes the marked chunk
to the sink and checkpoints (its durable half, finished before the next
chunk commits, on a pool too).  Ordered merge preserves the global
first-vote tie rule; ordered commit preserves the sink's
one-gzip-member-per-chunk framing — which is what pins ``workers=N``
bit-identical to ``workers=1`` and to the in-memory verifiers.

Reliability: a :class:`~repro.reliability.RetryPolicy` re-opens the
source at the failed chunk after a transient read failure, and the run's
:class:`~repro.reliability.Deadline` is checked at every chunk boundary,
at every worker count.  On a pool the run follows the one failure rule
of :mod:`repro.reliability.pool`: failed chunks are re-dispatched (pure
functions — the replay is bit-identical), a broken pool is respawned,
and a chunk that spends the whole retry budget — a pool that cannot
start included — finishes the run in process with the same per-chunk
function.  ``retry=None`` fails fast.
"""

from __future__ import annotations

import csv
import hashlib
import logging
import os
import pickle
from collections.abc import Callable, Iterator, Sequence
from typing import Any

from ..core import kernels
from ..core.embedding import EmbeddingSpec
from ..core.errors import DetectionError
from ..crypto import HashEngine, MarkKey
from ..relational import CategoricalDomain
from ..reliability.deadline import Deadline
from ..reliability.faults import fault_point
from ..reliability.pool import (
    OrderedRun,
    ParallelReport,
    PersistentPool,
    resolve_watchdog,
)
from ..reliability.report import ReliabilityReport
from ..reliability.retry import RetryPolicy, call_with_retry
from ..reliability.watchdog import Watchdog
from .errors import StreamError
from .sources import (
    DEFAULT_CHUNK_SIZE,
    PAYLOAD_TABLE,
    ChunkTask,
    payload_chunks,
    payload_decoders,
    payload_profile,
    source_chunk_size,
)

logger = logging.getLogger(__name__)

#: ``workers=`` sentinel: size the pool from the machine
AUTO_WORKERS = "auto"

#: floor on the stream engine's memoization-cache entry bound; the bound
#: scales with the chunk size (see :func:`stream_engine`) so steady-state
#: memory is O(chunk), not O(rows seen)
MIN_ENGINE_ENTRIES = 8_192

#: cache-entry bound as a multiple of the chunk size — large enough that
#: a mark-then-verify pair (or repeated values across nearby chunks)
#: stays warm, small enough to stay chunk-proportional
ENGINE_ENTRY_FACTOR = 4


def stream_engine(
    key: MarkKey, chunk_size: int = DEFAULT_CHUNK_SIZE
) -> HashEngine:
    """A stream-scoped :class:`HashEngine` with chunk-bounded caches.

    Unlike the process-wide :func:`~repro.crypto.get_engine` registry
    engine (bounded at millions of entries — fine for in-memory
    relations, O(rows) for an unbounded stream), this engine's digest
    caches are capped at ``max(MIN_ENGINE_ENTRIES,
    ENGINE_ENTRY_FACTOR * chunk_size)`` entries — dropped wholesale when
    the cap is crossed, so steady-state memory stays O(chunk) however
    many rows flow past, while values re-seen within the window (a
    mark-then-verify pair, repeated chunks) still re-hash nothing.
    """
    return HashEngine(
        key,
        max_entries=max(MIN_ENGINE_ENTRIES, ENGINE_ENTRY_FACTOR * chunk_size),
    )


def resolve_workers(workers: int | str | None) -> int:
    """Normalize a ``workers=`` parameter to a positive worker count.

    ``None`` and ``1`` run the ordered loop in process: no pool, no
    pickled run.  ``"auto"`` applies the cpu_count
    heuristic: reserve one core for the coordinator's read-ahead decode
    and fan the rest, never fewer than two workers once a second core
    exists and never more than eight (the coordinator decompresses and
    cuts every chunk serially, which caps the workers it can feed).
    """
    if workers is None:
        return 1
    if isinstance(workers, str):
        if workers.lower() != AUTO_WORKERS:
            raise StreamError(
                f"workers must be a positive int or {AUTO_WORKERS!r}, "
                f"got {workers!r}"
            )
        cores = os.cpu_count() or 1
        if cores < 2:
            return 1
        return max(2, min(cores - 1, 8))
    count = int(workers)
    if count < 1:
        raise StreamError(f"workers must be >= 1, got {workers!r}")
    return count


# -- pool workers --------------------------------------------------------------
#
# One persistent pool, keyed by (hash of the pickled run, worker count).
# Workers hold warm per-key stream engines, so repeated identical runs
# re-hash nothing.

_pool = PersistentPool("stream-heartbeat-")

# Worker-process globals, set by _worker_init: the run, its engines and
# decoders, and the number of chunks this worker computed.
_RUN: dict[str, Any] | None = None
_ENGINES: list[HashEngine | None] = []
_DECODERS = None
_CHUNKS = 0


def _worker_init(blob: bytes) -> None:
    """Pool initializer: install the run, build one warm chunk-bounded
    stream engine per key, zero worker-local telemetry."""
    global _RUN, _ENGINES, _DECODERS, _CHUNKS
    _RUN = pickle.loads(blob)
    csv.field_size_limit(_RUN["field_size_limit"])
    _ENGINES = [
        None if _RUN["scalar"] else stream_engine(key, _RUN["chunk_size"])
        for key in _RUN["keys"]
    ]
    _DECODERS = payload_decoders(_RUN["profile"]["schema"])
    _CHUNKS = 0
    # Worker-local counters must count this worker's launches only,
    # whatever the parent process had accumulated before the fork.
    kernels.reset_kernel_calls()


def in_pool_worker() -> bool:
    """Whether this process is a stream pool worker, whose chunk results
    are pickled back to the coordinator."""
    return _RUN is not None


def _compute(run: dict[str, Any], engines, decoders, task: ChunkTask):
    """Build ``task``'s chunk and compute it: the one call site of a
    run's per-chunk function, in process and in pool workers."""
    chunk = run["build"](task, run["profile"], decoders)
    return run["compute"](run, engines, task.index, chunk)


def _pool_task(task: ChunkTask):
    """The one pool task: ``(result, worker stats)`` of one chunk."""
    global _CHUNKS
    result = _compute(_RUN, _ENGINES, _DECODERS, task)
    _CHUNKS += 1
    return result, {
        "pid": os.getpid(),
        "chunks": _CHUNKS,
        "kernel_calls": dict(kernels.KERNEL_CALLS),
        "computed_digests": sum(
            engine.computed_digests
            for engine in _ENGINES
            if engine is not None
        ),
    }


def shutdown_stream_pool() -> None:
    """Retire the persistent stream pool (test isolation, run change,
    interpreter exit)."""
    _pool.shutdown()


def _run_blob(run: dict[str, Any]) -> bytes:
    """The pickled run every pool worker is initialized with."""
    try:
        return pickle.dumps(run)
    except (pickle.PicklingError, TypeError, AttributeError) as exc:
        # The three ways pickling actually fails: a declared-unpicklable
        # object, an unsupported type (lambda, local class), or a lookup
        # that dies during __reduce__.  Anything else is a real bug in
        # run assembly and should surface with its own traceback.
        logger.warning(
            "run for %s is not picklable: %r", run["profile"]["name"], exc,
        )
        raise StreamError(
            f"parallel streaming needs a picklable run state: {exc}"
        ) from exc


# -- reading -------------------------------------------------------------------

def _tasks_with_retry(
    source,
    start: int,
    policy: RetryPolicy | None,
    report: ReliabilityReport,
) -> Iterator[ChunkTask]:
    """Chunk tasks of ``source`` from ``start``
    (:func:`~repro.stream.sources.payload_chunks`), each read through
    :func:`~repro.reliability.retry.call_with_retry`, whose recovery
    re-opens the source.

    A failed read never loses or duplicates a chunk: the source is
    re-opened at the position after the last task yielded (tasks already
    handed out — committed, or held in the read-ahead window — are never
    re-read), so a retried read re-produces the exact chunk whose read
    failed.  Attempts are bounded per position; plain iterables cannot
    be re-opened and propagate their failures unchanged.
    """
    if policy is None or not hasattr(source, "chunks"):
        yield from payload_chunks(source, start)
        return
    position = start
    iterator = payload_chunks(source, position)

    def reopen():
        nonlocal iterator
        report.source_reopens += 1
        iterator = payload_chunks(source, position)

    while True:
        task = call_with_retry(
            lambda: next(iterator, None), "source.read", policy,
            recover=reopen, on_retry=report.record_retry,
        )
        if task is None:
            return
        yield task
        position += 1


def _peek_domain(
    tasks: Iterator[ChunkTask], spec: EmbeddingSpec
) -> tuple[CategoricalDomain | None, Iterator[ChunkTask]]:
    """Pin the canonical domain from the first chunk (schema-less
    iterable sources): ``(domain, tasks)`` where ``tasks`` still yields
    the peeked task first.  No reference to it survives that yield, so
    the run releases chunk 0 as soon as it commits."""
    held = [next(tasks, None)]
    if held[0] is None:
        return None, iter(())
    first = held[0]
    domain = None
    if first.kind == PAYLOAD_TABLE:
        domain = first.payload.schema.attribute(spec.mark_attribute).domain
    if domain is None:
        raise DetectionError(
            f"no categorical domain available for {spec.mark_attribute!r}"
        )

    def replay():
        yield held.pop()
        yield from tasks

    return domain, replay()


# -- the ordered run -----------------------------------------------------------

def run_chunks(
    source,
    start: int,
    run: dict[str, Any],
    engines: Sequence[HashEngine | None],
    commit: Callable[[ChunkTask, Any], Callable[[], None] | None],
    *,
    workers: int,
    retry: RetryPolicy | None,
    deadline: Deadline | None,
    watchdog: Watchdog | bool | None,
    reliability: ReliabilityReport,
) -> ParallelReport | None:
    """Run ``run`` over the chunks of ``source`` from chunk ``start``.

    ``commit(task, result)`` sees every chunk's result in chunk order.
    It may hand back the chunk's *durable half* (a mark's sink write,
    fsync, journal record and checkpoint), which the run keeps in flight
    while it reads and computes the next chunk: the run calls it before
    the next chunk commits, after the last chunk, and before any error
    raised while reading or computing a later chunk propagates (if the
    half itself fails, its error is the one raised).  So every chunk
    whose commit began is durable when the run ends, however it ends,
    short of a kill.  Each chunk is followed by the ``"pipeline.chunk"``
    fault point: after its commit, or after its durable half.  With one
    worker every chunk is computed here, on ``engines`` (one per key,
    ``None`` for SCALAR).  With more, pool workers initialized with the
    pickled run compute them on engines of their own, and ``engines``
    serve only the in-process finish after a chunk spent the retry
    budget.  The run gains the source's payload profile
    (``run["profile"]``), and a run whose ``"domain"`` is ``None`` (a
    schema-less iterable source) pins it from its first chunk.

    The task stream is closed however the run ends, so a run that raises
    releases the source's reader (a SQLite connection, a gzip handle) at
    the raise, in this thread.  Returns the pool run's report, ``None``
    in process.
    """
    run["profile"] = payload_profile(source)
    decoders = payload_decoders(run["profile"]["schema"])
    blob = None

    def open_pool():
        nonlocal blob
        if blob is None:
            # What workers build their engines with, and the caller's
            # limit to split CSV text with.
            blob = _run_blob({
                **run, "scalar": None in engines,
                "chunk_size": source_chunk_size(source),
                "field_size_limit": csv.field_size_limit(),
            })
        return _pool.ensure(
            hashlib.sha256(blob).digest(), workers, _worker_init, blob
        )

    # (index, durable half) of the chunk in flight, if any
    pending = None

    def finish() -> None:
        nonlocal pending
        if pending is None:
            return
        index, durable = pending
        pending = None
        durable()
        # Injection point: the chunk is fully committed (for an embed:
        # durable) here — a kill at this boundary is the canonical crash
        # the chaos kill-matrix resumes from.
        fault_point("pipeline.chunk", index)

    def commit_chunk(task: ChunkTask, outcome) -> None:
        nonlocal pending
        result, stats = outcome
        finish()
        durable = commit(task, result)
        if stats is not None:
            report.note(stats)
        if durable is None:
            fault_point("pipeline.chunk", task.index)
        else:
            pending = (task.index, durable)

    tasks = stream = _tasks_with_retry(source, start, retry, reliability)
    try:
        if run["domain"] is None:
            run["domain"], tasks = _peek_domain(stream, run["spec"])
        ordered = OrderedRun(
            _pool, open_pool if workers > 1 else None, _pool_task,
            lambda task: (_compute(run, engines, decoders, task), None),
            commit_chunk, workers=workers, label="pipeline.chunk",
            retry=retry, deadline=deadline,
            watchdog=resolve_watchdog(watchdog), reliability=reliability,
        )
        # ``commit_chunk`` reads the report, not the ordered run that
        # holds it: a reference cycle would keep the run's engines and
        # their caches alive after the call, until the cyclic GC ran.
        report = ordered.report
        ordered.run((task.index, task) for task in tasks)
        finish()
    except BaseException:
        finish()
        raise
    finally:
        stream.close()
    return report if workers > 1 else None
