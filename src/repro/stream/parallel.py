"""The ordered chunk run behind every streaming mark and detect.

The scheme's per-tuple decisions are pure functions of a keyed hash of
the tuple's key value, so chunks are independent by construction and
``VoteAccumulator`` merges are associative.  Every ``stream_*`` call, at
every worker count, runs its chunks through the one ordered pool run,
:class:`~repro.reliability.pool.OrderedRun` (:func:`_run_chunks` adapts
it to chunks), and each direction has one per-chunk function —
:func:`_chunk_votes` and :func:`_embed_chunk` — that every chunk runs
through wherever it is computed.

Every run reads the same chunk tasks — the source's one reader,
:func:`~repro.stream.sources.payload_chunks` (raw CSV text, typed row
tuples, finished tables) — and builds every chunk from its task with
one function wherever the chunk is computed:
:func:`~repro.stream.sources.build_chunk` (a chunk table) for marking
and the SCALAR reference, :func:`~repro.stream.sources.build_chunk_codes`
(the key and mark column codes of a raw CSV payload) for VECTOR
detection:

* **In process** (``workers=None`` or ``1``) — the run reads one task,
  builds and computes its chunk and commits it before reading the next.
  No pool, no pickled run state.
* **On a pool** (``workers > 1``) — the coordinator keeps
  ``2 × workers`` chunks in flight on a persistent process pool, so
  decode overlaps compute.  Workers are initialized once with the
  pickled run state (keys, spec, domain, schema, the chunk builder),
  build one warm chunk-bounded :func:`stream_engine` per key, build each
  task's chunk (a CSV chunk's field split and typing happen *there*: the
  coordinator only decompresses the file and cuts its text at newlines)
  and call the same per-chunk function.

Either way, chunks commit in strict chunk order: detection merges each
chunk's tallies into the accumulators, embedding writes the marked chunk
to the sink and checkpoints.  Ordered merge preserves the global
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
functions.  ``retry=None`` fails fast.
"""

from __future__ import annotations

import csv
import hashlib
import logging
import os
import pickle
from collections.abc import Callable, Iterator, Sequence
from functools import partial
from typing import Any, Hashable

from ..core import kernels
from ..core.detection import SlotVotes, VoteAccumulator, extract_slot_votes
from ..core.embedding import EmbeddingResult, EmbeddingSpec, embed
from ..core.errors import DetectionError
from ..core.watermark import Watermark
from ..crypto import SCALAR, HashEngine, MarkKey
from ..quality import GuardReport, QualityGuard
from ..relational import CategoricalDomain, Table
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
    ChunkCodes,
    ChunkTask,
    build_chunk,
    build_chunk_codes,
    payload_chunks,
    payload_decoders,
    payload_profile,
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
    pickled run state.  ``"auto"`` applies the cpu_count
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


# -- the per-chunk functions (workers, in process, pool fallback) --------------

def _chunk_votes(
    chunk: Table | ChunkCodes,
    keys: Sequence[MarkKey],
    spec: EmbeddingSpec,
    maps: Sequence[dict[Hashable, int] | None],
    domain: CategoricalDomain,
    value_mapping: dict[Hashable, Hashable] | None,
    engines: Sequence[HashEngine | None],
) -> list[SlotVotes]:
    """Every pass's slot-vote tallies for one chunk on ``engines``:
    one :func:`~repro.core.kernels.detect_multipass` launch for all
    VECTOR passes, which share the chunk's key factorization by
    construction; SCALAR (``None`` engines) scans the chunk table once
    per pass."""
    if None in engines:
        return [
            extract_slot_votes(
                chunk, key, spec, embedding_map, domain, value_mapping,
                engine=SCALAR,
            )
            for key, embedding_map in zip(keys, maps)
        ]
    return [
        SlotVotes.from_arrays(*tally)
        for tally in kernels.detect_multipass(
            [chunk] * len(keys), spec, [domain] * len(keys), maps,
            value_mapping, engines,
        )
    ]


def _embed_chunk(
    chunk: Table,
    watermark: Watermark,
    key: MarkKey,
    spec: EmbeddingSpec,
    domain: CategoricalDomain,
    wm_data,
    constraints_factory: Callable[[], list] | None,
    engine: HashEngine | None,
    index: int,
) -> tuple[EmbeddingResult, GuardReport]:
    """Embed one chunk in place under a fresh per-chunk guard on
    ``engine`` (``None``: SCALAR); returns ``(pass_result,
    guard_report)``."""
    if chunk.schema.attribute(spec.mark_attribute).domain != domain:
        raise StreamError(
            "chunk domain drifted from the declared domain — "
            "stream_mark sources must be built with infer_domains=False"
        )
    # Injection point: embed-step faults (hang/slow/memory) land here,
    # before the chunk is durable, unlike the post-durability
    # "pipeline.chunk" point.  Pool workers run disarmed.
    fault_point("pipeline.embed", index)
    guard = QualityGuard(
        list(constraints_factory()) if constraints_factory else []
    )
    guard.bind(chunk)
    if engine is None:
        pass_result = embed(
            chunk, watermark, key, spec, guard=guard, engine=SCALAR
        )
    else:
        pass_result = EmbeddingResult(
            spec=spec, fit_count=0, applied=0, vetoed=0, unchanged=0,
        )
        kernels.embed_vector(
            chunk, spec, domain, wm_data, guard, pass_result, engine
        )
    return pass_result, guard.report


# -- pool workers --------------------------------------------------------------
#
# One persistent pool, keyed by (hash of the pickled run state, worker
# count).  Workers hold warm per-key stream engines, so repeated verify
# calls with the same run state re-hash nothing.

_pool = PersistentPool("stream-heartbeat-")

# Worker-process globals (set by _worker_init, used by the task fns).
_W: dict[str, Any] | None = None
_W_ENGINES: list | None = None
_W_DECODERS = None
_W_CHUNKS = 0


def _worker_init(blob: bytes) -> None:
    """Pool initializer: install the run state, build one warm
    chunk-bounded stream engine per key, zero worker-local telemetry."""
    global _W, _W_ENGINES, _W_DECODERS, _W_CHUNKS
    _W = pickle.loads(blob)
    csv.field_size_limit(_W["field_size_limit"])
    _W_ENGINES = [
        None if _W["scalar"] else stream_engine(key, _W["chunk_size"])
        for key in _W["keys"]
    ]
    _W_DECODERS = payload_decoders(_W["profile"]["schema"])
    _W_CHUNKS = 0
    # Worker-local counters must count this worker's launches only,
    # whatever the parent process had accumulated before the fork.
    kernels.reset_kernel_calls()


def _in_worker(task: ChunkTask, compute):
    """Run ``compute(chunk)`` on one payload inside a pool worker;
    returns ``(result, worker stats)``."""
    global _W_CHUNKS
    result = compute(_W["build"](task, _W["profile"], _W_DECODERS))
    _W_CHUNKS += 1
    return result, {
        "pid": os.getpid(),
        "chunks": _W_CHUNKS,
        "kernel_calls": dict(kernels.KERNEL_CALLS),
        "computed_digests": sum(
            engine.computed_digests
            for engine in _W_ENGINES
            if engine is not None
        ),
    }


def _task_votes(task: ChunkTask):
    """Pool task: one chunk's per-pass tallies and row count."""
    def votes(chunk):
        tallies = _chunk_votes(
            chunk, _W["keys"], _W["spec"], _W["maps"], _W["domain"],
            _W["value_mapping"], _W_ENGINES,
        )
        return tallies, len(chunk)

    return _in_worker(task, votes)


def _task_embed(task: ChunkTask):
    """Pool task: embed one chunk; ships the marked rows back with the
    chunk's embedding and guard reports."""
    def marked_rows(chunk):
        pass_result, guard_report = _embed_chunk(
            chunk, _W["watermark"], _W["keys"][0], _W["spec"], _W["domain"],
            _W["wm_data"], None, _W_ENGINES[0], task.index,
        )
        return list(iter(chunk)), pass_result, guard_report

    return _in_worker(task, marked_rows)


def shutdown_stream_pool() -> None:
    """Retire the persistent stream pool (test isolation, run-state
    change, interpreter exit)."""
    _pool.shutdown()


def _run_blob(state: dict[str, Any]) -> bytes:
    """The pickled run state every pool worker is initialized with."""
    try:
        return pickle.dumps(state)
    except (pickle.PicklingError, TypeError, AttributeError) as exc:
        # The three ways pickling actually fails: a declared-unpicklable
        # object, an unsupported type (lambda, local class), or a lookup
        # that dies during __reduce__.  Anything else is a real bug in
        # run-state assembly and should surface with its own traceback.
        logger.warning(
            "run state for %s is not picklable: %r",
            state["profile"]["name"], exc,
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

def _run_chunks(
    tasks: Iterator[ChunkTask],
    profile: dict[str, Any],
    compute,
    commit,
    *,
    build,
    pool_task,
    state: dict[str, Any],
    workers: int,
    retry: RetryPolicy | None,
    deadline: Deadline | None,
    watchdog: Watchdog | bool | None,
    reliability: ReliabilityReport,
) -> ParallelReport | None:
    """Run chunk ``tasks`` through the one ordered pool run.

    ``build(task, profile, decoders)`` turns each task into the chunk
    ``compute(index, chunk)`` runs on in this process, and ``commit(task,
    result)`` sees the chunks in chunk order, each followed by the
    ``"pipeline.chunk"`` fault point.  With one worker every chunk is
    computed here: no pool, no pickled run state.  With more,
    ``pool_task(task)`` runs in workers initialized with the pickled
    ``state`` and ``build`` (so a run builds its chunks one way wherever
    they are computed), and ``compute`` serves only the in-process finish
    after a chunk spent the retry budget.  Returns the run's report,
    ``None`` in process.
    """
    decoders = payload_decoders(profile["schema"])
    blob = None

    def open_pool():
        nonlocal blob
        if blob is None:
            blob = _run_blob({
                **state, "profile": profile, "build": build,
                # Workers split CSV text: with the caller's limit.
                "field_size_limit": csv.field_size_limit(),
            })
        return _pool.ensure(
            hashlib.sha256(blob).digest(), workers, _worker_init, blob
        )

    def in_process(task: ChunkTask):
        return compute(task.index, build(task, profile, decoders)), None

    def commit_chunk(task: ChunkTask, outcome) -> None:
        result, stats = outcome
        commit(task, result)
        if stats is not None:
            report.note(stats)
        # Injection point: the chunk is fully committed (for an embed:
        # durable) here — a kill at this boundary is the canonical crash
        # the chaos kill-matrix resumes from.
        fault_point("pipeline.chunk", task.index)

    run = OrderedRun(
        _pool, open_pool if workers > 1 else None, pool_task, in_process,
        commit_chunk, workers=workers, label="pipeline.chunk", retry=retry,
        deadline=deadline, watchdog=resolve_watchdog(watchdog),
        reliability=reliability,
    )
    # ``commit_chunk`` reads the report, not the run that holds it: a
    # reference cycle would keep the run's engines and their caches alive
    # after the call, until the cyclic GC ran.
    report = run.report
    run.run((task.index, task) for task in tasks)
    return report if workers > 1 else None


# -- the two directions --------------------------------------------------------

def ordered_votes(
    source,
    keys: Sequence[MarkKey],
    spec: EmbeddingSpec,
    *,
    maps: Sequence[dict[Hashable, int] | None],
    domain: CategoricalDomain | None,
    value_mapping: dict[Hashable, Hashable] | None,
    engines: Sequence[HashEngine | None],
    chunk_size: int,
    workers: int,
    retry: RetryPolicy | None,
    deadline: Deadline | None,
    watchdog: Watchdog | bool | None,
    reliability: ReliabilityReport,
) -> tuple[list[VoteAccumulator], int, int, ParallelReport | None]:
    """Streamed tallies of ``source`` for every key: ``(accumulators,
    chunks, rows, parallel report)``, merged in chunk order, so every
    accumulator's state is identical at every worker count.  ``engines``
    (one per key, ``None`` for SCALAR) compute in this process; pool
    workers build their own.

    The vector kernels read only a chunk's key and mark column codes, so
    a VECTOR run builds raw CSV payloads with
    :func:`~repro.stream.sources.build_chunk_codes` (same typing, same
    checks, no rows); SCALAR, the reference, builds every chunk table.

    The task stream is closed however the run ends, so a run that
    raises releases the source's reader (a SQLite connection, a gzip
    handle) at the raise, in this thread."""
    accumulators = [VoteAccumulator(spec.channel_length) for _ in keys]
    chunks = rows = 0
    build = build_chunk if None in engines else partial(
        build_chunk_codes,
        attributes=(spec.key_attribute, spec.mark_attribute),
    )

    def compute(index: int, chunk: Table | ChunkCodes):
        tallies = _chunk_votes(
            chunk, keys, spec, maps, domain, value_mapping, engines
        )
        return tallies, len(chunk)

    def commit(task: ChunkTask, result) -> None:
        nonlocal chunks, rows
        tallies, nrows = result
        for accumulator, tally in zip(accumulators, tallies):
            accumulator.add(tally)
        chunks += 1
        rows += nrows

    tasks = stream = _tasks_with_retry(source, 0, retry, reliability)
    try:
        if domain is None:
            domain, tasks = _peek_domain(stream, spec)
        parallel = _run_chunks(
            tasks, payload_profile(source), compute, commit,
            build=build,
            pool_task=_task_votes,
            state={
                "keys": list(keys), "maps": list(maps), "spec": spec,
                "domain": domain, "value_mapping": value_mapping,
                "scalar": None in engines, "chunk_size": chunk_size,
            },
            workers=workers, retry=retry, deadline=deadline,
            watchdog=watchdog, reliability=reliability,
        )
    finally:
        stream.close()
    return accumulators, chunks, rows, parallel


def ordered_mark(
    source,
    start: int,
    commit_marked,
    *,
    watermark: Watermark,
    key: MarkKey,
    spec: EmbeddingSpec,
    domain: CategoricalDomain,
    wm_data,
    engine: HashEngine | None,
    constraints_factory: Callable[[], list] | None,
    chunk_size: int,
    workers: int,
    retry: RetryPolicy | None,
    deadline: Deadline | None,
    watchdog: Watchdog | bool | None,
    reliability: ReliabilityReport,
) -> ParallelReport | None:
    """Streamed embed from chunk ``start``: hands every marked chunk to
    ``commit_marked(index, marked, pass_result, guard_report, rows)`` in
    strict chunk order — the caller (``stream_mark``) writes, flushes
    and checkpoints, so output bytes, checkpoints and resume are
    identical at every worker count.  In process the marked chunk is the
    source's own table; pool workers ship marked rows, rebuilt here as a
    trusted table.  Returns the parallel report (``None`` in process)."""
    profile = payload_profile(source)

    def compute(index: int, chunk: Table):
        return (chunk, *_embed_chunk(
            chunk, watermark, key, spec, domain, wm_data,
            constraints_factory, engine, index,
        ))

    def commit(task: ChunkTask, result) -> None:
        marked, pass_result, guard_report = result
        if not isinstance(marked, Table):  # a pool worker's marked rows
            marked = Table.from_trusted_rows(
                profile["schema"], marked,
                name=f"{profile['name']}[{task.index}]",
            )
        commit_marked(
            task.index, marked, pass_result, guard_report, len(marked)
        )

    # Closed however the run ends, so a run that raises releases the
    # source's reader at the raise, in this thread.
    stream = _tasks_with_retry(source, start, retry, reliability)
    try:
        return _run_chunks(
            stream, profile, compute, commit,
            build=build_chunk,
            pool_task=_task_embed,
            state={
                "keys": [key], "spec": spec, "domain": domain,
                "scalar": engine is None, "chunk_size": chunk_size,
                "watermark": watermark, "wm_data": wm_data,
            },
            workers=workers, retry=retry, deadline=deadline,
            watchdog=watchdog, reliability=reliability,
        )
    finally:
        stream.close()
