"""The ordered chunk run behind every streaming mark and detect.

The scheme's per-tuple decisions are pure functions of a keyed hash of
the tuple's key value, so chunks are independent by construction and
``VoteAccumulator`` merges are associative.  One loop,
:class:`_OrderedRun`, drives every ``stream_*`` call at every worker
count, and each direction has one per-chunk function —
:func:`_chunk_votes` and :func:`_embed_chunk` — that every chunk runs
through wherever it is computed:

Every run reads the same chunk tasks — the source's one reader,
:func:`~repro.stream.sources.payload_chunks` (raw CSV field lists, typed
row tuples, finished tables) — and builds every chunk from its task with
one function wherever the chunk is computed:
:func:`~repro.stream.sources.build_chunk` (a chunk table) for marking
and the SCALAR reference, :func:`~repro.stream.sources.build_chunk_codes`
(the key and mark column codes of a raw CSV payload) for VECTOR
detection:

* **In process** (``workers=None`` or ``1``) — the run reads one task,
  builds and computes its chunk and commits it before reading the next.
  No pool, no pickled run state.
* **On a pool** (``workers > 1``) — the coordinator reads tasks up to a
  bounded read-ahead window of ``2 × workers`` chunks ahead of the
  oldest uncommitted chunk, submitting each to a persistent process pool
  so decode overlaps compute.  Workers are initialized once with the
  pickled run state (keys, spec, domain, schema), build one warm
  chunk-bounded :func:`stream_engine` per key, build each task's chunk
  (CSV typing happens *there*, not in the coordinator) and call the
  same per-chunk function.

Either way, chunks commit in strict chunk order: detection merges each
chunk's tallies into the accumulators, embedding writes the marked chunk
to the sink and checkpoints.  Ordered merge preserves the global
first-vote tie rule; ordered commit preserves the sink's
one-gzip-member-per-chunk framing — which is what pins ``workers=N``
bit-identical to ``workers=1`` and to the in-memory verifiers.

Reliability: a :class:`~repro.reliability.RetryPolicy` re-opens the
source at the failed chunk after a transient read failure, and the run's
:class:`~repro.reliability.Deadline` is checked at every chunk boundary,
at every worker count.  Pools add the rest, through the one wait and the
one retry budget of :mod:`repro.reliability.pool`: every pool wait is
capped by the deadline (a deadline stop retires the pool), the
:class:`~repro.reliability.Watchdog` heartbeats workers and SIGKILLs hung
ones, and the retry policy re-dispatches failed chunks (pure functions —
the replay is bit-identical) and respawns a broken pool.  A chunk that
spends the whole retry budget finishes the run in process: the
coordinator computes it and every remaining chunk with the same
per-chunk functions — same bits, one core.  ``retry=None`` fails fast,
and a broken pool is retired either way.
"""

from __future__ import annotations

import hashlib
import logging
import os
import pickle
import time
from collections import OrderedDict
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field
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
from ..reliability.deadline import Deadline, check_deadline
from ..reliability.faults import fault_point
from ..reliability.pool import (
    PersistentPool,
    heartbeat,
    misbehave,
    planned_fault,
    resolve_watchdog,
    spend_attempt,
)
from ..reliability.report import ReliabilityReport
from ..reliability.retry import (
    TRANSIENT,
    TRANSIENT_TYPES,
    RetryError,
    RetryPolicy,
    classify,
)
from ..reliability.watchdog import IDLE, Watchdog
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

#: read-ahead depth as a multiple of the worker count: enough decoded
#: chunks in flight to keep every worker busy while the head commits,
#: small enough that coordinator memory stays O(workers × chunk)
READAHEAD_FACTOR = 2

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
    relations, O(rows) for an unbounded stream), this engine's digest and
    derived caches are capped at ``max(MIN_ENGINE_ENTRIES,
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
    exists and never more than eight (the coordinator's record reading +
    pickling saturates long before that).
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


@dataclass
class ParallelReport:
    """Telemetry of one parallel streaming run."""

    workers: int
    #: chunks whose result came from a pool worker
    chunks_parallel: int = 0
    #: chunks finished in process after a chunk spent the retry budget
    #: on the pool (bit-identical, one core)
    chunks_serial: int = 0
    #: tasks re-submitted after a worker failure (bit-identical replays)
    redispatches: int = 0
    #: last telemetry snapshot per worker pid — chunks processed, kernel
    #: launches and digests computed since the worker was forked
    worker_stats: dict[int, dict[str, Any]] = field(default_factory=dict)

    def note(self, stats: dict[str, Any]) -> None:
        self.worker_stats[stats["pid"]] = {
            key: value for key, value in stats.items() if key != "pid"
        }


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
    _W_ENGINES = [
        None if _W["scalar"] else stream_engine(key, _W["chunk_size"])
        for key in _W["keys"]
    ]
    _W_DECODERS = payload_decoders(_W["profile"]["schema"])
    _W_CHUNKS = 0
    # Worker-local counters must count this worker's launches only,
    # whatever the parent process had accumulated before the fork.
    kernels.reset_kernel_calls()


def _in_worker(task: ChunkTask, fault, compute):
    """Run ``compute(chunk)`` on one payload inside a pool worker;
    returns ``(result, worker stats)``."""
    global _W_CHUNKS
    heartbeat()
    try:
        misbehave(fault, task.index)
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
    finally:
        heartbeat(IDLE)


def _task_votes(task: ChunkTask, fault=None):
    """Pool task: one chunk's per-pass tallies and row count."""
    def votes(chunk):
        tallies = _chunk_votes(
            chunk, _W["keys"], _W["spec"], _W["maps"], _W["domain"],
            _W["value_mapping"], _W_ENGINES,
        )
        return tallies, len(chunk)

    return _in_worker(task, fault, votes)


def _task_embed(task: ChunkTask, fault=None):
    """Pool task: embed one chunk; ships the marked rows back with the
    chunk's embedding and guard reports."""
    def marked_rows(chunk):
        pass_result, guard_report = _embed_chunk(
            chunk, _W["watermark"], _W["keys"][0], _W["spec"], _W["domain"],
            _W["wm_data"], None, _W_ENGINES[0], task.index,
        )
        return list(iter(chunk)), pass_result, guard_report

    return _in_worker(task, fault, marked_rows)


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


def _failed_future(exc: BaseException):
    from concurrent.futures import Future

    future = Future()
    future.set_exception(exc)
    return future


def _pool_breakage():
    from concurrent.futures import BrokenExecutor

    return BrokenExecutor


# -- reading -------------------------------------------------------------------

def _tasks_with_retry(
    source,
    start: int,
    policy: RetryPolicy | None,
    report: ReliabilityReport,
) -> Iterator[ChunkTask]:
    """Chunk tasks of ``source`` from ``start``
    (:func:`~repro.stream.sources.payload_chunks`), re-opening the source
    on transient read failures.

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
    attempt = 0
    iterator = payload_chunks(source, position)
    while True:
        try:
            task = next(iterator)
        except StopIteration:
            return
        # Only the transient taxonomy is caught at all: a permanent
        # failure (BadRowError, schema violations, deadline expiry, a
        # plain bug) propagates with its original traceback instead of
        # being routed through retry classification.
        except TRANSIENT_TYPES as exc:
            if classify(exc) is not TRANSIENT:
                raise
            attempt += 1
            if attempt >= policy.max_attempts:
                raise RetryError("source.read", attempt) from exc
            report.record_retry("source.read", attempt, exc)
            time.sleep(policy.delay("source.read", attempt))
            report.source_reopens += 1
            iterator = payload_chunks(source, position)
            continue
        attempt = 0
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

class _OrderedRun:
    """Ordered commit over a chunk-task stream, in process or on a pool.

    ``build(task, profile, decoders)`` turns each task into the chunk
    ``compute(index, chunk)`` runs on in this process, and ``commit(task,
    result)`` is only ever called with the lowest uncommitted chunk
    index — the invariant every bit-identity claim of this module rests
    on.  With one worker every chunk is built, computed and committed
    before the next is read.  With more, ``pool_task(task, fault)`` runs
    in workers initialized with the pickled ``state`` and ``build`` (so
    a run builds its chunks one way wherever they are computed), a
    bounded read-ahead window stays in flight, and ``compute`` serves
    only the in-process finish after a chunk spent the retry budget.
    """

    def __init__(
        self,
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
    ):
        self.profile = profile
        self.compute = compute
        self.commit = commit
        self.build = build
        self.pool_task = pool_task
        self.state = state
        self.workers = workers
        self.retry = retry
        self.deadline = deadline
        self.reliability = reliability
        self.report = ParallelReport(workers=workers)
        self.window = READAHEAD_FACTOR * workers
        self.in_flight: "OrderedDict[int, list]" = OrderedDict()
        self.executor = None
        self.blob: bytes | None = None
        self.decoders = payload_decoders(profile["schema"])
        self.serial_mode = workers == 1
        self.watchdog = resolve_watchdog(watchdog)

    @property
    def parallel(self) -> ParallelReport | None:
        """The run's :class:`ParallelReport`; ``None`` in process."""
        return self.report if self.workers > 1 else None

    # -- driving loop -----------------------------------------------------------
    def run(self, tasks: Iterator[ChunkTask]) -> None:
        exhausted = False
        while True:
            while (
                not exhausted
                and not self.serial_mode
                and len(self.in_flight) < self.window
            ):
                task = next(tasks, None)
                if task is None:
                    exhausted = True
                    break
                _pool.check_deadline(
                    self.deadline, "pipeline.chunk", task.index
                )
                entry = [None, task, 0]
                self._submit(entry)
                self.in_flight[task.index] = entry
            if self.in_flight:
                self._commit_head()
                continue
            if self.serial_mode:
                task = next(tasks, None)
                if task is None:
                    return
                self._commit_serial(task)
                continue
            if exhausted:
                return

    # -- submission -------------------------------------------------------------
    def _submit(self, entry: list) -> None:
        if self.executor is None:
            if self.blob is None:
                self.blob = _run_blob({
                    **self.state, "profile": self.profile,
                    "build": self.build,
                })
            self.executor = _pool.ensure(
                hashlib.sha256(self.blob).digest(), self.workers,
                _worker_init, self.blob,
            )
        task = entry[1]
        fault = planned_fault(task.index)
        try:
            entry[0] = self.executor.submit(self.pool_task, task, fault)
        except _pool_breakage() as exc:
            # A worker died between commits; leave a pre-failed future so
            # the ordered commit path runs its usual pool recovery.
            entry[0] = _failed_future(exc)

    # -- commits ----------------------------------------------------------------
    def _commit_serial(self, task: ChunkTask) -> None:
        check_deadline(self.deadline, "pipeline.chunk", task.index)
        chunk = self.build(task, self.profile, self.decoders)
        self.commit(task, self.compute(task.index, chunk))
        self.report.chunks_serial += 1
        # Injection point: the chunk is fully committed (for an embed:
        # durable) here — a kill at this boundary is the canonical crash
        # the chaos kill-matrix resumes from.
        fault_point("pipeline.chunk", task.index)

    def _commit_head(self) -> None:
        index, entry = next(iter(self.in_flight.items()))
        try:
            result, stats = _pool.wait(
                entry[0], watchdog=self.watchdog, deadline=self.deadline,
                label="pipeline.chunk", position=index,
                report=self.reliability,
            )
        except _pool_breakage() as exc:
            # Retire the broken executor before anything else, the
            # fail-fast raise included: the next run with this run state
            # would otherwise be handed it.
            _pool.retire()
            self.executor = None
            if self.retry is None:
                raise
            self._recover(entry, exc, broken=True)
            return
        except TRANSIENT_TYPES as exc:
            # Anything outside the shared transient taxonomy propagates
            # untouched (a logic error replayed is a logic error twice);
            # ``classify`` still vets members of the tuple, because some
            # carry a permanent payload (e.g. ``OSError`` + ENOSPC).
            if classify(exc) is not TRANSIENT or self.retry is None:
                raise
            logger.warning(
                "parallel chunk %d failed with transient %r; recovering",
                index, exc,
            )
            self._recover(entry, exc, broken=False)
            return
        del self.in_flight[index]
        self.commit(entry[1], result)
        self.report.note(stats)
        self.report.chunks_parallel += 1
        fault_point("pipeline.chunk", index)

    # -- recovery ---------------------------------------------------------------
    def _recover(self, entry: list, exc: BaseException, broken: bool) -> None:
        """Re-dispatch a failed chunk (trigger consumed at first submit —
        the replay runs clean).  A broken pool respawns and re-dispatches
        every in-flight chunk in order — pure functions of their
        payloads, so the replayed run is bit-identical.  A chunk that
        spent the retry budget finishes the run in process instead."""
        entry[2] += 1
        try:
            spend_attempt(self.retry, entry[2], exc, self.reliability)
        except RetryError:
            logger.warning(
                "stream chunk %d spent its retry budget on the pool (%r); "
                "finishing the run in process", entry[1].index, exc,
            )
            self._finish_in_process()
            return
        if not broken:
            self.report.redispatches += 1
            self._submit(entry)
            return
        self.reliability.pool_respawns += 1
        logger.warning(
            "stream pool broke at chunk %d (%r): respawning and "
            "re-dispatching %d in-flight chunks",
            entry[1].index, exc, len(self.in_flight),
        )
        for waiting in self.in_flight.values():
            future = waiting[0]
            if future.done() and future.exception() is None:
                continue  # completed before the breakage; keep the result
            self.report.redispatches += 1
            self._submit(waiting)

    def _finish_in_process(self) -> None:
        """Retire the pool and compute every in-flight (and all
        remaining) chunks in the coordinator with the same per-chunk
        functions, in the same order — same bits, one core."""
        self.serial_mode = True
        self.reliability.pool_fallbacks += 1
        _pool.retire()
        self.executor = None
        entries = list(self.in_flight.values())
        self.in_flight.clear()
        for entry in entries:
            self._commit_serial(entry[1])


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
        run = _OrderedRun(
            payload_profile(source), compute, commit,
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
        run.run(tasks)
    finally:
        stream.close()
    return accumulators, chunks, rows, run.parallel


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

    run = _OrderedRun(
        profile, compute, commit,
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
    # Closed however the run ends, so a run that raises releases the
    # source's reader at the raise, in this thread.
    stream = _tasks_with_retry(source, start, retry, reliability)
    try:
        run.run(stream)
    finally:
        stream.close()
    return run.parallel
