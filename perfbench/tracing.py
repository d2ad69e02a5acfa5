"""The traced run: per-layer self times and counters of one workload.

A traced job *replays* the workload's job chunk by chunk through the
public functions of each layer — ``CSVChunkSource.payloads``,
``parse_row``, ``build_chunk_table``, the ``core.kernels`` entry points,
``VoteAccumulator``, ``CSVChunkSink``, ``append_journal_chunk``,
``save_checkpoint``, the attacks and ``verify_multipass`` — and records a
span (name, start, end, parent) around each call.  Calls a layer makes
into another (``Table.column_codes``, the ``HashEngine`` plan arrays and
stacks, the fused kernel) are wrapped for the duration of the replay so
they appear as child spans.  ``os.fsync`` is wrapped to count fsyncs.

The replay's outputs (votes, marked bytes, sweep results) must equal the
real job's.  A layer's self time is its spans' duration minus the part
covered by child spans; ``trace.unattributed_s`` is the real job's median
wall time minus the sum of the layer self times, so the two add up to the
end-to-end time by construction.  Spans are kept in memory and written to
one JSON file at the end.
"""

from __future__ import annotations

import contextlib
import functools
import os
import pickle
import time
from collections import Counter, defaultdict

import common

#: (name, unit, better) of every per-layer metric, in report order
LAYER_METRICS = (
    ("sources.read_s", "s", "lower"),
    ("sources.bytes_in", "B", "lower"),
    ("csvio.parse_s", "s", "lower"),
    ("csvio.cells_parsed", "count", "lower"),
    ("csvio.cells_used_ratio", "ratio", "higher"),
    ("table.build_s", "s", "lower"),
    ("table.factorize_s", "s", "lower"),
    ("engine.hash_s", "s", "lower"),
    ("engine.digests_per_row", "count", "lower"),
    ("engine.hit_ratio", "ratio", "higher"),
    ("kernels.detect_s", "s", "lower"),
    ("kernels.embed_s", "s", "lower"),
    ("kernels.launches", "count", "lower"),
    ("detection.merge_s", "s", "lower"),
    ("detection.multipass_s", "s", "lower"),
    ("attacks.apply_s", "s", "lower"),
    ("sinks.write_s", "s", "lower"),
    ("sinks.bytes_out", "B", "lower"),
    ("sinks.bytes_per_row", "B/row", "lower"),
    ("durability.checkpoint_s", "s", "lower"),
    ("durability.journal_s", "s", "lower"),
    ("durability.fsyncs_per_chunk", "count", "lower"),
    ("parallel.pickle_s", "s", "lower"),
    ("parallel.payload_bytes_per_chunk", "B", "lower"),
    ("parallel.coord_bound_rows_per_s", "rows/s", "higher"),
    ("parallel.worker_chunk_skew", "ratio", "lower"),
    ("parallel.redispatches", "count", "lower"),
    ("trace.unattributed_s", "s", "lower"),
)

#: span names whose self time is reported as ``<name>_s``
LAYERS = tuple(
    name[:-2] for name, unit, _ in LAYER_METRICS
    if unit == "s" and name != "trace.unattributed_s"
)

#: on the parallel workload only these layers run on the coordinator;
#: the rest are replayed in-process to show the workers' stage mix, and
#: stay out of the sum that ``trace.unattributed_s`` is taken against
COORDINATOR_LAYERS = ("sources.read", "parallel.pickle", "detection.merge")


class Tracer:
    """Spans and counters of one replayed job, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [id, name, start, end, parent]
        self._stack: list[int] = []
        self.counts: Counter = Counter()

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = [len(self.spans), name, time.perf_counter(), None, parent]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[str, float]:
        child = defaultdict(float)
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for span_id, name, start, end, _ in self.spans:
            out[name] += (end - start) - child[span_id]
        return out


@contextlib.contextmanager
def wrapped_layers(tracer: Tracer):
    """Wrap the calls one layer makes into another as child spans."""
    from repro.core import kernels
    from repro.crypto import HashEngine
    from repro.relational import Table

    targets = [
        (Table, "column_codes", "table.factorize"),
        (kernels, "detect_multipass", "kernels.detect"),
    ] + [
        (HashEngine, method, "engine.hash")
        for method in (
            "fitness_array", "slot_array", "pair_array",
            "fitness_stack", "slot_stack", "pair_stack",
        )
    ]
    saved = []

    def timed(function, name):
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                return function(*args, **kwargs)
        return wrapper

    for owner, attribute, name in targets:
        raw = vars(owner)[attribute]
        if isinstance(raw, staticmethod):
            replacement = staticmethod(timed(raw.__func__, name))
        else:
            replacement = timed(raw, name)
        saved.append((owner, attribute, raw))
        setattr(owner, attribute, replacement)

    real_fsync = os.fsync

    def counting_fsync(fd):
        tracer.counts["fsyncs"] += 1
        return real_fsync(fd)

    os.fsync = counting_fsync
    try:
        yield
    finally:
        os.fsync = real_fsync
        for owner, attribute, raw in saved:
            setattr(owner, attribute, raw)


# -- replays -------------------------------------------------------------------

def _read_parse_build(tracer, source, tasks, pickle_tasks=False):
    """Yield each chunk table of ``tasks``, with the source, csvio and
    table layers spanned separately."""
    from repro.relational.csvio import cell_parsers, parse_row
    from repro.stream.sources import build_chunk_table

    parsers = cell_parsers(source.schema)
    arity = source.schema.arity
    while True:
        with tracer.span("sources.read"):
            task = next(tasks, None)
        if task is None:
            return
        if pickle_tasks:
            with tracer.span("parallel.pickle"):
                blob = pickle.dumps(task)
            tracer.counts["payload_bytes"] += len(blob)
        with tracer.span("csvio.parse"):
            number = task.first_row_number
            rows = [
                parse_row(record, parsers, arity, number + offset)
                for offset, record in enumerate(task.payload, start=1)
            ]
        tracer.counts["cells_parsed"] += len(rows) * arity
        tracer.counts["chunks"] += 1
        with tracer.span("table.build"):
            chunk = build_chunk_table(
                source.schema, rows, task.index, source.name,
                source.infer, source.trusted_rows,
            )
        yield chunk


def replay_detect(workload, tracer):
    """``stream_verify`` of the workload, one layer call at a time."""
    from repro.core import SlotVotes, VoteAccumulator, kernels
    from repro.stream import payload_chunks, stream_engine

    source = workload.source()
    spec = workload.spec
    engine = stream_engine(workload.key, source.chunk_size)
    before = _engine_counts([engine])
    accumulator = VoteAccumulator(spec.channel_length)
    chunks = _read_parse_build(
        tracer, source, payload_chunks(source),
        pickle_tasks=workload.workers is not None,
    )
    for chunk in chunks:
        with tracer.span("kernels.detect"):
            tally = SlotVotes.from_arrays(*kernels.extract_votes_vector(
                chunk, spec, workload.domain, None, None, engine
            ))
        with tracer.span("detection.merge"):
            accumulator.add(tally)
        tracer.counts["rows"] += len(chunk)
        tracer.counts["cells_used"] += 2 * len(chunk)
    with tracer.span("detection.merge"):
        verification = accumulator.verification(spec, workload.watermark)
    tracer.counts["bytes_in"] += source.path.stat().st_size
    _count_engine(tracer, [engine], before)
    return (
        common.digest(verification) == workload.ref["verification"]
        and common.digest(accumulator.votes()) == workload.ref["votes"]
    )


def replay_mark(workload, tracer):
    """Checkpointed ``stream_mark`` of the workload, one layer call at a
    time; the marked bytes must equal the real job's."""
    from repro.core import kernels
    from repro.core.embedding import EmbeddingResult
    from repro.quality import QualityGuard
    from repro.reliability.integrity import (
        append_journal_chunk,
        journal_path,
        write_journal_header,
    )
    from repro.stream import (
        CSVChunkSink,
        CSVChunkSource,
        MarkCheckpoint,
        mark_fingerprint,
        payload_chunks,
        save_checkpoint,
        stream_engine,
    )

    spec = workload.spec
    output = workload.work / "replay.csv.gz"
    checkpoint = workload.work / "replay.ckpt"
    for stale in workload.work.glob("replay.ckpt*"):
        stale.unlink()
    source = CSVChunkSource(
        workload.inputs / "sales.csv.gz", workload.schema,
        chunk_size=workload.sizes.mark_chunk,
    )
    engine = stream_engine(workload.key, source.chunk_size)
    before = _engine_counts([engine])
    wm_data = spec.ecc().encode(workload.watermark.bits, spec.channel_length)
    fingerprint = mark_fingerprint(workload.key, spec, workload.watermark)
    journal = journal_path(checkpoint)
    sink = CSVChunkSink(output)
    sink.arm_manifest()
    with tracer.span("sinks.write"):
        sink.open(workload.schema)
        open_state = sink.flush_state()
    with tracer.span("durability.journal"):
        write_journal_header(
            journal, fingerprint=fingerprint, kind=sink.manifest.kind,
            header_entry=sink.manifest.header, open_state=open_state,
        )
    totals = Counter()
    slots: set[int] = set()
    try:
        chunks = _read_parse_build(tracer, source, payload_chunks(source))
        for index, chunk in enumerate(chunks):
            guard = QualityGuard([])
            guard.bind(chunk)
            result = EmbeddingResult(
                spec=spec, fit_count=0, applied=0, vetoed=0, unchanged=0
            )
            with tracer.span("kernels.embed"):
                kernels.embed_vector(
                    chunk, spec, workload.domain, wm_data, guard, result,
                    engine,
                )
            with tracer.span("sinks.write"):
                sink.write_chunk(chunk)
                state = sink.flush_state()
            delta = {
                "rows": len(chunk),
                "fit_count": result.fit_count,
                "applied": result.applied,
                "vetoed": result.vetoed,
                "unchanged": result.unchanged,
                "slots": sorted(result.slots_written),
            }
            with tracer.span("durability.journal"):
                append_journal_chunk(
                    journal, index=index, entry=sink.manifest.entries[-1],
                    delta=delta, sink_state=state,
                )
            totals.update({k: v for k, v in delta.items() if k != "slots"})
            slots |= result.slots_written
            with tracer.span("durability.checkpoint"):
                save_checkpoint(checkpoint, MarkCheckpoint(
                    fingerprint=fingerprint,
                    chunks_done=index + 1,
                    rows_done=totals["rows"],
                    counters={k: v for k, v in totals.items() if k != "rows"},
                    slots_written=sorted(slots),
                    sink_state=state,
                ))
            tracer.counts["rows"] += len(chunk)
            tracer.counts["cells_used"] += 2 * len(chunk)
    finally:
        sink.close()
    tracer.counts["bytes_in"] += source.path.stat().st_size
    tracer.counts["bytes_out"] += output.stat().st_size
    _count_engine(tracer, [engine], before)
    return common.file_sha256(output) == workload.ref["marked_sha256"]


def replay_sweep(workload, tracer):
    """The sweep job's fused points, attack and verify spanned apart."""
    from repro.crypto import get_engine
    from repro.core import verify_multipass
    from repro.experiments import PassResult
    from repro.experiments.sweepengine import cell_rng
    from repro.relational import CategoricalDomain

    passes = workload.passes
    engines = [get_engine(embedded.marker.key) for embedded in passes]
    before = _engine_counts(engines)
    first = passes[0]
    record = first.record
    domain = (
        CategoricalDomain(record.domain_values)
        if record.domain_values is not None else None
    )
    results = []
    for x in workload.sizes.sweep_points:
        attack = workload.attack(x)
        attacked = []
        for embedded in passes:
            with tracer.span("attacks.apply"):
                attacked.append(
                    attack.apply(embedded.table, cell_rng(embedded.seed, x))
                )
        with tracer.span("detection.multipass"):
            verifications = verify_multipass(
                attacked,
                [embedded.marker.key for embedded in passes],
                record.spec,
                [embedded.record.watermark for embedded in passes],
                embedding_maps=[p.record.embedding_map for p in passes],
                domain=domain,
                significance=first.marker.significance,
                engine=first.marker.engine,
            )
        results.append([
            PassResult(
                seed=embedded.seed,
                mark_alteration=verdict.mark_alteration,
                detected=verdict.detected,
                false_hit_probability=verdict.false_hit_probability,
                fit_count=verdict.detection.fit_count,
                slots_recovered=verdict.detection.slots_recovered,
            )
            for embedded, verdict in zip(passes, verifications)
        ])
        tracer.counts["rows"] += len(passes) * len(first.table)
    _count_engine(tracer, engines, before)
    return common.digest(results) == workload.reference_results()


REPLAYS = {
    "detect_gzip": replay_detect,
    "detect_gzip_w2": replay_detect,
    "mark_gzip": replay_mark,
    "sweep_cell": replay_sweep,
}


# -- the traced run ------------------------------------------------------------

def _engine_counts(engines) -> tuple[int, int, int]:
    """(digests computed, plan hits, plans built) so far, over the given
    engines' plan arrays and the process-wide multi-pass stack cache."""
    from repro.crypto import stack_cache_info

    infos = [engine.cache_info() for engine in engines]
    stacks = stack_cache_info()
    return (
        sum(info["digests_computed"] for info in infos),
        sum(info["plan_array_hits"] for info in infos) + stacks["stack_hits"],
        sum(info["plan_arrays_built"] for info in infos)
        + stacks["stacks_built"],
    )


def _count_engine(tracer, engines, before) -> None:
    after = _engine_counts(engines)
    for name, now, then in zip(
        ("digests", "plan_hits", "plans_built"), after, before
    ):
        tracer.counts[name] += now - then


def traced_run(workload, seconds: float, job_median: float) -> dict:
    """Replay the workload's job until ``seconds`` pass (at least once)
    and return the per-layer metrics, the spans and the replay checks."""
    from repro.core import kernels

    replay = REPLAYS[workload.name]
    tracers = []
    ok = True
    deadline = time.perf_counter() + seconds
    while not tracers or time.perf_counter() < deadline:
        tracer = Tracer()
        launches = sum(kernels.KERNEL_CALLS.values())
        with wrapped_layers(tracer), tracer.span("job"):
            ok = replay(workload, tracer) and ok
        tracer.counts["launches"] = sum(kernels.KERNEL_CALLS.values()) - launches
        tracers.append(tracer)
    return {
        "metrics": _layer_metrics(workload, tracers, job_median),
        "replays": len(tracers),
        "replay_matches_real": ok,
        "spans": [
            {"replay": number, "id": span_id, "name": name,
             "start": start, "end": end, "parent": parent}
            for number, tracer in enumerate(tracers)
            for span_id, name, start, end, parent in tracer.spans
        ],
    }


def _layer_metrics(workload, tracers, job_median: float) -> dict:
    replays = len(tracers)
    self_time = defaultdict(float)
    counts: Counter = Counter()
    for tracer in tracers:
        for name, seconds in tracer.self_times().items():
            self_time[name] += seconds / replays
        counts.update(tracer.counts)
    per_job = {name: value / replays for name, value in counts.items()}
    rows = per_job.get("rows", 0) or 1
    chunks = per_job.get("chunks", 0)
    parsed = per_job.get("cells_parsed", 0)
    lookups = per_job.get("plan_hits", 0) + per_job.get("plans_built", 0)
    metrics = {f"{layer}_s": self_time.get(layer, 0.0) for layer in LAYERS}
    attributed = (
        COORDINATOR_LAYERS if workload.workers is not None else LAYERS
    )
    read_and_pickle = self_time["sources.read"] + self_time["parallel.pickle"]
    extras = workload.extras()
    worker_chunks = extras.get("worker_chunks") or []
    metrics.update({
        "sources.bytes_in": per_job.get("bytes_in", 0),
        "csvio.cells_parsed": parsed,
        "csvio.cells_used_ratio": (
            per_job.get("cells_used", 0) / parsed if parsed else 0.0
        ),
        "engine.digests_per_row": per_job.get("digests", 0) / rows,
        "engine.hit_ratio": (
            per_job.get("plan_hits", 0) / lookups if lookups else 0.0
        ),
        "kernels.launches": per_job.get("launches", 0),
        "sinks.bytes_out": per_job.get("bytes_out", 0),
        "sinks.bytes_per_row": per_job.get("bytes_out", 0) / rows,
        "durability.fsyncs_per_chunk": (
            per_job.get("fsyncs", 0) / chunks if chunks else 0.0
        ),
        "parallel.payload_bytes_per_chunk": (
            per_job.get("payload_bytes", 0) / chunks if chunks else 0.0
        ),
        "parallel.coord_bound_rows_per_s": (
            rows / read_and_pickle
            if workload.workers is not None and read_and_pickle else 0.0
        ),
        "parallel.worker_chunk_skew": (
            max(worker_chunks) / min(worker_chunks)
            if worker_chunks and min(worker_chunks) else 0.0
        ),
        "parallel.redispatches": extras.get("redispatches", 0),
        "trace.unattributed_s": job_median - sum(
            self_time[layer] for layer in attributed
        ),
    })
    return metrics


def layer_summary(metrics: dict) -> str:
    shares = sorted(
        ((metrics[f"{layer}_s"], layer) for layer in LAYERS), reverse=True
    )
    return ", ".join(
        f"{layer} {seconds:.3f}" for seconds, layer in shares if seconds
    )
