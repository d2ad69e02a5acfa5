"""Streaming throughput — out-of-core mark/detect over a 1M-row tier.

The streaming subsystem's two promises, measured and enforced:

* **bounded memory** — a streamed detect's peak Python allocation is a
  function of (chunk size + channel length), *not* of the row count: the
  bench detects the same synthetic stream at a quarter tier and at the
  full tier under ``tracemalloc`` and asserts the peaks agree within a
  small tolerance (an in-memory detector's peak scales linearly — ~4x —
  between those tiers);
* **throughput** — chunking costs overhead (chunk Table construction,
  per-chunk plan arrays, accumulator merges), but it must stay a
  constant factor: streamed detection over in-memory chunks is asserted
  at ≥ 0.5x the one-shot in-memory vector detector on identical rows.

The full file pipeline (synthetic stream -> gzip CSV mark -> streamed
blind verify, the CI *stream-smoke* round trip) is timed end to end and
recorded — rows/sec for mark, file detect (serial and ``workers=N``
parallel, each the best of ``DETECT_REPS`` alternating repetitions, all
recorded; they must be bit-identical and >= 1.7x with a second core),
file decode alone (one pass of the typed chunk tables that ``chunks()``
and marking build, and one pass of the key and mark column codes that
VECTOR detection builds instead, no hashing; both recorded without a
floor) and kernel-only detect, plus peak RSS — in
``benchmarks/results/stream_throughput.json``; every entry is stamped
with ``cpu_count``/``backend``/``workers``.

``REPRO_BENCH_STREAM_ROWS`` selects the tier (default 1,000,000; the CI
stream-smoke job runs 65,536 with a gzip round trip just the same);
``REPRO_BENCH_STREAM_WORKERS`` pins the parallel worker count (default:
``min(4, cpu_count)``).  A multi-million-rows/s kernel-only parallel
tier runs when >= 8 cores are available.
"""

import os
import resource
import time
import tracemalloc

from repro.core import EmbeddingSpec, Watermark, default_channel_length, verify
from repro.crypto import VECTOR, MarkKey, clear_engine_registry, get_engine
from repro.stream import (
    CSVChunkSink,
    CSVChunkSource,
    TableChunkSource,
    item_scan_source,
    shutdown_stream_pool,
    stream_mark,
    stream_verify,
)
from repro.stream.sources import (
    build_chunk_codes,
    payload_decoders,
    payload_profile,
)

ROWS = int(os.environ.get("REPRO_BENCH_STREAM_ROWS", "1000000"))
CHUNK = int(os.environ.get("REPRO_BENCH_STREAM_CHUNK", "65536"))
ITEMS = 500
E = 60
SEED = 17

CORES = os.cpu_count() or 1

#: parallel worker count of the workers=N columns: every spare core up
#: to 4 (the coordinator saturates beyond that at bench chunk sizes)
BENCH_WORKERS = int(
    os.environ.get("REPRO_BENCH_STREAM_WORKERS", "0")
) or (min(4, CORES) if CORES >= 2 else 1)

#: the parallel-speedup acceptance floor: >= 1.7x single-stream when a
#: second core exists.  ``None`` otherwise — with one worker both columns
#: run the same in-process loop, so the ratio only times that loop
#: against itself; and an env override that oversubscribes a single core
#: (workers > cores) is measured and recorded, but not a perf claim.
SPEEDUP_FLOOR = 1.7 if BENCH_WORKERS >= 2 and CORES >= 2 else None

#: file-detect repetitions per side of the speedup, serial and parallel
#: alternating, so both sides sample the host's scheduling noise alike;
#: each side is its best repetition
DETECT_REPS = 5

#: the multi-million-rows/s kernel-only parallel tier only means
#: anything with real parallel silicon behind it
MM_TIER_CORES = 8

#: the in-memory-comparison tier: large enough for the vector backend,
#: small enough that the comparison table comfortably fits in RAM
RATIO_ROWS = min(ROWS, 131_072)

WATERMARK = Watermark.from_int(0x2AB, 10)


def _spec(rows: int) -> EmbeddingSpec:
    return EmbeddingSpec(
        key_attribute="Visit_Nbr",
        mark_attribute="Item_Nbr",
        e=E,
        watermark_length=len(WATERMARK),
        # Fixed channel across tiers so the O(channel) accumulator state
        # cannot mask (or fake) row-count-dependent memory growth.
        channel_length=default_channel_length(RATIO_ROWS, E, len(WATERMARK)),
    )


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: chunk size of the bounded-memory subtest: small relative to the tier,
#: so both measured tiers run far past the stream engine's O(chunk)
#: cache cap — what saturated steady state actually looks like
MEM_CHUNK = max(1_024, ROWS // 64)


def _streamed_detect_peak(rows: int, key: MarkKey, spec) -> tuple[float, int]:
    """(tracemalloc peak bytes, matched bits) of a streamed detect."""
    source = item_scan_source(
        rows, chunk_size=MEM_CHUNK, item_count=ITEMS, seed=SEED
    )
    tracemalloc.start()
    verdict = stream_verify(source, key, spec, WATERMARK, backend=VECTOR)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak, verdict.verification.matching_bits


def test_stream_throughput_and_bounded_memory(record, record_json, tmp_path):
    key = MarkKey.from_seed("stream-bench")
    spec = _spec(ROWS)
    clear_engine_registry()
    lines = [
        f"streaming pipeline tier: {ROWS} rows, chunk {CHUNK}, e={E}, "
        f"L={spec.channel_length}"
    ]

    # -- end-to-end file pipeline: synthetic -> gzip CSV mark -> verify ----
    marked_path = tmp_path / "marked.csv.gz"
    source = item_scan_source(
        ROWS, chunk_size=CHUNK, item_count=ITEMS, seed=SEED
    )
    started = time.perf_counter()
    mark_result = stream_mark(
        source, WATERMARK, key, spec, CSVChunkSink(marked_path)
    )
    mark_seconds = time.perf_counter() - started
    assert mark_result.rows == ROWS

    suspect = CSVChunkSource(
        marked_path, source.schema, chunk_size=CHUNK, infer_domains=True
    )
    started = time.perf_counter()
    verdict = stream_verify(
        suspect, key, spec, WATERMARK,
        domain=source.schema.attribute("Item_Nbr").domain,
    )
    detect_file_seconds = time.perf_counter() - started
    assert verdict.detected and verdict.rows == ROWS
    lines.append(
        f"  mark   -> gzip CSV : {ROWS / mark_seconds:>12,.0f} rows/s "
        f"({mark_seconds:.2f}s, {mark_result.applied} carriers rewritten)"
    )
    lines.append(
        f"  detect <- gzip CSV : {ROWS / detect_file_seconds:>12,.0f} rows/s "
        f"({detect_file_seconds:.2f}s, "
        f"{verdict.verification.matching_bits}/{len(WATERMARK)} bits)"
    )

    # -- decode stage alone: typed chunk tables, no hashing ----------------
    decode_source = CSVChunkSource(
        marked_path, source.schema, chunk_size=CHUNK, infer_domains=True
    )
    started = time.perf_counter()
    decoded = sum(len(chunk) for chunk in decode_source.chunks())
    decode_seconds = time.perf_counter() - started
    assert decoded == ROWS
    lines.append(
        f"  decode <- gzip CSV : {ROWS / decode_seconds:>12,.0f} rows/s "
        f"({decode_seconds:.2f}s, typed chunk tables, no hashing)"
    )

    # -- the same payloads as detection builds them: column codes ---------
    profile = payload_profile(decode_source)
    decoders = payload_decoders(source.schema)
    attributes = (spec.key_attribute, spec.mark_attribute)
    started = time.perf_counter()
    decoded = sum(
        len(build_chunk_codes(task, profile, decoders, attributes))
        for task in decode_source.payloads()
    )
    decode_vote_seconds = time.perf_counter() - started
    assert decoded == ROWS
    lines.append(
        f"  decode for detect  : {ROWS / decode_vote_seconds:>12,.0f} rows/s "
        f"({decode_vote_seconds:.2f}s, key and mark column codes)"
    )

    # -- parallel file detect: workers=1 vs workers=N ----------------------
    # Best of DETECT_REPS alternating repetitions on both sides: the first
    # parallel run pays the pool fork + worker warm-up, the later ones
    # reuse the persistent pool — the steady state a long scan (or
    # repeated scans) actually sees.
    def _file_detect(workers):
        suspect_again = CSVChunkSource(
            marked_path, source.schema, chunk_size=CHUNK, infer_domains=True
        )
        started_at = time.perf_counter()
        got = stream_verify(
            suspect_again, key, spec, WATERMARK,
            domain=source.schema.attribute("Item_Nbr").domain,
            workers=workers,
        )
        return time.perf_counter() - started_at, got

    serial_times, parallel_times = [], []
    for _ in range(DETECT_REPS):
        serial_times.append(_file_detect(None)[0])
        seconds, parallel_verdict = _file_detect(BENCH_WORKERS)
        parallel_times.append(seconds)
        # The acceptance bar under the speedup: same bits, same votes.
        assert parallel_verdict.votes == verdict.votes
        assert (
            parallel_verdict.verification.matching_bits
            == verdict.verification.matching_bits
        )
    serial_best = min(serial_times)
    parallel_best = min(parallel_times)
    speedup = serial_best / parallel_best
    lines.append(
        f"  detect, workers={BENCH_WORKERS}  : "
        f"{ROWS / parallel_best:>12,.0f} rows/s "
        f"({parallel_best:.2f}s, best of {DETECT_REPS}) -> {speedup:.2f}x "
        f"of single-stream "
        + (
            f"(floor {SPEEDUP_FLOOR}x, {CORES} cores)"
            if SPEEDUP_FLOOR is not None
            else f"(no floor: {BENCH_WORKERS} worker(s), {CORES} core(s))"
        )
    )
    if SPEEDUP_FLOOR is not None:
        assert speedup >= SPEEDUP_FLOOR, (
            f"parallel file detect at {speedup:.2f}x of single-stream "
            f"with workers={BENCH_WORKERS} on {CORES} cores "
            f"(floor {SPEEDUP_FLOOR}x)"
        )

    # -- multi-million-rows/s kernel-only parallel tier --------------------
    mm_rows_per_second = None
    if CORES >= MM_TIER_CORES and BENCH_WORKERS >= 2:
        from repro.relational import Table

        mm_source = item_scan_source(
            ROWS, chunk_size=CHUNK, item_count=ITEMS, seed=SEED
        )
        mm_rows = []
        for chunk in mm_source:
            mm_rows.extend(chunk)
        mm_table = Table(mm_source.schema, mm_rows, name="mm")
        del mm_rows

        def _kernel_detect():
            started_at = time.perf_counter()
            stream_verify(
                TableChunkSource(mm_table, chunk_size=CHUNK),
                key, spec, WATERMARK, backend=VECTOR,
                workers=BENCH_WORKERS,
            )
            return time.perf_counter() - started_at

        mm_best = min(_kernel_detect(), _kernel_detect())
        mm_rows_per_second = ROWS / mm_best
        lines.append(
            f"  detect, kernel-only workers={BENCH_WORKERS}: "
            f"{mm_rows_per_second:>12,.0f} rows/s ({mm_best:.2f}s)"
        )
        assert mm_rows_per_second >= 2_000_000, (
            f"kernel-only parallel detect at {mm_rows_per_second:,.0f} "
            f"rows/s with {BENCH_WORKERS} workers on {CORES} cores "
            f"(floor 2M rows/s)"
        )
    shutdown_stream_pool()

    # -- kernel-only streamed detect vs in-memory vector detect ------------
    # Same rows, chunked from memory: isolates the chunking overhead from
    # CSV parsing.  The streamed path must hold >= 0.5x of the one-shot
    # in-memory vector detector.
    base_source = item_scan_source(
        RATIO_ROWS, chunk_size=CHUNK, item_count=ITEMS, seed=SEED
    )
    from repro.relational import Table

    rows_accumulator = []
    for chunk in base_source:
        rows_accumulator.extend(chunk)
    table = Table(base_source.schema, rows_accumulator, name="ratio")
    del rows_accumulator
    marked_sink_rows = []
    marked_source = CSVChunkSource(
        marked_path, base_source.schema, chunk_size=CHUNK
    )
    for chunk in marked_source.chunks():
        marked_sink_rows.extend(chunk)
        if len(marked_sink_rows) >= RATIO_ROWS:
            break
    marked_table = Table(
        base_source.schema, marked_sink_rows[:RATIO_ROWS], name="ratio_marked"
    )
    del marked_sink_rows

    clear_engine_registry()
    started = time.perf_counter()
    in_memory = verify(marked_table, key, spec, WATERMARK, engine=VECTOR)
    in_memory_cold = time.perf_counter() - started
    started = time.perf_counter()
    verify(marked_table, key, spec, WATERMARK, engine=VECTOR)
    in_memory_warm = time.perf_counter() - started

    started = time.perf_counter()
    streamed = stream_verify(
        TableChunkSource(marked_table, chunk_size=CHUNK),
        key, spec, WATERMARK, backend=VECTOR,
    )
    streamed_cold = time.perf_counter() - started
    assert streamed.verification.matching_bits == in_memory.matching_bits
    ratio = in_memory_cold / streamed_cold
    lines.append(
        f"  detect, in-memory  : {RATIO_ROWS / in_memory_cold:>12,.0f} rows/s"
        f" cold / {RATIO_ROWS / in_memory_warm:,.0f} warm ({RATIO_ROWS} rows)"
    )
    lines.append(
        f"  detect, chunked    : {RATIO_ROWS / streamed_cold:>12,.0f} rows/s "
        f"cold -> {ratio:.2f}x of in-memory (floor 0.5x)"
    )
    assert ratio >= 0.5, (
        f"streamed detection at {ratio:.2f}x of the in-memory vector "
        f"detector (floor 0.5x)"
    )

    # -- bounded memory: peak independent of row count ----------------------
    small_rows = max(ROWS // 4, 8 * MEM_CHUNK)
    peak_small, bits_small = _streamed_detect_peak(small_rows, key, spec)
    peak_large, bits_large = _streamed_detect_peak(ROWS, key, spec)
    growth = peak_large / peak_small
    lines.append(
        f"  detect peak alloc  : {peak_small / 1e6:.1f} MB at {small_rows} "
        f"rows vs {peak_large / 1e6:.1f} MB at {ROWS} rows, chunk "
        f"{MEM_CHUNK} ({growth:.2f}x growth over a "
        f"{ROWS / small_rows:.1f}x tier jump)"
    )
    # An O(rows) detector would grow ~ROWS/small_rows (4x); O(chunk +
    # channel) streaming must stay flat modulo allocator noise.
    assert growth < 1.5, (
        f"streamed detect peak allocation grew {growth:.2f}x when rows "
        f"grew {ROWS / small_rows:.0f}x — memory is not bounded"
    )

    peak_rss = _peak_rss_mb()
    lines.append(f"  process peak RSS   : {peak_rss:.0f} MB")
    text = "\n".join(lines)
    record("stream_throughput", text)
    record_json(
        "stream_throughput",
        {
            "rows": ROWS,
            "chunk_size": CHUNK,
            "channel_length": spec.channel_length,
            "backend": "vector+stream",
            "workers": BENCH_WORKERS,
            "mark_rows_per_second": round(ROWS / mark_seconds),
            "detect_file_rows_per_second": round(ROWS / detect_file_seconds),
            "decode_rows_per_second": round(ROWS / decode_seconds),
            "decode_vote_rows_per_second": round(ROWS / decode_vote_seconds),
            "detect_file_serial_best_rows_per_second": round(
                ROWS / serial_best
            ),
            "detect_file_parallel_rows_per_second": round(
                ROWS / parallel_best
            ),
            "detect_file_serial_seconds": [
                round(seconds, 4) for seconds in serial_times
            ],
            "detect_file_parallel_seconds": [
                round(seconds, 4) for seconds in parallel_times
            ],
            "parallel_speedup": round(speedup, 3),
            "parallel_speedup_floor": SPEEDUP_FLOOR,
            "detect_kernel_parallel_rows_per_second": (
                round(mm_rows_per_second) if mm_rows_per_second else None
            ),
            "detect_chunked_rows_per_second": round(
                RATIO_ROWS / streamed_cold
            ),
            "detect_in_memory_rows_per_second": round(
                RATIO_ROWS / in_memory_cold
            ),
            "stream_vs_in_memory_ratio": round(ratio, 3),
            "peak_alloc_small_mb": round(peak_small / 1e6, 2),
            "peak_alloc_large_mb": round(peak_large / 1e6, 2),
            "peak_alloc_growth": round(growth, 3),
            "peak_rss_mb": round(peak_rss, 1),
            "in_memory_engine_cache_info": get_engine(key).cache_info(),
        },
    )
