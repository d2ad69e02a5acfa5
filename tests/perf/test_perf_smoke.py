"""Tier-1 perf smoke: fail fast when the engine's caching regresses.

Full throughput numbers live in ``benchmarks/bench_throughput.py``; this
tiny (<2 s) check runs with the regular suite and asserts the *mechanism*
rather than fragile wall-clock ratios:

* a steady-state re-detection performs **zero** SHA-256 computations
  (the carrier-plan cache makes attack sweeps hash-free);
* embedding hashes each distinct key value at most once per secret key
  (no per-row or per-use re-hashing);
* the whole embed + verify + re-verify cycle stays under a generous
  absolute wall-clock budget, so a catastrophic slowdown still fails
  even if the cache accounting somehow lies.
"""

from __future__ import annotations

import time

import pytest

from repro.attacks import SubsetAlterationAttack
from repro.core import Watermark, Watermarker
from repro.crypto import HashEngine, MarkKey, get_engine
from repro.datagen import generate_item_scan
from repro.experiments import MODE_HOISTED, SweepEngine, SweepProtocol

ROWS = 4_000


@pytest.mark.perf_smoke
def test_engine_steady_state_is_hash_free():
    started = time.perf_counter()
    table = generate_item_scan(ROWS, item_count=120, seed=21)
    key = MarkKey.from_seed("perf-smoke")
    engine = HashEngine(key)
    marker = Watermarker(key, e=40, engine=engine)
    watermark = Watermark.from_int(0x2AB, 10)

    outcome = marker.embed(table, watermark, "Item_Nbr")
    # Embedding needs one k1 digest per distinct key value and one k2
    # digest per carrier -- never more (the satellite fix for the double
    # ``keyed_hash`` per carrier is what this bound enforces).
    assert engine.k1.computed <= ROWS
    assert engine.k2.computed <= outcome.embedding.fit_count

    verdict = marker.verify(outcome.table, outcome.record)
    assert verdict.association.detected
    after_first_verify = engine.computed_digests

    # Steady state: re-verification (the attack-sweep regime) re-hashes
    # nothing at all.
    for _ in range(3):
        assert marker.verify(outcome.table, outcome.record).association.detected
    assert engine.computed_digests == after_first_verify

    # Re-embedding the same relation is equally hash-free.
    marker.embed(table, watermark, "Item_Nbr")
    assert engine.computed_digests == after_first_verify

    elapsed = time.perf_counter() - started
    assert elapsed < 2.0, f"perf smoke took {elapsed:.2f}s (budget 2s)"


@pytest.mark.perf_smoke
def test_sweep_second_point_is_embed_free_and_hash_free():
    """A second sweep point must cost zero embeds and zero SHA-256 calls.

    Exercises both layers of reuse at once: the sweep engine's embed
    hoisting (the embedded pass built for point one answers point two) and
    the carrier-plan caches underneath (re-detecting the attacked clones
    only reads warm fitness/slot entries — the attack rewrites mark
    values, which are never hashed).
    """
    started = time.perf_counter()
    table = generate_item_scan(2_000, item_count=100, seed=33)
    engine = SweepEngine(mode=MODE_HOISTED)
    protocol = SweepProtocol(mark_attribute="Item_Nbr", e=40)
    seeds = range(5)

    def digests():
        return sum(
            get_engine(MarkKey.from_seed(seed)).computed_digests
            for seed in seeds
        )

    first = engine.run(
        table,
        protocol,
        [(0.3, SubsetAlterationAttack("Item_Nbr", 0.3, 0.7))],
        seeds,
    )
    assert engine.embeds_performed == len(list(seeds))
    assert all(result.fit_count > 0 for result in first[0].passes)
    embeds_after_first = engine.embeds_performed
    digests_after_first = digests()

    second = engine.run(
        table,
        protocol,
        [(0.5, SubsetAlterationAttack("Item_Nbr", 0.5, 0.7))],
        seeds,
    )
    assert all(result.fit_count > 0 for result in second[0].passes)
    # Zero embeds: the point-one passes were reused verbatim.
    assert engine.embeds_performed == embeds_after_first
    # Zero hashing: every re-detection ran entirely from the plan caches.
    assert digests() == digests_after_first

    elapsed = time.perf_counter() - started
    assert elapsed < 2.0, f"sweep perf smoke took {elapsed:.2f}s (budget 2s)"


@pytest.mark.perf_smoke
def test_warm_sweep_cell_is_fused_and_code_level(monkeypatch):
    """A warm sweep cell: one fused kernel, zero row-tuple materialization.

    Asserts the PR-4 tentpole mechanism: once a point has warmed the
    stacked plan arrays, the next sweep point performs exactly **one**
    ``detect_multipass`` launch for all passes (zero per-pass ``detect``
    launches, zero embeds, zero SHA-256 calls, zero new plan stacks), and
    the code-level attacks never materialize a row tuple — ``Table``
    iteration is forbidden outright for the whole warm cell.
    """
    from repro.core import kernels
    from repro.crypto import VECTOR, stack_cache_info
    from repro.experiments import SweepProtocol, run_point
    from repro.relational import Table

    started = time.perf_counter()
    table = generate_item_scan(5_000, item_count=120, seed=51)
    engine = SweepEngine(mode=MODE_HOISTED)
    protocol = SweepProtocol(mark_attribute="Item_Nbr", e=40, backend=VECTOR)
    seeds = range(5)
    passes = [engine.embedded_pass(table, protocol, seed) for seed in seeds]

    def attack(x):
        return SubsetAlterationAttack("Item_Nbr", x, 0.7)

    run_point(passes, attack(0.3), 0.3)  # warm-up point: builds the stacks

    def digests():
        return sum(
            get_engine(MarkKey.from_seed(seed)).computed_digests
            for seed in seeds
        )

    kernels.reset_kernel_calls()
    stacks_before = stack_cache_info()["stacks_built"]
    digests_before = digests()
    embeds_before = engine.embeds_performed

    def forbidden_iter(self):
        raise AssertionError(
            "warm sweep cell materialized row tuples (Table.__iter__)"
        )

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Table, "__iter__", forbidden_iter)
        results = run_point(passes, attack(0.5), 0.5)

    assert all(result.fit_count > 0 for result in results)
    assert kernels.KERNEL_CALLS["detect_multipass"] == 1
    assert kernels.KERNEL_CALLS["detect"] == 0
    assert kernels.KERNEL_CALLS["embed"] == 0
    assert engine.embeds_performed == embeds_before
    assert stack_cache_info()["stacks_built"] == stacks_before
    assert digests() == digests_before

    elapsed = time.perf_counter() - started
    assert elapsed < 2.0, f"fused perf smoke took {elapsed:.2f}s (budget 2s)"


@pytest.mark.perf_smoke
def test_vector_steady_redetect_is_pure_array_code(monkeypatch):
    """A warm vector re-detection runs on codes + plan arrays alone.

    Asserts the tentpole mechanism directly: after one warm-up detection,
    re-detecting the same relation performs zero SHA-256 computations and
    zero Python-level hash lookups — every per-row quantity comes from the
    cached column codes and the engine's cached plan arrays.  Enforced by
    making every dict-backed engine primitive raise.
    """
    from repro.crypto import (
        VECTOR,
        KeyedDigestCache,
        clear_engine_registry,
        get_engine,
        stack_cache_info,
    )

    started = time.perf_counter()
    table = generate_item_scan(6_000, item_count=150, seed=47)
    key = MarkKey.from_seed("perf-smoke-vector")
    clear_engine_registry()
    marker = Watermarker(key, e=40, engine=VECTOR)
    watermark = Watermark.from_int(0x2AB, 10)

    outcome = marker.embed(table, watermark, "Item_Nbr")
    assert marker.verify(outcome.table, outcome.record).association.detected

    engine = get_engine(key)
    digests_before = engine.computed_digests
    arrays_before = engine.plan_arrays_built
    stacks_before = stack_cache_info()["stacks_built"]
    spec = outcome.record.spec
    key_codes = outcome.table.column_codes(spec.key_attribute)
    mark_codes = outcome.table.column_codes(spec.mark_attribute)

    def forbidden(name):
        def _raise(*args, **kwargs):
            raise AssertionError(
                f"warm vector re-detection called {name} — a per-value "
                f"Python hash lookup on the steady-state path"
            )
        return _raise

    monkeypatch.setattr(HashEngine, "fitness_map", forbidden("fitness_map"))
    monkeypatch.setattr(HashEngine, "slot_map", forbidden("slot_map"))
    monkeypatch.setattr(HashEngine, "pair_map", forbidden("pair_map"))
    monkeypatch.setattr(KeyedDigestCache, "digest", forbidden("digest"))
    monkeypatch.setattr(
        KeyedDigestCache, "digest_many", forbidden("digest_many")
    )

    for _ in range(3):
        verdict = marker.verify(outcome.table, outcome.record)
        assert verdict.association.detected

    # No hashing, no new plan arrays or stacks, no re-factorization.
    assert engine.computed_digests == digests_before
    assert engine.plan_arrays_built == arrays_before
    assert stack_cache_info()["stacks_built"] == stacks_before
    assert outcome.table.column_codes(spec.key_attribute) is key_codes
    assert outcome.table.column_codes(spec.mark_attribute) is mark_codes

    elapsed = time.perf_counter() - started
    assert elapsed < 2.0, f"vector perf smoke took {elapsed:.2f}s (budget 2s)"


@pytest.mark.perf_smoke
def test_stream_second_chunk_is_hash_free():
    """Engine sharing across chunks: re-seen values re-hash nothing.

    Two layers of the streaming subsystem's cache story, asserted by
    digest accounting rather than wall clock: (1) a second chunk holding
    already-seen key values performs **zero** SHA-256 calls — the
    stream-scoped engine's memoization spans chunks; (2) a streamed
    verify right after a streamed mark on the same shared engine performs
    zero additional hashing — embedding already resolved every fitness
    and slot digest detection needs.
    """
    from repro.core import EmbeddingSpec
    from repro.stream import (
        TableChunkSink,
        TableChunkSource,
        stream_engine,
        stream_mark,
        stream_verify,
    )

    started = time.perf_counter()
    table = generate_item_scan(2_000, item_count=100, seed=63)
    key = MarkKey.from_seed("perf-smoke-stream")
    spec = EmbeddingSpec("Visit_Nbr", "Item_Nbr", 40, 10, 50)
    watermark = Watermark.from_int(0x2AB, 10)
    engine = stream_engine(key, chunk_size=500)

    # Streamed mark: one warm engine across all four chunks.
    sink = TableChunkSink()
    stream_mark(
        TableChunkSource(table, chunk_size=500), watermark, key, spec,
        sink, backend=engine,
    )
    digests_after_mark = engine.computed_digests
    assert digests_after_mark > 0

    # Streamed verify of the marked output on the same engine: zero new
    # hashing — detection only reads fitness/slot entries the mark pass
    # already resolved (mark values are never hashed).
    first = stream_verify(
        TableChunkSource(sink.table, chunk_size=500), key, spec, watermark,
        backend=engine,
    )
    assert first.detected and first.chunks == 4
    assert engine.computed_digests == digests_after_mark

    # A second chunk of already-seen values: zero SHA-256 calls.  The
    # suspect stream presents the same chunk twice (same key values); the
    # second pass must run entirely from the warm caches.
    chunk = next(iter(TableChunkSource(sink.table, chunk_size=500)))
    again = stream_verify([chunk, chunk], key, spec, watermark, backend=engine)
    assert again.chunks == 2
    assert engine.computed_digests == digests_after_mark

    elapsed = time.perf_counter() - started
    assert elapsed < 2.0, f"stream perf smoke took {elapsed:.2f}s (budget 2s)"


@pytest.mark.perf_smoke
def test_warm_parallel_verify_is_coordinator_hash_free_and_fused():
    """Parallel streaming's cache story, asserted by accounting.

    Three mechanisms at once: (1) a warm parallel verify performs **zero**
    SHA-256 computations in the coordinator — it only decodes payloads and
    merges vote tallies, so every dict-backed digest primitive is made to
    raise after the pool is warm (the workers forked *before* the patch
    and are unaffected); (2) each worker performs exactly one fused kernel
    launch per chunk (per-worker telemetry pins ``detect_multipass`` calls
    == chunks processed, cumulatively since the fork); (3) per-worker
    ``stream_engine`` caches warm once — no worker ever computes more
    digests than one full pass over the distinct values needs, no matter
    how many chunks it processes across repeated verifies.
    """
    from repro.core import EmbeddingSpec
    from repro.crypto import VECTOR, KeyedDigestCache
    from repro.stream import (
        TableChunkSource,
        shutdown_stream_pool,
        stream_engine,
        stream_verify,
        stream_verify_multipass,
    )

    started = time.perf_counter()
    shutdown_stream_pool()
    table = generate_item_scan(4_000, item_count=100, seed=77)
    key = MarkKey.from_seed("perf-smoke-parallel")
    spec = EmbeddingSpec("Visit_Nbr", "Item_Nbr", 40, 10, 50)
    watermark = Watermark.from_int(0x2AB, 10)

    # One warm serial pass fixes the digest budget: the number of
    # distinct-value hashes a single engine needs to tally the whole
    # table.  No pool worker may ever exceed it, however many chunks the
    # dynamic schedule hands it across repeated verifies.
    probe = stream_engine(key, chunk_size=500)
    stream_verify(
        TableChunkSource(table, chunk_size=500), key, spec, watermark,
        backend=probe,
    )
    full_pass_digests = probe.computed_digests

    def run():
        return stream_verify(
            TableChunkSource(table, chunk_size=500), key, spec, watermark,
            backend=VECTOR, workers=2,
        )

    def assert_fused(report):
        assert report.worker_stats, "no worker telemetry came back"
        for stats in report.worker_stats.values():
            assert stats["kernel_calls"]["detect_multipass"] == stats["chunks"]

    try:
        # Warm-up BEFORE patching: the pool forks its workers here, so
        # they must inherit an unpatched engine.
        warm = run()
        assert warm.chunks == 8
        assert_fused(warm.parallel)

        def forbidden(name):
            def _raise(*args, **kwargs):
                raise AssertionError(
                    f"parallel verify called {name} in the coordinator — "
                    f"hashing belongs in the workers"
                )
            return _raise

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(KeyedDigestCache, "digest", forbidden("digest"))
            patch.setattr(
                KeyedDigestCache, "digest_many", forbidden("digest_many")
            )
            second = run()
            third = run()
        assert second.detected == warm.detected
        assert second.votes == warm.votes == third.votes
        assert_fused(second.parallel)
        assert_fused(third.parallel)
        # Warm engines: cumulative digests per worker stay within one
        # full-pass budget — values re-seen across runs are never
        # re-hashed.
        for report in (warm.parallel, second.parallel, third.parallel):
            for stats in report.worker_stats.values():
                assert stats["computed_digests"] <= full_pass_digests

        # The fused multi-pass tier: a fresh run state forks fresh
        # workers; the fused per-chunk tally stays bit-identical to the
        # single-process pass.
        keys = [MarkKey.from_seed(f"perf-smoke-mp:{p}") for p in range(3)]
        expecteds = [watermark] * 3
        results = stream_verify_multipass(
            TableChunkSource(table, chunk_size=500), keys, spec, expecteds,
            backend=VECTOR, workers=2,
        )
        serial = stream_verify_multipass(
            TableChunkSource(table, chunk_size=500), keys, spec, expecteds,
            backend=VECTOR,
        )
        assert len(results) == len(serial) == 3
        for got, want in zip(results, serial):
            assert got.matching_bits == want.matching_bits
            assert got.detection.watermark == want.detection.watermark
    finally:
        shutdown_stream_pool()

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, (
        f"parallel perf smoke took {elapsed:.2f}s (budget 10s)"
    )


def _sales_csv(path, rows, bad_at=None):
    """A Sales CSV of ``rows`` (gzip by suffix); record ``bad_at`` loses a
    field."""
    import csv
    import gzip

    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "wt", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ("Scan_Id", "Item_Nbr", "Store_Nbr", "Dept", "Quantity")
        )
        for number, row in enumerate(rows, start=1):
            writer.writerow(row[:-1] if number == bad_at else row)
    return path


@pytest.mark.perf_smoke
def test_clean_csv_decode_is_column_wise(monkeypatch, tmp_path):
    """Clean CSV input never reaches the row-at-a-time reference typer.

    ``parse_row`` (where the sources' chunk build and ``read_csv`` bind
    it) and ``Schema.validate_row`` are made to raise: streamed detect
    and checkpointed mark in process, the build of a raw payload and
    ``read_csv`` must all type and validate a column at a time.
    """
    from repro.core import EmbeddingSpec
    from repro.datagen import generate_sales
    from repro.relational import Schema, Table, csvio, read_csv
    from repro.stream import (
        CSVChunkSink,
        CSVChunkSource,
        sources,
        stream_mark,
        stream_verify,
    )

    started = time.perf_counter()
    table = generate_sales(3_000, item_count=60, seed=5)
    schema = table.schema
    rows = list(table)
    path = _sales_csv(tmp_path / "sales.csv.gz", rows)
    plain = _sales_csv(tmp_path / "sales.csv", rows)
    key = MarkKey.from_seed("perf-smoke-decode")
    spec = EmbeddingSpec("Scan_Id", "Item_Nbr", 40, 10, 60)
    watermark = Watermark.from_int(0x2AB, 10)

    def forbidden(*args, **kwargs):
        raise AssertionError("clean input went through the row-wise path")

    for module in (sources, csvio):
        monkeypatch.setattr(module, "parse_row", forbidden)
    monkeypatch.setattr(Schema, "validate_row", forbidden)

    assert list(Table(schema, rows)) == rows
    assert list(read_csv(plain, schema)) == rows
    marked = tmp_path / "marked.csv.gz"
    mark = stream_mark(
        CSVChunkSource(path, schema, chunk_size=1_000), watermark, key,
        spec, CSVChunkSink(marked), checkpoint_path=tmp_path / "mark.ckpt",
    )
    assert mark.rows == 3_000
    verdict = stream_verify(
        CSVChunkSource(marked, schema, chunk_size=1_000, infer_domains=True),
        key, spec, watermark, domain=schema.attribute("Item_Nbr").domain,
    )
    assert verdict.rows == 3_000 and verdict.detected
    source = CSVChunkSource(path, schema, chunk_size=1_000)
    task = next(source.payloads())
    assert task.kind == sources.PAYLOAD_RAW
    chunk = sources.build_chunk(
        task, sources.payload_profile(source),
        sources.payload_decoders(schema),
    )
    assert list(chunk) == rows[:1_000]

    elapsed = time.perf_counter() - started
    assert elapsed < 2.0, f"decode perf smoke took {elapsed:.2f}s (budget 2s)"


@pytest.mark.perf_smoke
def test_malformed_record_reaches_the_reference_typer(monkeypatch, tmp_path):
    """One short record among clean ones is re-typed by ``parse_row`` and
    reported exactly as the row-at-a-time reader reports it."""
    from repro.datagen import generate_sales
    from repro.relational import csvio, read_csv
    from repro.stream import BadRowError, CSVChunkSource, sources

    table = generate_sales(3_000, item_count=60, seed=5)
    schema = table.schema
    path = _sales_csv(tmp_path / "sales.csv.gz", list(table), bad_at=1_234)
    plain = _sales_csv(tmp_path / "sales.csv", list(table), bad_at=1_234)
    reason = "CSV row 1234 has 4 fields, schema has 5"
    calls = []

    for module in (sources, csvio):
        def spy(*args, _real=module.parse_row, **kwargs):
            calls.append(args[-1])
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, "parse_row", spy)

    source = CSVChunkSource(path, schema, chunk_size=1_000)
    with pytest.raises(BadRowError) as excinfo:
        list(source.chunks())
    assert str(excinfo.value) == f"{path}: bad CSV row 1234: {reason}"
    tasks = list(source.payloads())
    with pytest.raises(BadRowError) as excinfo:
        sources.build_chunk(
            tasks[1], sources.payload_profile(source),
            sources.payload_decoders(schema),
        )
    assert str(excinfo.value) == f"{path}: bad CSV row 1234: {reason}"
    with pytest.raises(ValueError, match=f"^{reason}$"):
        read_csv(plain, schema)
    assert calls.count(1234) == 3


@pytest.mark.perf_smoke
def test_building_a_raw_task_drops_its_records(tmp_path):
    """Building a raw task drops each slice's records from the payload
    once they are typed, so typed rows never sit beside a whole raw
    chunk — what keeps an in-process run's peak memory from growing by
    a chunk of records (a peak-RSS assertion would be flaky; this one is
    not)."""
    import gc

    from repro.datagen import generate_sales
    from repro.relational.csvio import TYPE_SLICE
    from repro.stream import CSVChunkSource, sources

    table = generate_sales(3 * TYPE_SLICE, item_count=60, seed=5)
    rows = list(table)
    path = _sales_csv(tmp_path / "sales.csv.gz", rows)
    source = CSVChunkSource(path, table.schema, chunk_size=len(rows))
    task = next(source.payloads())
    assert task.kind == sources.PAYLOAD_RAW
    records = list(task.payload)
    chunk = sources.build_chunk(
        task, sources.payload_profile(source),
        sources.payload_decoders(table.schema),
    )
    assert list(chunk) == rows
    held = {id(item) for item in gc.get_referents(task.payload)}
    assert held.isdisjoint(map(id, records))


@pytest.mark.perf_smoke
def test_vector_stream_detect_builds_no_chunk_table(monkeypatch, tmp_path):
    """A VECTOR detect of a clean gzip CSV types its records into
    columns and votes on their codes: it never zips rows
    (``csvio.type_records``) or builds a chunk table
    (``build_chunk_table``), in process or in pool workers (forked after
    the patch, so they run under it too).  The SCALAR reference still
    builds one per chunk."""
    from repro.core import EmbeddingSpec, embed, verify
    from repro.crypto import SCALAR
    from repro.datagen import generate_sales
    from repro.relational import csvio
    from repro.stream import (
        CSVChunkSource,
        shutdown_stream_pool,
        sources,
        stream_verify,
    )

    table = generate_sales(3_000, item_count=60, seed=5)
    key = MarkKey.from_seed("perf-smoke-vote-chunks")
    spec = EmbeddingSpec("Scan_Id", "Item_Nbr", 40, 10, 60)
    watermark = Watermark.from_int(0x2AB, 10)
    embed(table, watermark, key, spec)
    path = _sales_csv(tmp_path / "marked.csv.gz", list(table))
    domain = table.schema.attribute("Item_Nbr").domain
    expected = verify(table, key, spec, watermark)

    def forbidden(*args, **kwargs):
        raise AssertionError("VECTOR detect built rows or a chunk table")

    built = []

    def counting(*args, _real=sources.build_chunk_table, **kwargs):
        built.append(args[2])
        return _real(*args, **kwargs)

    with monkeypatch.context() as patched:
        patched.setattr(csvio, "type_records", forbidden)
        patched.setattr(sources, "build_chunk_table", forbidden)
        shutdown_stream_pool()
        try:
            for infer, workers in ((True, None), (False, None), (True, 2)):
                verdict = stream_verify(
                    CSVChunkSource(
                        path, table.schema, chunk_size=1_000,
                        infer_domains=infer,
                    ),
                    key, spec, watermark, domain=domain, workers=workers,
                )
                assert verdict.verification == expected
                assert verdict.rows == 3_000 and verdict.chunks == 3
        finally:
            shutdown_stream_pool()
    monkeypatch.setattr(sources, "build_chunk_table", counting)
    verdict = stream_verify(
        CSVChunkSource(path, table.schema, chunk_size=1_000),
        key, spec, watermark, domain=domain, backend=SCALAR,
    )
    assert verdict.verification == expected
    assert built == [0, 1, 2]
