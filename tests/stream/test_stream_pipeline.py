"""Tests for repro.stream.pipeline — streamed mark/detect correctness."""

import dataclasses
import hashlib

import pytest

from repro import MarkKey, Watermark, Watermarker
from repro.core import EmbeddingSpec, verify
from repro.crypto import SCALAR, VECTOR, HashEngine
from repro.datagen import generate_item_scan
from repro.quality import MaxAlterationFraction
from repro.relational import UnknownAttributeError, write_csv
from repro.reliability import (
    TORN_WRITE,
    FaultPlan,
    RetryPolicy,
    journal_path,
)
from repro.reliability.integrity import (
    ChunkDigest,
    append_journal_chunk,
    load_journal,
    write_journal_header,
)
from repro.stream import (
    CheckpointError,
    CSVChunkSink,
    CSVChunkSource,
    SQLiteChunkSink,
    SQLiteChunkSource,
    StreamError,
    TableChunkSink,
    TableChunkSource,
    load_checkpoint,
    save_checkpoint,
    stream_detect,
    stream_engine,
    stream_mark,
    stream_verify,
    stream_verify_multipass,
)
from repro.stream import sinks

E = 40
CHANNEL = 120

#: parameter stand-in for a caller-built :class:`HashEngine`, which needs
#: the key fixture and so is built inside the test
ENGINE_INSTANCE = object()


@pytest.fixture(scope="module")
def base():
    return generate_item_scan(3000, item_count=120, seed=21)


@pytest.fixture(scope="module")
def key():
    return MarkKey.from_seed("stream-pipeline")


@pytest.fixture(scope="module")
def wm():
    return Watermark.from_int(0x2AB, 10)


@pytest.fixture(scope="module")
def spec():
    return EmbeddingSpec("Visit_Nbr", "Item_Nbr", E, 10, CHANNEL)


@pytest.fixture(scope="module")
def reference(base, key, wm, spec):
    """In-memory marked table + verdict to pin the stream against."""
    outcome = Watermarker(key, e=E).embed(
        base, wm, "Item_Nbr", channel_length=CHANNEL
    )
    return outcome.table, verify(outcome.table, key, spec, wm)


class Interrupt(Exception):
    pass


class StoppingSource:
    """Wraps a source and dies after ``stop_after`` total chunks."""

    def __init__(self, inner, stop_after):
        self.inner = inner
        self.stop_after = stop_after

    @property
    def schema(self):
        return self.inner.schema

    @property
    def chunk_size(self):
        return self.inner.chunk_size

    def chunks(self, start=0):
        for offset, chunk in enumerate(self.inner.chunks(start)):
            if start + offset >= self.stop_after:
                raise Interrupt()
            yield chunk


class TestStreamMark:
    @pytest.mark.parametrize("chunk_size", [250, 1024, 3000])
    @pytest.mark.parametrize(
        "backend",
        [SCALAR, VECTOR, None, pytest.param(ENGINE_INSTANCE, id="engine")],
    )
    def test_cell_identical_to_in_memory_embed(
        self, base, key, wm, spec, reference, chunk_size, backend
    ):
        if backend is ENGINE_INSTANCE:
            # an explicit instance runs the vector kernels on itself
            backend = HashEngine(key)
        sink = TableChunkSink()
        result = stream_mark(
            TableChunkSource(base, chunk_size=chunk_size),
            wm, key, spec, sink, backend=backend,
        )
        assert sink.table == reference[0]
        assert result.rows == len(base)
        assert result.fit_count > 0
        assert result.applied + result.unchanged == result.fit_count
        assert result.slots_written and result.slot_coverage > 0
        if isinstance(backend, HashEngine):
            assert backend.computed_digests > 0
            assert backend.plan_arrays_built >= result.chunks

    def test_counters_match_in_memory_embed(self, base, key, wm, spec):
        in_memory = Watermarker(key, e=E).embed(
            base, wm, "Item_Nbr", channel_length=CHANNEL
        ).embedding
        streamed = stream_mark(
            TableChunkSource(base, chunk_size=500), wm, key, spec,
            TableChunkSink(),
        )
        assert streamed.fit_count == in_memory.fit_count
        assert streamed.applied == in_memory.applied
        assert streamed.unchanged == in_memory.unchanged
        assert streamed.slots_written == in_memory.slots_written

    def test_map_variant_rejected(self, base, key, wm):
        spec = EmbeddingSpec(
            "Visit_Nbr", "Item_Nbr", E, 10, CHANNEL, variant="map"
        )
        with pytest.raises(StreamError, match="keyed"):
            stream_mark(
                TableChunkSource(base, chunk_size=500), wm, key, spec,
                TableChunkSink(),
            )

    def test_plain_iterable_rejected(self, base, key, wm, spec):
        with pytest.raises(StreamError, match="schema"):
            stream_mark([base], wm, key, spec, TableChunkSink())

    def test_per_chunk_constraints(self, base, key, wm, spec):
        sink = TableChunkSink()
        result = stream_mark(
            TableChunkSource(base, chunk_size=500), wm, key, spec, sink,
            constraints_factory=lambda: [MaxAlterationFraction(0.0)],
        )
        assert result.applied == 0
        assert result.vetoed > 0
        assert result.guard_report.vetoed == result.vetoed
        assert sink.table == base  # every change vetoed

    def test_wrong_backend_engine_key_rejected(self, base, key, wm, spec):
        other = stream_engine(MarkKey.from_seed("someone-else"))
        with pytest.raises(StreamError, match="MarkKey"):
            stream_mark(
                TableChunkSource(base, chunk_size=500), wm, key, spec,
                TableChunkSink(), backend=other,
            )


class TestCheckpointResume:
    @pytest.mark.parametrize("suffix", ["out.csv", "out.csv.gz"])
    def test_resumed_file_is_byte_identical(
        self, base, key, wm, spec, tmp_path, suffix
    ):
        full = tmp_path / ("full_" + suffix)
        stream_mark(
            TableChunkSource(base, chunk_size=500), wm, key, spec,
            CSVChunkSink(full),
        )
        part = tmp_path / ("part_" + suffix)
        checkpoint = tmp_path / "mark.ckpt"
        source = TableChunkSource(base, chunk_size=500)
        with pytest.raises(Interrupt):
            stream_mark(
                StoppingSource(source, 3), wm, key, spec,
                CSVChunkSink(part), checkpoint_path=checkpoint,
            )
        assert load_checkpoint(checkpoint).chunks_done == 3
        # simulate a torn write after the last durable flush
        with open(part, "ab") as handle:
            handle.write(b"torn-partial-chunk")
        resumed = stream_mark(
            source, wm, key, spec, CSVChunkSink(part),
            checkpoint_path=checkpoint, resume=True,
        )
        assert resumed.resumed_at_chunk == 3
        assert resumed.rows == len(base)
        assert (
            hashlib.sha256(part.read_bytes()).hexdigest()
            == hashlib.sha256(full.read_bytes()).hexdigest()
        )

    @pytest.fixture()
    def mark(self, base, key, wm, spec):
        def run(path, stop_after=None, **kwargs):
            source = TableChunkSource(base, chunk_size=500)
            if stop_after is not None:
                source = StoppingSource(source, stop_after)
            return stream_mark(
                source, wm, key, spec, CSVChunkSink(path), **kwargs
            )
        return run

    @pytest.fixture()
    def level_9_run(self, mark, tmp_path, monkeypatch):
        """Uninterrupted gzip runs at level 9 and at the default, and a
        level-9 run interrupted after chunk 3; returns its checkpoint
        (whose sink states, like the journal's, record ``level: 9``)."""
        checkpoint = tmp_path / "mark.ckpt"
        with monkeypatch.context() as patch:
            patch.setattr(sinks, "GZIP_LEVEL", 9)
            mark(tmp_path / "full9.csv.gz")
            with pytest.raises(Interrupt):
                mark(
                    tmp_path / "part.csv.gz", stop_after=3,
                    checkpoint_path=checkpoint,
                )
        mark(tmp_path / "full6.csv.gz")
        return checkpoint

    @staticmethod
    def _forget_level(checkpoint):
        """Rewrite a run's checkpoint and journal as a recorder that
        predates the level would have: no ``level`` in any sink state."""
        def drop(state):
            return {k: v for k, v in state.items() if k != "level"}

        record = load_checkpoint(checkpoint)
        save_checkpoint(checkpoint, dataclasses.replace(
            record, sink_state=drop(record.sink_state)
        ))
        journal = journal_path(checkpoint)
        header, chunks = load_journal(journal)
        write_journal_header(
            journal, fingerprint=header["fingerprint"], kind=header["kind"],
            header_entry=ChunkDigest.from_dict(header["header_entry"]),
            open_state=drop(header["open_state"]),
        )
        for chunk in chunks:
            append_journal_chunk(
                journal, index=chunk["chunk"],
                entry=ChunkDigest.from_dict(chunk["entry"]),
                delta=chunk["delta"], sink_state=drop(chunk["sink_state"]),
            )
        assert "level" not in load_checkpoint(checkpoint).sink_state
        assert "level" not in load_journal(journal)[0]["open_state"]

    @pytest.mark.parametrize(
        "verify", [False, True], ids=["plain", "verified"]
    )
    @pytest.mark.parametrize(
        "recorded", [False, True], ids=["pre-change", "level-9"]
    )
    def test_resume_continues_at_the_recorded_level(
        self, mark, level_9_run, tmp_path, recorded, verify
    ):
        checkpoint = level_9_run
        if not recorded:
            self._forget_level(checkpoint)
        resumed = mark(
            tmp_path / "part.csv.gz", checkpoint_path=checkpoint,
            resume=True, verify_resume=verify,
        )
        assert resumed.resumed_at_chunk == 3
        part = (tmp_path / "part.csv.gz").read_bytes()
        assert part == (tmp_path / "full9.csv.gz").read_bytes()
        assert part != (tmp_path / "full6.csv.gz").read_bytes()
        assert load_checkpoint(checkpoint).sink_state["level"] == 9

    def test_retry_rollback_in_a_resumed_run_keeps_its_level(
        self, mark, level_9_run, tmp_path
    ):
        checkpoint = level_9_run
        self._forget_level(checkpoint)
        plan = FaultPlan().add("sink.write.mid", TORN_WRITE, at=4)
        with plan.armed():
            resumed = mark(
                tmp_path / "part.csv.gz", checkpoint_path=checkpoint,
                resume=True,
                retry=RetryPolicy(max_attempts=3, base_delay=0.0),
            )
        assert plan.pending() == 0
        assert resumed.reliability.sink_rollbacks == 1
        assert (
            (tmp_path / "part.csv.gz").read_bytes()
            == (tmp_path / "full9.csv.gz").read_bytes()
        )

    @pytest.mark.parametrize("suffix", ["csv", "csv.gz"])
    def test_fresh_run_records_the_gzip_level(
        self, base, mark, tmp_path, suffix
    ):
        checkpoint = tmp_path / "mark.ckpt"
        mark(tmp_path / f"out.{suffix}", checkpoint_path=checkpoint)
        header, chunks = load_journal(journal_path(checkpoint))
        states = [
            load_checkpoint(checkpoint).sink_state, header["open_state"],
            *(chunk["sink_state"] for chunk in chunks),
        ]
        assert len(states) == 2 + len(base) // 500
        for state in states:
            if suffix == "csv.gz":
                assert state["level"] == 6
            else:
                assert "level" not in state

    def test_resume_merges_counters(self, base, key, wm, spec, tmp_path):
        whole = stream_mark(
            TableChunkSource(base, chunk_size=500), wm, key, spec,
            TableChunkSink(),
        )
        checkpoint = tmp_path / "mark.ckpt"
        source = TableChunkSource(base, chunk_size=500)
        with pytest.raises(Interrupt):
            stream_mark(
                StoppingSource(source, 4), wm, key, spec,
                CSVChunkSink(tmp_path / "out.csv"),
                checkpoint_path=checkpoint,
            )
        resumed = stream_mark(
            source, wm, key, spec, CSVChunkSink(tmp_path / "out.csv"),
            checkpoint_path=checkpoint, resume=True,
        )
        assert resumed.fit_count == whole.fit_count
        assert resumed.applied == whole.applied
        assert resumed.unchanged == whole.unchanged
        assert resumed.slots_written == whole.slots_written
        assert resumed.guard_report.applied == whole.guard_report.applied

    def test_sqlite_resume(self, base, key, wm, spec, tmp_path):
        checkpoint = tmp_path / "mark.ckpt"
        path = tmp_path / "out.sqlite"
        source = TableChunkSource(base, chunk_size=500)
        with pytest.raises(Interrupt):
            stream_mark(
                StoppingSource(source, 2), wm, key, spec,
                SQLiteChunkSink(path), checkpoint_path=checkpoint,
            )
        stream_mark(
            source, wm, key, spec, SQLiteChunkSink(path),
            checkpoint_path=checkpoint, resume=True,
        )
        verdict = stream_verify(
            SQLiteChunkSource(path, base.schema, chunk_size=700),
            key, spec, wm,
        )
        assert verdict.detected and verdict.rows == len(base)

    def test_fingerprint_mismatch_refuses(self, base, key, wm, spec, tmp_path):
        checkpoint = tmp_path / "mark.ckpt"
        source = TableChunkSource(base, chunk_size=500)
        with pytest.raises(Interrupt):
            stream_mark(
                StoppingSource(source, 2), wm, key, spec,
                CSVChunkSink(tmp_path / "out.csv"),
                checkpoint_path=checkpoint,
            )
        with pytest.raises(CheckpointError, match="different"):
            stream_mark(
                source, Watermark.from_int(1, 10), key, spec,
                CSVChunkSink(tmp_path / "out.csv"),
                checkpoint_path=checkpoint, resume=True,
            )

    def test_resume_without_checkpoint_refuses(self, base, key, wm, spec,
                                               tmp_path):
        with pytest.raises(CheckpointError, match="checkpoint"):
            stream_mark(
                TableChunkSource(base, chunk_size=500), wm, key, spec,
                CSVChunkSink(tmp_path / "out.csv"), resume=True,
            )
        with pytest.raises(CheckpointError, match="resume"):
            stream_mark(
                TableChunkSource(base, chunk_size=500), wm, key, spec,
                CSVChunkSink(tmp_path / "out.csv"),
                checkpoint_path=tmp_path / "never-written.ckpt", resume=True,
            )


class TestStreamDetect:
    def test_verdict_identical_to_in_memory(self, key, spec, wm, reference):
        marked, in_memory = reference
        streamed = stream_verify(
            TableChunkSource(marked, chunk_size=333), key, spec, wm
        )
        assert streamed.detected == in_memory.detected
        assert streamed.verification.matching_bits == in_memory.matching_bits
        assert (
            streamed.verification.detection.watermark
            == in_memory.detection.watermark
        )
        assert (
            streamed.verification.detection.fit_count
            == in_memory.detection.fit_count
        )
        assert (
            streamed.verification.false_hit_probability
            == in_memory.false_hit_probability
        )
        assert streamed.chunks == 10 and streamed.rows == len(marked)

    def test_file_round_trip_with_attack(
        self, base, key, wm, spec, reference, tmp_path
    ):
        import random

        from repro.attacks import DataLossAttack

        marked = reference[0]
        attacked = DataLossAttack(0.4).apply(marked, random.Random(5))
        path = tmp_path / "suspect.csv.gz"
        write_path = tmp_path / "suspect_plain.csv"
        write_csv(attacked, write_path)
        sink = CSVChunkSink(path)
        sink.open(attacked.schema)
        sink.write_chunk(attacked)
        sink.close()
        in_memory = verify(attacked, key, spec, wm)
        streamed = stream_verify(
            CSVChunkSource(
                path, base.schema, chunk_size=444, infer_domains=True
            ),
            key, spec, wm,
            domain=base.schema.attribute("Item_Nbr").domain,
        )
        assert streamed.verification.matching_bits == in_memory.matching_bits
        assert (
            streamed.verification.detection.fit_count
            == in_memory.detection.fit_count
        )

    def test_explicit_engine_stays_warm_from_mark_to_verify(
        self, base, key, spec, wm, reference
    ):
        engine = HashEngine(key)
        sink = TableChunkSink()
        stream_mark(
            TableChunkSource(base, chunk_size=500), wm, key, spec, sink,
            backend=engine,
        )
        hashed = engine.computed_digests
        streamed = stream_verify(
            TableChunkSource(sink.table, chunk_size=333), key, spec, wm,
            backend=engine,
        )
        # detection re-derives every fitness/slot/value verdict from the
        # caller's instance, warmed by the mark: no new SHA-256 at all
        assert engine.computed_digests == hashed > 0
        assert streamed.verification.matching_bits == \
            reference[1].matching_bits
        assert streamed.detected

    def test_stream_detect_exposes_votes(self, key, spec, wm, reference):
        marked, _ = reference
        streamed = stream_detect(
            TableChunkSource(marked, chunk_size=500), key, spec
        )
        assert streamed.votes.fit_count == streamed.detection.fit_count
        assert sum(streamed.votes.total) >= streamed.detection.slots_recovered

    def test_plain_iterable_of_tables(self, key, spec, wm, reference):
        marked, in_memory = reference
        streamed = stream_verify([marked], key, spec, wm)
        assert streamed.verification.matching_bits == in_memory.matching_bits

    def test_expected_length_validated(self, key, spec, reference):
        with pytest.raises(Exception, match="bits"):
            stream_verify(
                TableChunkSource(reference[0], chunk_size=500), key, spec,
                Watermark.from_int(1, 3),
            )


class TestStreamVerifyMultipass:
    def test_matches_in_memory_loop(self, base, key, spec, wm):
        keys = [MarkKey.from_seed(f"mp:{index}") for index in range(4)]
        wms = [Watermark.from_int(index + 5, 10) for index in range(4)]
        marked = Watermarker(keys[0], e=E).embed(
            base, wms[0], "Item_Nbr", channel_length=CHANNEL
        ).table
        in_memory = [
            verify(marked, pass_key, spec, pass_wm)
            for pass_key, pass_wm in zip(keys, wms)
        ]
        streamed = stream_verify_multipass(
            TableChunkSource(marked, chunk_size=700), keys, spec, wms
        )
        assert len(streamed) == 4
        for mine, reference in zip(streamed, in_memory):
            assert mine.matching_bits == reference.matching_bits
            assert mine.detection.watermark == reference.detection.watermark
            assert mine.detection.fit_count == reference.detection.fit_count
            assert (
                mine.false_hit_probability == reference.false_hit_probability
            )

    def test_length_mismatch_rejected(self, base, key, spec, wm):
        with pytest.raises(Exception, match="expected"):
            stream_verify_multipass(
                TableChunkSource(base, chunk_size=700),
                [key, MarkKey.from_seed("x")], spec, [wm],
            )

    def test_a_call_wrong_in_two_ways_raises_the_first_checks_error(
        self, base, key, spec, wm
    ):
        # Both detect entry points share one scan, but not one check
        # order: stream_detect resolves the worker count first,
        # stream_verify_multipass resolves the domain, then the backend,
        # then the worker count.
        source = TableChunkSource(base, chunk_size=700)
        unknown = dataclasses.replace(spec, mark_attribute="Nope")
        with pytest.raises(StreamError, match="workers must be"):
            stream_detect(source, key, spec, backend="nope", workers="nope")
        with pytest.raises(UnknownAttributeError):
            stream_verify_multipass(
                source, [key], unknown, [wm], backend="nope", workers="nope"
            )
        with pytest.raises(StreamError, match="backend must be"):
            stream_verify_multipass(
                source, [key], spec, [wm], backend="nope", workers="nope"
            )


class TestResumeWithConstraints:
    def test_vetoes_by_constraint_survive_resume(
        self, base, key, wm, spec, tmp_path
    ):
        factory = lambda: [MaxAlterationFraction(0.0)]  # noqa: E731
        whole = stream_mark(
            TableChunkSource(base, chunk_size=500), wm, key, spec,
            TableChunkSink(), constraints_factory=factory,
        )
        assert whole.guard_report.vetoes_by_constraint  # something vetoed
        checkpoint = tmp_path / "mark.ckpt"
        source = TableChunkSource(base, chunk_size=500)
        with pytest.raises(Interrupt):
            stream_mark(
                StoppingSource(source, 3), wm, key, spec,
                CSVChunkSink(tmp_path / "out.csv"),
                checkpoint_path=checkpoint, constraints_factory=factory,
            )
        resumed = stream_mark(
            source, wm, key, spec, CSVChunkSink(tmp_path / "out.csv"),
            checkpoint_path=checkpoint, resume=True,
            constraints_factory=factory,
        )
        assert (
            resumed.guard_report.vetoes_by_constraint
            == whole.guard_report.vetoes_by_constraint
        )
        assert (
            sum(resumed.guard_report.vetoes_by_constraint.values())
            == resumed.guard_report.vetoed
        )
