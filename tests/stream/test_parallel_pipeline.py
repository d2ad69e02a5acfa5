"""Pipeline-level guarantees of ``workers=N`` streaming.

Byte-identity of marked output files (ordered commit), resume across a
kill boundary with a parallel re-run, the in-process finish after a
spent retry budget, multi-file fan-in, worker-count resolution, and the explicit refusals for
features that cannot cross a process boundary.
"""

import hashlib
import os

import pytest

from repro import MarkKey, Watermark, Watermarker
from repro.core import EmbeddingSpec, kernels, verify
from repro.crypto import SCALAR, VECTOR, HashEngine
from repro.datagen import generate_item_scan
from repro.quality import MaxAlterationFraction
from repro.relational import Table, write_csv
from repro.reliability import IO_ERROR, NO_RETRY, FaultPlan
from repro.stream import (
    AUTO_WORKERS,
    CSVChunkSink,
    MultiFileChunkSource,
    StreamError,
    TableChunkSink,
    TableChunkSource,
    open_sources,
    resolve_workers,
    shutdown_stream_pool,
    stream_detect,
    stream_mark,
    stream_verify,
)

E = 40
CHANNEL = 60


@pytest.fixture(scope="module", autouse=True)
def _pool_teardown():
    yield
    shutdown_stream_pool()


@pytest.fixture(scope="module")
def base():
    return generate_item_scan(1200, item_count=80, seed=33)


@pytest.fixture(scope="module")
def key():
    return MarkKey.from_seed("parallel-pipeline")


@pytest.fixture(scope="module")
def wm():
    return Watermark.from_int(0x1D3, 10)


@pytest.fixture(scope="module")
def spec():
    return EmbeddingSpec("Visit_Nbr", "Item_Nbr", E, 10, CHANNEL)


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Interrupt(Exception):
    pass


class StoppingSource:
    """Dies after ``stop_after`` total chunks — simulates a torn run."""

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


class TestParallelMark:
    def test_marked_file_byte_identical_to_serial(
        self, base, key, wm, spec, tmp_path
    ):
        serial_path = tmp_path / "serial.csv.gz"
        parallel_path = tmp_path / "parallel.csv.gz"
        serial = stream_mark(
            TableChunkSource(base, chunk_size=250), wm, key, spec,
            CSVChunkSink(serial_path),
        )
        parallel = stream_mark(
            TableChunkSource(base, chunk_size=250), wm, key, spec,
            CSVChunkSink(parallel_path), workers=2,
        )
        assert _sha(parallel_path) == _sha(serial_path)
        assert parallel.rows == serial.rows
        assert parallel.chunks == serial.chunks
        assert parallel.applied == serial.applied
        assert parallel.vetoed == serial.vetoed
        assert parallel.unchanged == serial.unchanged
        assert parallel.fit_count == serial.fit_count
        assert parallel.slots_written == serial.slots_written
        assert parallel.parallel is not None
        assert parallel.parallel.workers == 2
        assert (
            parallel.parallel.chunks_parallel
            + parallel.parallel.chunks_serial
            == parallel.chunks
        )

    def test_parallel_resume_after_torn_run_is_byte_identical(
        self, base, key, wm, spec, tmp_path
    ):
        full = tmp_path / "full.csv.gz"
        stream_mark(
            TableChunkSource(base, chunk_size=250), wm, key, spec,
            CSVChunkSink(full),
        )
        part = tmp_path / "part.csv.gz"
        checkpoint = tmp_path / "mark.ckpt"
        with pytest.raises(Interrupt):
            stream_mark(
                StoppingSource(TableChunkSource(base, chunk_size=250), 2),
                wm, key, spec, CSVChunkSink(part),
                checkpoint_path=checkpoint,
            )
        resumed = stream_mark(
            TableChunkSource(base, chunk_size=250), wm, key, spec,
            CSVChunkSink(part), checkpoint_path=checkpoint, resume=True,
            workers=2,
        )
        assert _sha(part) == _sha(full)
        assert resumed.rows == len(base)

    def test_parallel_mark_verifies_in_memory(self, base, key, wm, spec):
        sink = TableChunkSink()
        stream_mark(
            TableChunkSource(base, chunk_size=250), wm, key, spec, sink,
            workers=2,
        )
        marked = sink.table
        verdict = verify(marked, key, spec, wm)
        assert verdict.detected

    def test_workers_refuse_constraints_factory(self, base, key, wm, spec):
        with pytest.raises(StreamError, match="constraints"):
            stream_mark(
                TableChunkSource(base, chunk_size=250), wm, key, spec,
                TableChunkSink(), workers=2,
                constraints_factory=lambda: [MaxAlterationFraction(0.5)],
            )

    def test_workers_refuse_shared_engine(self, base, key, wm, spec):
        with pytest.raises(StreamError, match="HashEngine"):
            stream_mark(
                TableChunkSource(base, chunk_size=250), wm, key, spec,
                TableChunkSink(), workers=2, backend=HashEngine(key),
            )


    @pytest.mark.parametrize("backend", [SCALAR, VECTOR])
    def test_spent_budget_marks_in_process_on_the_callers_backend(
        self, base, key, wm, spec, tmp_path, backend
    ):
        serial_path = tmp_path / "serial.csv"
        stream_mark(
            TableChunkSource(base, chunk_size=250), wm, key, spec,
            CSVChunkSink(serial_path), backend=backend,
        )
        kernels.reset_kernel_calls()
        degraded_path = tmp_path / "degraded.csv"
        # NO_RETRY spends the whole budget on chunk 0's first failure
        plan = FaultPlan().add("pool.worker", IO_ERROR, at=0)
        with plan.armed():
            degraded = stream_mark(
                TableChunkSource(base, chunk_size=250), wm, key, spec,
                CSVChunkSink(degraded_path), workers=2, backend=backend,
                retry=NO_RETRY,
            )
        # every chunk ran in the coordinator, on the backend the caller
        # chose: no pool result, no backend switch
        assert degraded.parallel.chunks_parallel == 0
        assert degraded.parallel.chunks_serial == degraded.chunks
        assert degraded.reliability.pool_fallbacks == 1
        expected = 0 if backend == SCALAR else degraded.chunks
        assert kernels.KERNEL_CALLS["embed"] == expected
        assert _sha(degraded_path) == _sha(serial_path)


class TestMultiFile:
    def test_multi_file_detect_equals_concatenated_scan(
        self, base, key, wm, spec, tmp_path
    ):
        outcome = Watermarker(key, e=E).embed(
            base, wm, "Item_Nbr", channel_length=CHANNEL
        )
        marked = outcome.table
        rows = list(marked)
        half = len(rows) // 2
        paths = [tmp_path / "part-a.csv", tmp_path / "part-b.csv"]
        write_csv(Table(marked.schema, rows[:half]), paths[0])
        write_csv(Table(marked.schema, rows[half:]), paths[1])
        source = open_sources(
            [str(p) for p in paths], marked.schema, chunk_size=250,
        )
        assert isinstance(source, MultiFileChunkSource)
        in_memory = verify(marked, key, spec, wm)
        for workers in (None, 2):
            streamed = stream_verify(
                open_sources(
                    [str(p) for p in paths], marked.schema, chunk_size=250,
                ),
                key, spec, wm, workers=workers,
            )
            assert streamed.detected
            assert (
                streamed.verification.matching_bits == in_memory.matching_bits
            )
            assert streamed.rows == len(rows)

    def test_multi_file_parallel_detect_matches_serial(
        self, base, key, wm, spec, tmp_path
    ):
        outcome = Watermarker(key, e=E).embed(
            base, wm, "Item_Nbr", channel_length=CHANNEL
        )
        marked = outcome.table
        rows = list(marked)
        paths = []
        for i, start in enumerate(range(0, len(rows), 400)):
            path = tmp_path / f"shard-{i}.csv"
            write_csv(Table(marked.schema, rows[start:start + 400]), path)
            paths.append(str(path))
        runs = [
            stream_detect(
                open_sources(paths, marked.schema, chunk_size=180),
                key, spec, workers=workers,
            )
            for workers in (None, 2)
        ]
        serial, parallel = runs
        assert parallel.votes == serial.votes
        assert (
            parallel.detection.watermark == serial.detection.watermark
        )
        assert parallel.rows == serial.rows == len(rows)


class TestResolveWorkers:
    def test_default_and_explicit(self):
        assert resolve_workers(None) == 1
        assert resolve_workers(1) == 1
        assert resolve_workers(3) == 3

    def test_auto_matches_cores(self):
        resolved = resolve_workers(AUTO_WORKERS)
        cores = os.cpu_count() or 1
        if cores < 2:
            assert resolved == 1
        else:
            assert 2 <= resolved <= min(max(cores - 1, 2), 8)

    def test_rejects_nonsense(self):
        with pytest.raises(StreamError):
            resolve_workers(0)
        with pytest.raises(StreamError):
            resolve_workers(-2)
        with pytest.raises(StreamError):
            resolve_workers("lots")
