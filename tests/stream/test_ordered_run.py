"""The one ordered chunk loop: in-process contract, chunk release, faults.

``workers=None`` and ``workers=1`` run the same ordered loop as a pool
run, in process: no pool, no pickled run state, no pool fallback.  These
tests pin that contract, that a run releases chunk 0 once it commits (the
read-ahead must not pin it for the rest of the run), and that every
entry point fires the ``pipeline.chunk`` fault point after each
committed chunk.
"""

import gc
import weakref

import pytest

from repro import MarkKey, Watermark, Watermarker
from repro.core import EmbeddingSpec, verify
from repro.crypto import HashEngine
from repro.datagen import generate_item_scan
from repro.quality import MaxAlterationFraction
from repro.reliability import (
    IO_ERROR,
    NO_RETRY,
    FaultPlan,
    InjectedFaultError,
)
from repro.reliability.pool import PersistentPool
from repro.stream import (
    ChunkSource,
    StreamError,
    TableChunkSink,
    TableChunkSource,
    shutdown_stream_pool,
    stream_detect,
    stream_mark,
    stream_verify,
    stream_verify_multipass,
)
from repro.stream import parallel

E = 40
CHANNEL = 60
CHUNK = 150


@pytest.fixture(scope="module", autouse=True)
def _pool_teardown():
    yield
    shutdown_stream_pool()


@pytest.fixture(scope="module")
def base():
    return generate_item_scan(1200, item_count=80, seed=41)


@pytest.fixture(scope="module")
def key():
    return MarkKey.from_seed("ordered-run")


@pytest.fixture(scope="module")
def wm():
    return Watermark.from_int(0x1D3, 10)


@pytest.fixture(scope="module")
def spec():
    return EmbeddingSpec("Visit_Nbr", "Item_Nbr", E, 10, CHANNEL)


@pytest.fixture(scope="module")
def marked(base, key, wm):
    return Watermarker(key, e=E).embed(
        base, wm, "Item_Nbr", channel_length=CHANNEL
    ).table


def _pool_fault():
    """A pool-worker fault that would spend a ``NO_RETRY`` budget — if
    the run had a pool to fire it in."""
    return FaultPlan().add("pool.worker", IO_ERROR, at=0)


# -- in process ----------------------------------------------------------------

@pytest.fixture()
def no_pool(monkeypatch):
    """Make creating a pool or pickling run state fail loudly."""
    def forbidden(*args, **kwargs):
        raise AssertionError("the in-process run touched the pool")

    monkeypatch.setattr(PersistentPool, "ensure", forbidden)
    monkeypatch.setattr(parallel, "_run_blob", forbidden)


@pytest.mark.parametrize("workers", [None, 1])
class TestInProcess:
    def test_mark_with_engine_and_constraints(
        self, no_pool, base, key, wm, spec, marked, workers
    ):
        plan = _pool_fault()
        sink = TableChunkSink()
        with plan.armed():
            result = stream_mark(
                TableChunkSource(base, chunk_size=CHUNK), wm, key, spec,
                sink, backend=HashEngine(key),
                constraints_factory=lambda: [MaxAlterationFraction(1.0)],
                retry=NO_RETRY, workers=workers,
            )
        assert list(sink.table) == list(marked)
        assert result.chunks == len(base) // CHUNK
        assert result.parallel is None
        assert result.reliability.pool_fallbacks == 0
        assert plan.pending() == 1

    def test_verify(self, no_pool, key, wm, spec, marked, workers):
        plan = _pool_fault()
        with plan.armed():
            streamed = stream_verify(
                TableChunkSource(marked, chunk_size=CHUNK), key, spec, wm,
                retry=NO_RETRY, workers=workers,
            )
        in_memory = verify(marked, key, spec, wm)
        assert streamed.verification == in_memory
        assert streamed.rows == len(marked)
        assert streamed.parallel is None
        assert streamed.reliability.pool_fallbacks == 0
        assert plan.pending() == 1

    def test_verify_multipass(self, no_pool, key, wm, spec, marked, workers):
        keys = [key, MarkKey.from_seed("ordered-run-other")]
        results = stream_verify_multipass(
            TableChunkSource(marked, chunk_size=CHUNK), keys, spec,
            [wm, wm], workers=workers,
        )
        for got, pass_key in zip(results, keys):
            want = verify(marked, pass_key, spec, wm)
            assert got == want


def test_pool_runs_still_refuse_engine_and_constraints(base, key, wm, spec):
    source = TableChunkSource(base, chunk_size=CHUNK)
    with pytest.raises(StreamError, match="HashEngine"):
        stream_mark(
            source, wm, key, spec, TableChunkSink(), workers=2,
            backend=HashEngine(key),
        )
    with pytest.raises(StreamError, match="constraints"):
        stream_mark(
            source, wm, key, spec, TableChunkSink(), workers=2,
            constraints_factory=lambda: [MaxAlterationFraction(1.0)],
        )
    with pytest.raises(StreamError, match="HashEngine"):
        stream_detect(source, key, spec, workers=2, backend=HashEngine(key))


# -- chunk release -------------------------------------------------------------

class LazySource(ChunkSource):
    """Builds each chunk on demand; before building the last one, records
    whether chunk 0 is still alive anywhere."""

    trusted_rows = True

    def __init__(self, table, chunk_size):
        self.table = table
        self.schema = table.schema
        self.chunk_size = chunk_size
        self.name = "lazy"
        self.chunk0 = None
        self.chunk0_alive_at_last_read = None

    def chunks(self, start=0):
        begins = range(0, len(self.table), self.chunk_size)
        for index in range(start, len(begins)):
            if index == len(begins) - 1:
                gc.collect()
                self.chunk0_alive_at_last_read = self.chunk0() is not None
            begin = begins[index]
            chunk = self.table.take(
                range(begin, min(begin + self.chunk_size, len(self.table))),
                name=f"lazy[{index}]",
            )
            if index == 0:
                self.chunk0 = weakref.ref(chunk)
            yield chunk


class SchemalessChunks:
    """The same chunks as a plain iterable: no schema, so the run pins
    the domain from the first chunk it reads."""

    def __init__(self, table, chunk_size):
        self.inner = LazySource(table, chunk_size)

    def __iter__(self):
        return self.inner.chunks()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("kind", [LazySource, SchemalessChunks])
def test_chunk_zero_is_released_before_the_last_chunk(
    marked, key, spec, workers, kind
):
    expected = stream_detect(
        TableChunkSource(marked, chunk_size=CHUNK), key, spec
    )
    source = kind(marked, CHUNK)
    probe = source if isinstance(source, LazySource) else source.inner
    result = stream_detect(source, key, spec, workers=workers)
    assert result.votes == expected.votes
    assert result.chunks == len(marked) // CHUNK == 8
    assert probe.chunk0_alive_at_last_read is False


# -- the pipeline.chunk fault point ------------------------------------------

@pytest.mark.parametrize("multipass", [False, True])
def test_chunk_fault_stops_every_detect_entry_point(
    marked, key, wm, spec, multipass
):
    plan = FaultPlan().add("pipeline.chunk", IO_ERROR, at=1)
    source = TableChunkSource(marked, chunk_size=CHUNK)
    with plan.armed(), pytest.raises(InjectedFaultError) as excinfo:
        if multipass:
            stream_verify_multipass(source, [key], spec, [wm], workers=1)
        else:
            stream_verify(source, key, spec, wm, workers=1)
    assert (excinfo.value.label, excinfo.value.index) == ("pipeline.chunk", 1)
    assert plan.fired == [("pipeline.chunk", 1, IO_ERROR)]
