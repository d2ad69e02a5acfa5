"""Parallel streaming is bit-identical to serial and in-memory detection.

The multicore PR's acceptance bar: for every worker count, every
chunking and every backend, ``stream_verify(workers=N)`` must reproduce
the in-memory :func:`repro.core.verify` output exactly — decoded
payload, per-slot votes (including the global first-vote tie rule,
which only holds if tallies merge in chunk order regardless of which
worker finished first), fit counts, matching bits and false-hit
probability.  Tiny domains and channels force heavy slot collisions and
frequent ties, exactly where an unordered merge would diverge.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import MarkKey, Watermark
from repro.core import EmbeddingSpec, extract_slots, verify, verify_multipass
from repro.crypto import SCALAR, VECTOR
from repro.relational import (
    Attribute,
    AttributeType,
    CategoricalDomain,
    Schema,
    Table,
)
from repro.stream import (
    TableChunkSource,
    shutdown_stream_pool,
    stream_verify,
    stream_verify_multipass,
)

_DOMAIN = CategoricalDomain(["a", "b", "c", "d"])

_SCHEMA = Schema(
    (
        Attribute("K", AttributeType.INTEGER),
        Attribute("A", AttributeType.CATEGORICAL, _DOMAIN),
    ),
    primary_key="K",
)

BACKENDS = [SCALAR, VECTOR]
WORKER_COUNTS = [1, 2, 4]


@pytest.fixture(scope="module", autouse=True)
def _pool_teardown():
    yield
    shutdown_stream_pool()


def _table(marks: list[str]) -> Table:
    return Table(_SCHEMA, list(enumerate(marks)), name="prop")


tables = st.lists(
    st.sampled_from(_DOMAIN.values), min_size=1, max_size=60
).map(_table)


def _assert_same_verdict(streamed, in_memory):
    assert streamed.verification.detected == in_memory.detected
    assert streamed.verification.matching_bits == in_memory.matching_bits
    assert (
        streamed.verification.false_hit_probability
        == in_memory.false_hit_probability
    )
    mine, reference = streamed.verification.detection, in_memory.detection
    assert mine.watermark == reference.watermark
    assert mine.decode.bits == reference.decode.bits
    assert mine.decode.confidence == reference.decode.confidence
    assert mine.fit_count == reference.fit_count
    assert mine.slots_recovered == reference.slots_recovered


def test_worker_matrix_bit_identical_to_in_memory():
    """workers x chunking x backend all land on the in-memory verdict.

    ``e=1`` makes every row a carrier and the 5-slot channel piles ~12
    votes per slot over 60 rows, so first-vote tie resolution is
    exercised at nearly every slot — across chunk boundaries *and*
    across worker boundaries.
    """
    marks = [_DOMAIN.values[i % 4] for i in range(60)]
    table = _table(marks)
    key = MarkKey.from_seed("parallel-matrix")
    spec = EmbeddingSpec("K", "A", 1, 4, 5)
    expected = Watermark.from_int(0b0110, 4)
    in_memory = verify(table, key, spec, expected, engine=SCALAR)
    reference_slots = extract_slots(table, key, spec, engine=SCALAR)
    for workers in WORKER_COUNTS:
        for chunk_size, backend in (
            (1, VECTOR),
            (7, SCALAR),
            (7, VECTOR),
            (len(marks), VECTOR),
        ):
            streamed = stream_verify(
                TableChunkSource(table, chunk_size=chunk_size),
                key, spec, expected, backend=backend, workers=workers,
            )
            _assert_same_verdict(streamed, in_memory)
            assert streamed.votes.resolve() == reference_slots
            if workers > 1:
                report = streamed.parallel
                assert report is not None and report.workers == workers
                assert (
                    report.chunks_parallel + report.chunks_serial
                    == streamed.chunks
                )


@settings(max_examples=8, deadline=None)
@given(
    table=tables,
    chunk_size=st.integers(min_value=1, max_value=70),
    e=st.sampled_from([1, 2]),
    seed=st.integers(min_value=0, max_value=50),
)
def test_parallel_verify_property(table, chunk_size, e, seed):
    """Randomized relations: two workers reproduce in-memory exactly."""
    key = MarkKey.from_seed(f"parallel-prop:{seed}")
    spec = EmbeddingSpec("K", "A", e, 4, 5)
    expected = Watermark.from_int(seed % 16, 4)
    in_memory = verify(table, key, spec, expected, engine=SCALAR)
    reference_slots = extract_slots(table, key, spec, engine=SCALAR)
    streamed = stream_verify(
        TableChunkSource(table, chunk_size=chunk_size),
        key, spec, expected, backend=VECTOR, workers=2,
    )
    _assert_same_verdict(streamed, in_memory)
    assert streamed.votes.resolve() == reference_slots


@settings(max_examples=6, deadline=None)
@given(
    table=tables,
    chunk_size=st.integers(min_value=1, max_value=70),
    seed=st.integers(min_value=0, max_value=50),
)
def test_parallel_multipass_property(table, chunk_size, seed):
    """P keyed passes, fused per chunk in the workers, match in-memory."""
    spec = EmbeddingSpec("K", "A", 2, 4, 6)
    keys = [MarkKey.from_seed(f"parallel-mp:{seed}:{p}") for p in range(3)]
    expecteds = [Watermark.from_int((seed + p) % 16, 4) for p in range(3)]
    in_memory = verify_multipass(
        [table] * 3, keys, spec, expecteds, engine=SCALAR
    )
    streamed = stream_verify_multipass(
        TableChunkSource(table, chunk_size=chunk_size),
        keys, spec, expecteds, backend=VECTOR, workers=2,
    )
    for mine, reference in zip(streamed, in_memory):
        assert mine.matching_bits == reference.matching_bits
        assert mine.detection.watermark == reference.detection.watermark
        assert mine.detection.decode.bits == reference.detection.decode.bits
        assert mine.detection.fit_count == reference.detection.fit_count
        assert mine.false_hit_probability == reference.false_hit_probability


def test_parallel_map_variant_matches_in_memory():
    """The map variant survives the worker fan-out too."""
    marks = ["a", "b", "c", "d", "a", "b", "c", "d", "a", "b"]
    table = _table(marks)
    key = MarkKey.from_seed("parallel-map")
    spec = EmbeddingSpec("K", "A", 1, 4, 5, variant="map")
    embedding_map = {k: k % 5 for k in range(len(marks))}
    expected = Watermark.from_int(0b1010, 4)
    in_memory = verify(
        table, key, spec, expected, embedding_map=embedding_map,
        engine=SCALAR,
    )
    for workers in (2, 4):
        for chunk_size in (1, 3, len(marks)):
            streamed = stream_verify(
                TableChunkSource(table, chunk_size=chunk_size),
                key, spec, expected, embedding_map=embedding_map,
                backend=VECTOR, workers=workers,
            )
            _assert_same_verdict(streamed, in_memory)
