"""Chunked detection is bit-identical to in-memory detection.

The subsystem's defining invariant (and the acceptance bar of the
streaming PR): for *any* chunking of a relation — size 1, ragged, whole
table — and every execution backend, ``stream_verify`` must reproduce the
in-memory :func:`repro.core.verify` output exactly: decoded payload,
per-slot votes (including first-vote tie resolution), fit counts,
matching bits and false-hit probability.  A hypothesis property drives
randomized relations whose tiny domains and channels force heavy slot
collisions and frequent ties — exactly the cases where a sloppy merge
rule would diverge.
"""

from hypothesis import given, settings, strategies as st

from repro import MarkKey, Watermark
from repro.core import (
    EmbeddingSpec,
    SlotVotes,
    VoteAccumulator,
    extract_slot_votes,
    extract_slots,
    verify,
    verify_multipass,
)
from repro.crypto import SCALAR, VECTOR
from repro.relational import (
    Attribute,
    AttributeType,
    CategoricalDomain,
    Schema,
    Table,
)
from repro.stream import TableChunkSource, stream_verify, stream_verify_multipass

#: tiny mark domain -> many vote collisions per slot
_DOMAIN = CategoricalDomain(["a", "b", "c", "d"])

_SCHEMA = Schema(
    (
        Attribute("K", AttributeType.INTEGER),
        Attribute("A", AttributeType.CATEGORICAL, _DOMAIN),
    ),
    primary_key="K",
)

BACKENDS = [SCALAR, VECTOR]


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


@settings(max_examples=40, deadline=None)
@given(
    table=tables,
    chunk_size=st.integers(min_value=1, max_value=70),
    e=st.sampled_from([1, 2, 3]),
    channel_length=st.integers(min_value=4, max_value=8),
    seed=st.integers(min_value=0, max_value=50),
)
def test_streamed_verify_bit_identical_across_chunkings(
    table, chunk_size, e, channel_length, seed
):
    """Every chunking x every backend reproduces the in-memory verdict.

    ``e`` near 1 makes almost every row a carrier and the small channel
    piles several votes per slot, so ties (and their first-vote
    resolution across chunk boundaries) occur constantly.
    """
    key = MarkKey.from_seed(f"stream-prop:{seed}")
    spec = EmbeddingSpec("K", "A", e, 4, channel_length)
    expected = Watermark.from_int(seed % 16, 4)
    in_memory = verify(table, key, spec, expected, engine=SCALAR)
    reference_slots = extract_slots(table, key, spec, engine=SCALAR)
    for backend in BACKENDS:
        streamed = stream_verify(
            TableChunkSource(table, chunk_size=chunk_size),
            key, spec, expected, backend=backend,
        )
        _assert_same_verdict(streamed, in_memory)
        # per-slot resolution, not just the decoded payload
        assert streamed.votes.resolve() == reference_slots


@settings(max_examples=25, deadline=None)
@given(
    table=tables,
    chunk_size=st.integers(min_value=1, max_value=70),
    seed=st.integers(min_value=0, max_value=50),
)
def test_streamed_multipass_bit_identical(table, chunk_size, seed):
    """P keyed passes over one stream match P in-memory verifies."""
    spec = EmbeddingSpec("K", "A", 2, 4, 6)
    keys = [MarkKey.from_seed(f"mp-prop:{seed}:{p}") for p in range(3)]
    expecteds = [Watermark.from_int((seed + p) % 16, 4) for p in range(3)]
    in_memory = verify_multipass(
        [table] * 3, keys, spec, expecteds, engine=SCALAR
    )
    for backend in BACKENDS:
        streamed = stream_verify_multipass(
            TableChunkSource(table, chunk_size=chunk_size),
            keys, spec, expecteds, backend=backend,
        )
        for mine, reference in zip(streamed, in_memory):
            assert mine.matching_bits == reference.matching_bits
            assert mine.detection.watermark == reference.detection.watermark
            assert mine.detection.decode.bits == reference.detection.decode.bits
            assert mine.detection.fit_count == reference.detection.fit_count
            assert (
                mine.false_hit_probability == reference.false_hit_probability
            )


@settings(max_examples=30, deadline=None)
@given(
    table=tables,
    split=st.integers(min_value=0, max_value=60),
    e=st.sampled_from([1, 2]),
    channel_length=st.integers(min_value=4, max_value=8),
)
def test_vote_accumulator_merge_matches_one_shot_scan(
    table, split, e, channel_length
):
    """Merging two half-table tallies equals one whole-table tally."""
    key = MarkKey.from_seed("acc-prop")
    spec = EmbeddingSpec("K", "A", e, 4, channel_length)
    rows = list(table)
    split = min(split, len(rows))
    head = Table(_SCHEMA, rows[:split])
    tail = Table(_SCHEMA, rows[split:])
    accumulator = VoteAccumulator(channel_length)
    for part in (head, tail):
        if len(part):
            accumulator.add(extract_slot_votes(part, key, spec, engine=SCALAR))
    whole = extract_slot_votes(table, key, spec, engine=SCALAR)
    assert accumulator.votes() == whole
    assert accumulator.resolve() == whole.resolve()


class TestMapVariant:
    def test_streamed_map_variant_matches_in_memory(self):
        """The map variant detects through chunked accumulators too."""
        marks = ["a", "b", "c", "d", "a", "b", "c", "d", "a", "b"]
        table = _table(marks)
        key = MarkKey.from_seed("map-prop")
        spec = EmbeddingSpec("K", "A", 1, 4, 5, variant="map")
        embedding_map = {k: k % 5 for k in range(len(marks))}
        expected = Watermark.from_int(0b1010, 4)
        in_memory = verify(
            table, key, spec, expected, embedding_map=embedding_map,
            engine=SCALAR,
        )
        for backend in BACKENDS:
            for chunk_size in (1, 3, len(marks)):
                streamed = stream_verify(
                    TableChunkSource(table, chunk_size=chunk_size),
                    key, spec, expected, embedding_map=embedding_map,
                    backend=backend,
                )
                _assert_same_verdict(streamed, in_memory)


class TestSlotVotesShape:
    def test_from_arrays_round_trip(self):
        import numpy as np

        votes = SlotVotes.from_arrays(
            np.array([1, 0, 2]), np.array([1, 0, 2]),
            np.array([0, -1, 1]), fit_count=6,
        )
        assert votes.total == [2, 0, 4]
        assert votes.first == [0, None, 1]
        assert votes.resolve() == ([0, None, 1], 6)

    def test_tie_resolves_to_first_vote(self):
        votes = SlotVotes(total=[2], ones=[1], first=[1], fit_count=2)
        assert votes.resolve() == ([1], 2)
        votes = SlotVotes(total=[2], ones=[1], first=[0], fit_count=2)
        assert votes.resolve() == ([0], 2)

    def test_accumulator_keeps_earliest_first_vote(self):
        accumulator = VoteAccumulator(1)
        accumulator.add(SlotVotes([1], [1], [1], 1))  # first chunk votes 1
        accumulator.add(SlotVotes([1], [0], [0], 1))  # tie-maker votes 0
        assert accumulator.resolve() == ([1], 2)
