"""End-to-end bit-identity: engine-backed embed/detect vs scalar reference.

The batched columnar fast path must produce *exactly* the same marked
relation, the same embedding statistics, and the same recovered slots as
the row-at-a-time scalar implementation — for both Figure 1 variants and
for §3.3 place-holder keys with duplicate values.
"""

from __future__ import annotations

import random

import pytest

from repro.core import EmbeddingSpec, Watermark, Watermarker, make_spec
from repro.core.detection import extract_slot_votes, extract_slots
from repro.core.embedding import embed
from repro.crypto import SCALAR, HashEngine, MarkKey, clear_engine_registry
from repro.datagen import generate_item_scan
from repro.relational import (
    Attribute,
    AttributeType,
    CategoricalDomain,
    Schema,
    Table,
)


@pytest.fixture
def key() -> MarkKey:
    return MarkKey.from_seed("equivalence")


@pytest.fixture
def watermark() -> Watermark:
    return Watermark.from_int(0b1011001110, 10)


@pytest.fixture
def relation() -> Table:
    return generate_item_scan(1500, item_count=40, seed=11)


def _embed_both(table, watermark, key, spec):
    scalar_table = table.clone()
    engine_table = table.clone()
    scalar_result = embed(scalar_table, watermark, key, spec, engine=SCALAR)
    engine_result = embed(
        engine_table, watermark, key, spec, engine=HashEngine(key)
    )
    return scalar_table, scalar_result, engine_table, engine_result


@pytest.mark.parametrize("variant", ["keyed", "map"])
def test_embed_is_bit_identical(relation, watermark, key, variant):
    spec = make_spec(
        relation, watermark, "Item_Nbr", e=20, variant=variant
    )
    scalar_table, scalar_result, engine_table, engine_result = _embed_both(
        relation, watermark, key, spec
    )
    assert list(scalar_table) == list(engine_table)
    assert scalar_result.fit_count == engine_result.fit_count
    assert scalar_result.applied == engine_result.applied
    assert scalar_result.vetoed == engine_result.vetoed
    assert scalar_result.unchanged == engine_result.unchanged
    assert scalar_result.slots_written == engine_result.slots_written
    assert scalar_result.embedding_map == engine_result.embedding_map


@pytest.mark.parametrize("variant", ["keyed", "map"])
def test_extract_slots_is_bit_identical(relation, watermark, key, variant):
    spec = make_spec(
        relation, watermark, "Item_Nbr", e=20, variant=variant
    )
    marked = relation.clone()
    result = embed(marked, watermark, key, spec, engine=SCALAR)
    kwargs = {"embedding_map": result.embedding_map}
    scalar_slots = extract_slots(marked, key, spec, engine=SCALAR, **kwargs)
    engine_slots = extract_slots(
        marked, key, spec, engine=HashEngine(key), **kwargs
    )
    assert scalar_slots == engine_slots


def test_placeholder_key_with_duplicates_is_bit_identical(watermark, key):
    """§3.3 place-holder keys: many rows share a key value; grouping order
    and per-distinct-value hashing must agree across back ends."""
    schema = Schema(
        (
            Attribute("K", AttributeType.INTEGER),
            Attribute(
                "A",
                AttributeType.CATEGORICAL,
                CategoricalDomain([f"a{i}" for i in range(12)]),
            ),
            Attribute(
                "B",
                AttributeType.CATEGORICAL,
                CategoricalDomain([f"b{i}" for i in range(8)]),
            ),
        ),
        primary_key="K",
    )
    rng = random.Random(7)
    rows = [
        (i, f"a{rng.randrange(12)}", f"b{rng.randrange(8)}")
        for i in range(800)
    ]
    table = Table(schema, rows, name="placeholder")
    spec = make_spec(
        table, watermark, mark_attribute="B", e=2, key_attribute="A",
        variant="map",
    )
    scalar_table, scalar_result, engine_table, engine_result = _embed_both(
        table, watermark, key, spec
    )
    assert list(scalar_table) == list(engine_table)
    assert scalar_result.embedding_map == engine_result.embedding_map
    kwargs = {"embedding_map": scalar_result.embedding_map}
    assert extract_slots(
        scalar_table, key, spec, engine=SCALAR, **kwargs
    ) == extract_slots(
        engine_table, key, spec, engine=HashEngine(key), **kwargs
    )


def test_full_pipeline_verdicts_agree(relation, watermark, key):
    clear_engine_registry()
    scalar_marker = Watermarker(key, e=25, engine=SCALAR)
    engine_marker = Watermarker(key, e=25)
    scalar_outcome = scalar_marker.embed(relation, watermark, "Item_Nbr")
    engine_outcome = engine_marker.embed(relation, watermark, "Item_Nbr")
    assert list(scalar_outcome.table) == list(engine_outcome.table)
    cross_a = scalar_marker.verify(engine_outcome.table, scalar_outcome.record)
    cross_b = engine_marker.verify(scalar_outcome.table, engine_outcome.record)
    assert cross_a.association.matching_bits == \
        cross_b.association.matching_bits
    assert cross_a.association.detected and cross_b.association.detected


def test_detection_after_attack_agrees(relation, watermark, key):
    from repro.attacks import SubsetAlterationAttack

    spec = make_spec(relation, watermark, "Item_Nbr", e=20)
    marked = relation.clone()
    embed(marked, watermark, key, spec, engine=SCALAR)
    attacked = SubsetAlterationAttack("Item_Nbr", 0.25).apply(
        marked, random.Random(3)
    )
    engine = HashEngine(key)
    # repeated warm detections stay identical to the scalar reference
    reference = extract_slots(attacked, key, spec, engine=SCALAR)
    for _ in range(3):
        assert extract_slots(attacked, key, spec, engine=engine) == reference


def test_shared_engine_keeps_equal_comparing_keys_apart():
    """An INTEGER-keyed relation detected on the shared engine right after
    a REAL-keyed one holding the same numbers as floats (``1.0 == 1``)
    still matches SCALAR: no float's digest answers for an int."""
    key = MarkKey.from_seed(3)
    spec = EmbeddingSpec("K", "A", e=3, watermark_length=4, channel_length=16)
    domain = CategoricalDomain(["a", "b", "c", "d"])

    def relation(atype, cast):
        schema = Schema(
            [
                Attribute("K", atype),
                Attribute("A", AttributeType.CATEGORICAL, domain),
            ],
            "K",
        )
        return Table(
            schema, [(cast(i), "abcd"[i % 4]) for i in range(1, 2001)]
        )

    integers = relation(AttributeType.INTEGER, int)
    reals = relation(AttributeType.REAL, float)
    clear_engine_registry()
    for table in (reals, integers):
        vector = extract_slot_votes(table, key, spec)
        assert vector == extract_slot_votes(table, key, spec, engine=SCALAR)
