"""Two-backend bit-identity: VECTOR vs the SCALAR reference.

The vector kernels (column codes + plan arrays + bincount tallies) must
produce exactly the same marked relation, embedding statistics, guard
state, recovered slots and verdicts as the row-at-a-time scalar path —
for both Figure 1 variants, §3.3 place-holder keys with duplicates, §4.5
remapping recovery inputs, constrained guards, the frequency channel, the
multi-attribute closure, and relations of every size down to empty.
"""

from __future__ import annotations

import random

import pytest

from repro.core import (
    Watermark,
    Watermarker,
    embed_pairs,
    make_spec,
    verify,
    verify_pairs,
)
from repro.core import kernels
from repro.core.detection import extract_slots
from repro.core.embedding import embed
from repro.core.frequency import detect_frequency, embed_frequency
from repro.crypto import (
    SCALAR,
    VECTOR,
    HashEngine,
    MarkKey,
    clear_engine_registry,
    get_engine,
)
from repro.datagen import generate_item_scan
from repro.quality import Constraint, MaxAlterationFraction, QualityGuard
from repro.relational import (
    Attribute,
    AttributeType,
    CategoricalDomain,
    Schema,
    Table,
)

BACKENDS = (SCALAR, VECTOR)


@pytest.fixture
def key() -> MarkKey:
    return MarkKey.from_seed("vector-equivalence")


@pytest.fixture
def watermark() -> Watermark:
    return Watermark.from_int(0b1011001110, 10)


@pytest.fixture
def relation() -> Table:
    return generate_item_scan(1500, item_count=40, seed=11)


@pytest.fixture
def placeholder_table() -> Table:
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
        for i in range(900)
    ]
    return Table(schema, rows, name="placeholder")


def _embed_stats(result):
    return (
        result.fit_count,
        result.applied,
        result.vetoed,
        result.unchanged,
        result.slots_written,
        result.embedding_map,
    )


@pytest.mark.parametrize("variant", ["keyed", "map"])
def test_embed_and_extract_bit_identical(relation, watermark, key, variant):
    spec = make_spec(relation, watermark, "Item_Nbr", e=20, variant=variant)
    tables, stats, slot_sets = [], [], []
    for backend in BACKENDS:
        table = relation.clone()
        result = embed(table, watermark, key, spec, engine=backend)
        kwargs = {"embedding_map": result.embedding_map}
        slot_sets.append(
            extract_slots(table, key, spec, engine=backend, **kwargs)
        )
        tables.append(list(table))
        stats.append(_embed_stats(result))
    assert tables[0] == tables[1]
    assert stats[0] == stats[1]
    assert slot_sets[0] == slot_sets[1]


@pytest.mark.parametrize("variant", ["keyed", "map"])
def test_placeholder_duplicates_bit_identical(
    placeholder_table, watermark, key, variant
):
    """§3.3 place-holder keys: grouped carriers, per-group noops, and the
    batched write-back must agree with the per-cell reference."""
    spec = make_spec(
        placeholder_table, watermark, mark_attribute="B", e=2,
        key_attribute="A", variant=variant,
    )
    tables, stats, guards = [], [], []
    for backend in BACKENDS:
        table = placeholder_table.clone()
        guard = QualityGuard([])
        guard.bind(table)
        result = embed(
            table, watermark, key, spec, guard=guard, engine=backend
        )
        tables.append(list(table))
        stats.append(_embed_stats(result))
        guards.append(guard)
    assert tables[0] == tables[1]
    assert stats[0] == stats[1]
    # The fast-path batched write-back must leave the guard's log, report
    # and incremental statistics exactly as the per-cell path does.
    reference, guard = guards
    assert guard.log.entries == reference.log.entries
    assert guard.report.applied == reference.report.applied
    assert guard.report.noop == reference.report.noop
    assert guard.context.change_count == reference.context.change_count
    assert guard.context.count_deltas == reference.context.count_deltas


def test_constrained_guard_vetoes_identically(
    placeholder_table, watermark, key
):
    class VetoEveryThird(Constraint):
        name = "veto-3rd"

        def __init__(self):
            self.proposals = 0

        def violated(self, context):
            self.proposals += 1
            return "every third" if self.proposals % 3 == 0 else None

    spec = make_spec(
        placeholder_table, watermark, mark_attribute="B", e=1,
        key_attribute="A", variant="map",
    )
    outcomes = []
    for backend in BACKENDS:
        table = placeholder_table.clone()
        guard = QualityGuard([VetoEveryThird()])
        guard.bind(table)
        result = embed(
            table, watermark, key, spec, guard=guard, engine=backend
        )
        assert guard.report.vetoed > 0  # the constraint actually fired
        outcomes.append(
            (list(table), _embed_stats(result), guard.log.entries,
             guard.report.vetoed)
        )
    assert outcomes[0] == outcomes[1]


def test_remap_recovery_inputs_identical(placeholder_table, watermark, key):
    """Domain overrides + partial value_mapping (the §4.5 recovery path)
    decode identically, including out-of-domain skips."""
    spec = make_spec(
        placeholder_table, watermark, mark_attribute="B", e=2,
        key_attribute="A", variant="keyed",
    )
    marked = placeholder_table.clone()
    embed(marked, watermark, key, spec, engine=SCALAR)
    forward = {f"b{i}": f"z{i}" for i in range(8)}
    inverse = {f"z{i}": f"b{i}" for i in range(0, 8, 2)}  # partial
    remapped_schema = Schema(
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
                CategoricalDomain([f"z{i}" for i in range(8)]),
            ),
        ),
        primary_key="K",
    )
    remapped = Table(
        remapped_schema,
        [(k, a, forward[b]) for k, a, b in marked],
        name="remapped",
    )
    domain = CategoricalDomain([f"b{i}" for i in range(8)])
    recovered = [
        extract_slots(
            remapped, key, spec, domain=domain, value_mapping=inverse,
            engine=backend,
        )
        for backend in BACKENDS
    ]
    assert recovered[0] == recovered[1]


def test_watermarker_verdicts_identical(relation, watermark, key):
    verdicts = []
    for backend in BACKENDS:
        clear_engine_registry()
        marker = Watermarker(key, e=25, engine=backend)
        outcome = marker.embed(relation, watermark, "Item_Nbr")
        verdict = marker.verify(outcome.table, outcome.record)
        verdicts.append(
            (
                list(outcome.table),
                verdict.association.matching_bits,
                verdict.association.false_hit_probability,
                verdict.association.detected,
            )
        )
    assert verdicts[0] == verdicts[1]
    assert verdicts[0][3] is True


def test_detection_after_attack_identical(relation, watermark, key):
    from repro.attacks import SubsetAlterationAttack

    spec = make_spec(relation, watermark, "Item_Nbr", e=20)
    marked = relation.clone()
    embed(marked, watermark, key, spec, engine=SCALAR)
    attacked = SubsetAlterationAttack("Item_Nbr", 0.25).apply(
        marked, random.Random(3)
    )
    reference = extract_slots(attacked, key, spec, engine=SCALAR)
    for _ in range(3):  # warm re-detections stay identical
        assert extract_slots(
            attacked, key, spec, engine=VECTOR
        ) == reference


def test_frequency_channel_identical(relation, watermark, key):
    """The bincount-over-codes histogram path (taken when a fresh
    factorization is cached) is bit-identical to the Counter pass."""
    results = []
    for warm_codes in (False, True):
        table = relation.clone()
        if warm_codes:
            table.column_codes("Item_Nbr")  # embed reads counts pre-write
        outcome = embed_frequency(table, watermark, key, "Item_Nbr")
        if warm_codes:
            table.column_codes("Item_Nbr")  # re-factorize post-relabelling
        detected = detect_frequency(table, key, outcome.record)
        results.append(
            (
                list(table),
                outcome.target_counts,
                outcome.relabelled,
                detected.bits,
            )
        )
    assert results[0] == results[1]


def test_multiattribute_identical(relation, watermark, key):
    outcomes = []
    for backend in BACKENDS:
        clear_engine_registry()
        table = relation.clone()
        embedding = embed_pairs(table, watermark, key, e=10, backend=backend)
        verification = verify_pairs(
            table, key, embedding, watermark, backend=backend
        )
        outcomes.append(
            (
                list(table),
                {
                    label: _embed_stats(result)
                    for label, result in embedding.passes.items()
                },
                {
                    label: result.matching_bits
                    for label, result in verification.per_pair.items()
                },
            )
        )
    assert outcomes[0] == outcomes[1]


TINY_CASES = (
    "empty",
    "one-row",
    "256-rows",
    "no-carriers",
    "map-variant",
    "placeholder-duplicates",
    "constrained-guard",
)


def _tiny_case(name, relation, placeholder_table, watermark):
    """``(table, spec, constraints)`` for one relation far below any size
    where array setup used to be thought not worth it."""
    keyed = make_spec(relation, watermark, "Item_Nbr", e=20)
    small = placeholder_table.take(range(120))
    placeholder = make_spec(
        small, watermark, mark_attribute="B", e=2, key_attribute="A",
    )
    cases = {
        "empty": (relation.take(range(0)), keyed, None),
        "one-row": (relation.take(range(1)), keyed, None),
        "256-rows": (relation.take(range(256)), keyed, None),
        "no-carriers": (
            relation.take(range(256)),
            make_spec(relation, watermark, "Item_Nbr", e=10**9,
                      channel_length=10),
            None,
        ),
        "map-variant": (
            relation.take(range(256)),
            make_spec(relation, watermark, "Item_Nbr", e=20, variant="map"),
            None,
        ),
        "placeholder-duplicates": (small, placeholder, None),
        "constrained-guard": (
            small, placeholder, lambda: [MaxAlterationFraction(0.05)],
        ),
    }
    return cases[name]


def _embed_and_verify(table, spec, constraints, watermark, key, backend):
    """Embed into a clone of ``table`` and verify it, both on ``backend``;
    returns everything the two backends must agree on."""
    marked = table.clone()
    guard = QualityGuard(constraints() if constraints else [])
    guard.bind(marked)
    result = embed(marked, watermark, key, spec, guard=guard, engine=backend)
    verdict = verify(
        marked, key, spec, watermark,
        embedding_map=result.embedding_map, engine=backend,
    )
    return (
        list(marked),
        _embed_stats(result),
        guard.log.entries,
        verdict.detection.fit_count,
        verdict.detection.decode.bits,
        verdict.matching_bits,
    )


@pytest.mark.parametrize("case", TINY_CASES)
def test_default_backend_runs_vector_on_tiny_relations(
    relation, placeholder_table, watermark, key, case
):
    """With no backend argument, every relation size — the empty one
    included — launches the vector kernels and matches SCALAR cell for
    cell: there is no size threshold below which another path runs."""
    table, spec, constraints = _tiny_case(
        case, relation, placeholder_table, watermark
    )
    outcomes = []
    for backend in (SCALAR, None):
        clear_engine_registry()
        kernels.reset_kernel_calls()
        outcomes.append(
            _embed_and_verify(table, spec, constraints, watermark, key, backend)
        )
        launches = dict(kernels.KERNEL_CALLS)
        if backend is None:
            assert launches["embed"] == 1
            assert launches["detect"] == 1
        else:
            assert not any(launches.values())
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("variant", ["keyed", "map"])
def test_explicit_engine_instance_runs_vector(
    relation, watermark, key, variant
):
    """An explicit :class:`HashEngine` runs the vector kernels on that very
    instance: its caches fill, the shared registry engine stays cold, and
    the outcome matches SCALAR cell for cell."""
    table = relation.take(range(300))
    spec = make_spec(relation, watermark, "Item_Nbr", e=20, variant=variant)
    reference = _embed_and_verify(table, spec, None, watermark, key, SCALAR)
    clear_engine_registry()
    kernels.reset_kernel_calls()
    engine = HashEngine(key)
    outcome = _embed_and_verify(table, spec, None, watermark, key, engine)
    assert outcome == reference
    assert kernels.KERNEL_CALLS["embed"] == 1
    assert kernels.KERNEL_CALLS["detect"] == 1
    assert engine.plan_arrays_built > 0
    assert engine.computed_digests > 0
    assert get_engine(key).computed_digests == 0
