"""Equivalence suite: code-level attack backend vs the row reference.

The ``codes`` attack backend (batched ``apply_codes`` / ``take`` /
``append_rows`` / ``with_mapped_column`` writes over ``int32`` column
codes) must be **bit-identical** to the historical per-row path for every
attack that implements it, under the exact same
``random.Random(f"attack:{seed}:{x}")`` draw sequence — including the
pk-collision and empty-subset edge cases — and the attacked relations
must then detect identically on both execution backends.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.attacks import (
    ATTACK_CODES,
    ATTACK_ROWS,
    BijectiveRemapAttack,
    DataLossAttack,
    HorizontalPartitionAttack,
    PermutationRemapAttack,
    SubsetAdditionAttack,
    SubsetAlterationAttack,
)
from repro.core import Watermark, Watermarker
from repro.crypto import SCALAR, VECTOR, MarkKey
from repro.datagen import generate_item_scan
from repro.relational import (
    DuplicateKeyError,
    Table,
    make_categorical_attribute,
)
from repro.relational.schema import Attribute, Schema
from repro.relational.types import AttributeType


def _rng(x: float = 0.5, seed: int = 3) -> random.Random:
    return random.Random(f"attack:{seed}:{x}")


def _string_pk_table() -> Table:
    """String primary keys (exercises _fresh_keys' string branch) plus a
    non-key column with heavy duplication."""
    schema = Schema(
        (
            Attribute("tag", AttributeType.STRING),
            make_categorical_attribute("colour", ["red", "green", "blue"]),
        ),
        primary_key="tag",
    )
    rows = [
        (f"row-{i:03d}", ["red", "green", "blue", "green"][i % 4])
        for i in range(60)
    ]
    return Table(schema, rows, name="tags")


def _assert_same_relation(first: Table, second: Table) -> None:
    """Bit-identical: schema, name, physical order, every cell."""
    assert first.schema == second.schema
    assert first.name == second.name
    assert list(first) == list(second)


ATTACK_CASES = [
    ("alteration", lambda: SubsetAlterationAttack("Item_Nbr", 0.5, 0.7)),
    ("alteration-certain", lambda: SubsetAlterationAttack("Item_Nbr", 0.3, 1.0)),
    ("alteration-empty", lambda: SubsetAlterationAttack("Item_Nbr", 0.0, 0.7)),
    ("alteration-never-flips", lambda: SubsetAlterationAttack("Item_Nbr", 0.4, 0.0)),
    ("horizontal", lambda: HorizontalPartitionAttack(0.4)),
    ("horizontal-keep-all", lambda: HorizontalPartitionAttack(1.0)),
    ("loss", lambda: DataLossAttack(0.6)),
    ("loss-none", lambda: DataLossAttack(0.0)),
    ("addition", lambda: SubsetAdditionAttack(0.5)),
    ("addition-empty", lambda: SubsetAdditionAttack(0.0)),
    ("remap", lambda: BijectiveRemapAttack("Item_Nbr")),
    ("permute", lambda: PermutationRemapAttack("Item_Nbr")),
]


@pytest.fixture(scope="module")
def base_table() -> Table:
    return generate_item_scan(700, item_count=60, seed=11)


@pytest.fixture(scope="module")
def marked_table(base_table) -> Table:
    """A watermarked clone with warm codes — the sweep-cell input shape."""
    marker = Watermarker(MarkKey.from_seed("codes-eq"), e=20, engine=VECTOR)
    outcome = marker.embed(
        base_table, Watermark.from_int(0x2AB, 10), "Item_Nbr"
    )
    outcome.table.column_codes("Item_Nbr")
    return outcome.table


class TestRowsCodesEquivalence:
    @pytest.mark.parametrize(
        "label, factory", ATTACK_CASES, ids=[c[0] for c in ATTACK_CASES]
    )
    def test_bit_identical_on_warm_codes(self, marked_table, label, factory):
        attack = factory()
        attack.backend = ATTACK_ROWS
        via_rows = attack.apply(marked_table, _rng())
        attack.backend = ATTACK_CODES
        via_codes = attack.apply(marked_table, _rng())
        _assert_same_relation(via_rows, via_codes)

    @pytest.mark.parametrize(
        "label, factory", ATTACK_CASES, ids=[c[0] for c in ATTACK_CASES]
    )
    def test_bit_identical_on_cold_table(self, base_table, label, factory):
        """No cached factorization: the codes path factorizes itself."""
        attack = factory()
        cold = base_table.clone(name=base_table.name)  # cache-free twin
        attack.backend = ATTACK_ROWS
        via_rows = attack.apply(cold, _rng(0.7, seed=9))
        attack.backend = ATTACK_CODES
        via_codes = attack.apply(cold, _rng(0.7, seed=9))
        _assert_same_relation(via_rows, via_codes)

    def test_auto_backend_picks_codes_and_matches(self, marked_table):
        attack = SubsetAlterationAttack("Item_Nbr", 0.4, 0.7)
        assert attack.backend == "auto"
        auto = attack.apply(marked_table, _rng())
        attack.backend = ATTACK_ROWS
        rows = attack.apply(marked_table, _rng())
        _assert_same_relation(auto, rows)

    def test_string_pk_addition(self):
        """The pk-fresh-key string branch draws and lands identically."""
        table = _string_pk_table()
        attack = SubsetAdditionAttack(0.8)
        attack.backend = ATTACK_ROWS
        via_rows = attack.apply(table, _rng(1.0, seed=2))
        attack.backend = ATTACK_CODES
        via_codes = attack.apply(table, _rng(1.0, seed=2))
        _assert_same_relation(via_rows, via_codes)
        assert len(via_codes) == len(table) + round(0.8 * len(table))

    def test_codes_attack_keeps_factorizations_warm(self, marked_table):
        """The point of the fast path: the attacked clone re-detects on a
        *fresh* factorization without rebuilding it."""
        key_codes = marked_table.column_codes("Visit_Nbr")
        attack = SubsetAlterationAttack("Item_Nbr", 0.5, 0.7)
        attack.backend = ATTACK_CODES
        attacked = attack.apply(marked_table, _rng())
        # Key column untouched: the very same factorization object.
        assert attacked.column_codes("Visit_Nbr", build=False) is key_codes
        # Mark column rewritten: a fresh factorization was installed by
        # apply_codes (no rebuild needed), identical to a cold scan.
        installed = attacked.column_codes("Item_Nbr", build=False)
        assert installed is not None
        rebuilt = attacked.clone().column_codes("Item_Nbr")
        assert installed.uniques == rebuilt.uniques
        assert installed.codes.tolist() == rebuilt.codes.tolist()

    def test_take_keeps_subset_factorizations_canonical(self, marked_table):
        attack = DataLossAttack(0.5)
        attack.backend = ATTACK_CODES
        attacked = attack.apply(marked_table, _rng())
        for attribute in ("Visit_Nbr", "Item_Nbr"):
            installed = attacked.column_codes(attribute, build=False)
            assert installed is not None
            rebuilt = attacked.clone().column_codes(attribute)
            assert installed.uniques == rebuilt.uniques
            assert installed.codes.tolist() == rebuilt.codes.tolist()

    def test_append_rows_extends_factorizations(self, marked_table):
        attack = SubsetAdditionAttack(0.3)
        attack.backend = ATTACK_CODES
        attacked = attack.apply(marked_table, _rng())
        for attribute in ("Visit_Nbr", "Item_Nbr"):
            installed = attacked.column_codes(attribute, build=False)
            assert installed is not None
            rebuilt = attacked.clone().column_codes(attribute)
            assert installed.uniques == rebuilt.uniques
            assert installed.codes.tolist() == rebuilt.codes.tolist()

    def test_attacks_never_mutate_the_input(self, marked_table):
        snapshot = list(marked_table)
        for _, factory in ATTACK_CASES:
            attack = factory()
            attack.backend = ATTACK_CODES
            attack.apply(marked_table, _rng())
        assert list(marked_table) == snapshot


class TestDetectionBackendsOnAttacked:
    """Attacked relations verify identically on SCALAR and VECTOR,
    whichever attack backend produced them."""

    @pytest.mark.parametrize("attack_backend", [ATTACK_ROWS, ATTACK_CODES])
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: SubsetAlterationAttack("Item_Nbr", 0.5, 0.7),
            lambda: HorizontalPartitionAttack(0.5),
            lambda: SubsetAdditionAttack(0.4),
            lambda: PermutationRemapAttack("Item_Nbr"),
        ],
        ids=["alteration", "horizontal", "addition", "permute"],
    )
    def test_backend_verdicts_match(
        self, base_table, factory, attack_backend
    ):
        marker = Watermarker(MarkKey.from_seed("codes-eq-3b"), e=20)
        outcome = marker.embed(
            base_table, Watermark.from_int(0x155, 10), "Item_Nbr"
        )
        attack = factory()
        attack.backend = attack_backend
        attacked = attack.apply(outcome.table, _rng(0.5, seed=7))
        verdicts = []
        for backend in (SCALAR, VECTOR):
            checker = Watermarker(
                MarkKey.from_seed("codes-eq-3b"), e=20, engine=backend
            )
            result = checker.verify(attacked, outcome.record).association
            verdicts.append(
                (
                    result.matching_bits,
                    result.false_hit_probability,
                    result.detection.fit_count,
                    result.detection.slots_recovered,
                    result.detection.watermark.bits,
                )
            )
        assert verdicts[0] == verdicts[1]


class TestTableBatchPrimitives:
    def test_append_rows_rejects_pk_collision_atomically(self, base_table):
        table = base_table.clone()
        existing_key = next(iter(table.keys()))
        item = table.column_view("Item_Nbr")[0]
        version = table.version
        with pytest.raises(DuplicateKeyError):
            table.append_rows(
                [(existing_key + 10**9, item), (existing_key, item)]
            )
        assert table.version == version
        assert len(table) == len(base_table)

    def test_append_rows_rejects_in_batch_duplicates(self, base_table):
        table = base_table.clone()
        item = table.column_view("Item_Nbr")[0]
        version = table.version
        with pytest.raises(DuplicateKeyError):
            table.append_rows([(10**9 + 1, item), (10**9 + 1, item)])
        assert table.version == version

    def test_apply_codes_rejects_stale_base(self, marked_table):
        table = marked_table.clone()
        base = table.column_codes("Item_Nbr")
        table.set_value(next(iter(table.keys())), "Item_Nbr", base.uniques[0])
        with pytest.raises(ValueError):
            table.apply_codes("Item_Nbr", [0], [0], base)

    def test_apply_codes_rejects_primary_key(self, marked_table):
        table = marked_table.clone()
        from repro.relational import SchemaError

        with pytest.raises(SchemaError):
            table.apply_codes(
                "Visit_Nbr", [0], [0], table.column_codes("Visit_Nbr")
            )

    def test_with_mapped_column_non_injective_keeps_codes_sound(
        self, base_table
    ):
        """A merging (non-injective) mapping must not install codes with
        duplicate uniques — downstream codes consumers assume distinct."""
        table = base_table.clone()
        domain = table.schema.attribute("Item_Nbr").domain
        first, second = domain.values[0], domain.values[1]
        mapping = {value: value for value in domain.values}
        mapping[first] = second  # merge two values
        table.column_codes("Item_Nbr")
        mapped = table.with_mapped_column("Item_Nbr", mapping)
        installed = mapped.column_codes("Item_Nbr", build=False)
        if installed is not None:
            assert len(set(installed.uniques)) == len(installed.uniques)
        rebuilt = mapped.clone().column_codes("Item_Nbr")
        assert len(set(rebuilt.uniques)) == len(rebuilt.uniques)
        assert mapped.column_view("Item_Nbr").count(first) == 0

    def test_take_rejects_out_of_range(self, marked_table):
        with pytest.raises(IndexError):
            marked_table.take([0, len(marked_table)])

    def test_take_is_copy_on_write(self, base_table):
        table = base_table.clone()
        subset = table.take([0, 1, 2])
        key = next(iter(subset.keys()))
        original = table.value(key, "Item_Nbr")
        replacement = next(
            value
            for value in table.schema.attribute("Item_Nbr").domain.values
            if value != original
        )
        subset.set_value(key, "Item_Nbr", replacement)
        # the parent cell is untouched by the subset's write
        assert subset.value(key, "Item_Nbr") == replacement
        assert table.value(key, "Item_Nbr") == original


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    x=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    kind=st.sampled_from(
        ["alteration", "horizontal", "loss", "addition", "remap", "permute"]
    ),
    size=st.integers(min_value=0, max_value=80),
)
def test_property_rows_codes_bit_identical(seed, x, kind, size):
    """All four attack families, arbitrary strengths and table sizes."""
    table = generate_item_scan(size, item_count=12, seed=seed % 17)
    if kind == "alteration":
        attack = SubsetAlterationAttack("Item_Nbr", x, 0.7)
    elif kind == "horizontal":
        attack = HorizontalPartitionAttack(max(x, 1e-9))
    elif kind == "loss":
        attack = DataLossAttack(min(x, 1.0 - 1e-9))
    elif kind == "addition":
        attack = SubsetAdditionAttack(x)
    elif kind == "remap":
        attack = BijectiveRemapAttack("Item_Nbr")
    else:
        attack = PermutationRemapAttack("Item_Nbr")
    attack.backend = ATTACK_ROWS
    via_rows = attack.apply(table, _rng(x, seed))
    attack.backend = ATTACK_CODES
    via_codes = attack.apply(table, _rng(x, seed))
    _assert_same_relation(via_rows, via_codes)
