"""Tests for repro.relational.table — the PK-indexed relation."""

import pytest

from repro.relational import (
    Attribute,
    AttributeType,
    CategoricalDomain,
    DomainError,
    DuplicateKeyError,
    MissingKeyError,
    Schema,
    SchemaError,
    Table,
    make_categorical_attribute,
    table_from_columns,
)


class TestInsert:
    def test_insert_and_len(self, tiny_table):
        assert len(tiny_table) == 6

    def test_duplicate_key_rejected(self, tiny_table):
        with pytest.raises(DuplicateKeyError):
            tiny_table.insert((1, "red", "x"))

    def test_type_violation_rejected(self, tiny_schema):
        table = Table(tiny_schema)
        with pytest.raises(Exception):
            table.insert(("one", "red", "x"))

    def test_domain_violation_rejected(self, tiny_table):
        with pytest.raises(DomainError):
            tiny_table.insert((7, "magenta", "x"))

    def test_arity_violation_rejected(self, tiny_table):
        with pytest.raises(SchemaError):
            tiny_table.insert((7, "red"))


class TestReads:
    def test_get_returns_tuple(self, tiny_table):
        assert tiny_table.get(3) == (3, "blue", "z")

    def test_get_missing_key_raises(self, tiny_table):
        with pytest.raises(MissingKeyError):
            tiny_table.get(999)

    def test_value_cell_access(self, tiny_table):
        assert tiny_table.value(2, "A") == "green"

    def test_column_order_matches_iteration(self, tiny_table):
        column = tiny_table.column("A")
        assert column == [row[1] for row in tiny_table]

    def test_contains_key(self, tiny_table):
        assert 1 in tiny_table
        assert 999 not in tiny_table

    def test_keys_iteration(self, tiny_table):
        assert sorted(tiny_table.keys()) == [1, 2, 3, 4, 5, 6]

    def test_rows_where_filters(self, tiny_table):
        reds = list(tiny_table.rows_where(lambda row: row[1] == "red"))
        assert len(reds) == 2


class TestWrites:
    def test_set_value_returns_previous(self, tiny_table):
        previous = tiny_table.set_value(1, "A", "blue")
        assert previous == "red"
        assert tiny_table.value(1, "A") == "blue"

    def test_set_value_validates_domain(self, tiny_table):
        with pytest.raises(DomainError):
            tiny_table.set_value(1, "A", "magenta")

    def test_set_value_missing_key(self, tiny_table):
        with pytest.raises(MissingKeyError):
            tiny_table.set_value(42, "A", "red")

    def test_set_primary_key_reindexes(self, tiny_table):
        tiny_table.set_value(1, "K", 100)
        assert 100 in tiny_table
        assert 1 not in tiny_table
        assert tiny_table.get(100) == (100, "red", "x")

    def test_set_primary_key_to_existing_raises(self, tiny_table):
        with pytest.raises(DuplicateKeyError):
            tiny_table.set_value(1, "K", 2)

    def test_set_primary_key_same_value_noop(self, tiny_table):
        assert tiny_table.set_value(1, "K", 1) == 1

    def test_delete_removes_tuple(self, tiny_table):
        removed = tiny_table.delete(3)
        assert removed == (3, "blue", "z")
        assert 3 not in tiny_table
        assert len(tiny_table) == 5

    def test_delete_missing_raises(self, tiny_table):
        with pytest.raises(MissingKeyError):
            tiny_table.delete(999)

    def test_delete_keeps_index_consistent(self, tiny_table):
        tiny_table.delete(1)  # triggers swap-with-last
        for key in (2, 3, 4, 5, 6):
            assert tiny_table.get(key)[0] == key

    def test_replace_rows_swaps_contents(self, tiny_table):
        tiny_table.replace_rows([(9, "red", "x")])
        assert len(tiny_table) == 1
        assert 9 in tiny_table

    def test_replace_rows_rejects_duplicates(self, tiny_table):
        with pytest.raises(DuplicateKeyError):
            tiny_table.replace_rows([(9, "red", "x"), (9, "blue", "y")])


class TestCloneAndEquality:
    def test_clone_is_independent(self, tiny_table):
        duplicate = tiny_table.clone()
        duplicate.set_value(1, "A", "blue")
        assert tiny_table.value(1, "A") == "red"

    def test_equality_is_order_insensitive(self, tiny_table):
        rows = list(tiny_table)
        shuffled = Table(tiny_table.schema, reversed(rows))
        assert tiny_table == shuffled

    def test_inequality_on_different_contents(self, tiny_table):
        other = tiny_table.clone()
        other.set_value(1, "A", "blue")
        assert tiny_table != other

    def test_with_schema_requires_same_layout(self, tiny_table, tiny_schema):
        other_schema = Schema(
            (Attribute("Z", AttributeType.INTEGER),), primary_key="Z"
        )
        with pytest.raises(SchemaError):
            tiny_table.with_schema(other_schema)


class TestHelpers:
    def test_table_from_columns(self, tiny_schema):
        table = table_from_columns(
            tiny_schema,
            {
                "K": [1, 2],
                "A": ["red", "blue"],
                "B": ["x", "y"],
            },
        )
        assert len(table) == 2
        assert table.get(2) == (2, "blue", "y")

    def test_table_from_columns_ragged_rejected(self, tiny_schema):
        with pytest.raises(SchemaError):
            table_from_columns(
                tiny_schema, {"K": [1], "A": ["red", "blue"], "B": ["x"]}
            )

    def test_table_from_columns_missing_column(self, tiny_schema):
        with pytest.raises(SchemaError):
            table_from_columns(tiny_schema, {"K": [1], "A": ["red"]})

    def test_table_from_columns_copies_the_callers_lists(self, tiny_schema):
        columns = {"K": [1, 2], "A": ["red", "blue"], "B": ["x", "y"]}
        table = table_from_columns(tiny_schema, columns)
        columns["B"][0] = "mutated"
        assert table.column_view("B") == ["x", "y"]

    def test_table_from_columns_falls_back_to_the_row_check(
        self, tiny_schema
    ):
        with pytest.raises(DomainError):
            table_from_columns(
                tiny_schema, {"K": [1], "A": ["purple"], "B": ["x"]}
            )
        with pytest.raises(DuplicateKeyError):
            table_from_columns(
                tiny_schema,
                {"K": [1, 1], "A": ["red", "red"], "B": ["x", "y"]},
            )

    def test_from_columns_leaves_the_gc_as_it_found_it(self, tiny_schema):
        import gc

        columns = [[1, 2], ["red", "blue"], ["x", "y"]]
        was_enabled = gc.isenabled()
        try:
            gc.enable()
            assert len(Table.from_columns(tiny_schema, columns)) == 2
            assert gc.isenabled()
            gc.disable()
            Table.from_columns(tiny_schema, [list(c) for c in columns])
            assert not gc.isenabled()
        finally:
            if was_enabled:
                gc.enable()

    def test_make_categorical_attribute(self):
        attribute = make_categorical_attribute("A", ["a", "b"])
        assert attribute.is_categorical
        assert attribute.domain.size == 2


class TestSetValuesBatch:
    """Batched writes: atomicity, copy-on-write, version accounting."""

    def test_batch_writes_and_single_version_bump(self, tiny_table):
        before = tiny_table.version
        written = tiny_table.set_values("A", [(1, "blue"), (2, "red")])
        assert written == 2
        assert tiny_table.value(1, "A") == "blue"
        assert tiny_table.value(2, "A") == "red"
        assert tiny_table.version == before + 1

    def test_batch_on_shared_clone_privatizes_rows(self, tiny_table):
        clone = tiny_table.clone()
        clone.set_values("A", [(1, "blue"), (3, "red")])
        # The clone sees the new values, the original is untouched.
        assert clone.value(1, "A") == "blue"
        assert clone.value(3, "A") == "red"
        assert tiny_table.value(1, "A") == "red"
        assert tiny_table.value(3, "A") == "blue"
        # And the other direction: writing the original after the batch
        # must not leak into the clone.
        tiny_table.set_values("A", [(2, "cyan")])
        assert clone.value(2, "A") == "green"

    def test_schema_violating_batch_rejected_atomically(self, tiny_table):
        before = tiny_table.version
        with pytest.raises(DomainError):
            tiny_table.set_values(
                "A", [(1, "blue"), (2, "not-a-colour"), (3, "red")]
            )
        # Nothing applied — not even the valid leading write — and no
        # cache invalidation happened.
        assert tiny_table.value(1, "A") == "red"
        assert tiny_table.version == before

    def test_missing_key_batch_rejected_atomically(self, tiny_table):
        before = tiny_table.version
        with pytest.raises(MissingKeyError):
            tiny_table.set_values("A", [(1, "blue"), (999, "red")])
        assert tiny_table.value(1, "A") == "red"
        assert tiny_table.version == before

    def test_pk_batch_renames_atomically(self, tiny_table):
        before = tiny_table.version
        tiny_table.set_values("K", [(1, 101), (2, 102)])
        assert tiny_table.get(101) == (101, "red", "x")
        assert tiny_table.get(102) == (102, "green", "y")
        assert 1 not in tiny_table and 2 not in tiny_table
        assert tiny_table.version == before + 1

    def test_pk_batch_allows_rename_chains(self, tiny_table):
        # Sequential semantics: 1 -> 7 frees key 1 for 2 -> 1.
        tiny_table.set_values("K", [(1, 7), (2, 1)])
        assert tiny_table.get(7) == (7, "red", "x")
        assert tiny_table.get(1) == (1, "green", "y")

    def test_pk_batch_duplicate_key_rejected_atomically(self, tiny_table):
        before = tiny_table.version
        with pytest.raises(DuplicateKeyError):
            tiny_table.set_values("K", [(1, 100), (2, 3)])  # 3 exists
        assert tiny_table.get(1) == (1, "red", "x")
        assert tiny_table.get(2) == (2, "green", "y")
        assert 100 not in tiny_table
        assert tiny_table.version == before

    def test_pk_batch_on_shared_clone_privatizes_rows(self, tiny_table):
        clone = tiny_table.clone()
        clone.set_values("K", [(1, 100)])
        assert clone.get(100) == (100, "red", "x")
        assert tiny_table.get(1) == (1, "red", "x")
        assert 100 not in tiny_table

    def test_empty_and_lazy_batches(self, tiny_table):
        before = tiny_table.version
        assert tiny_table.set_values("A", []) == 0
        assert tiny_table.version == before
        # Lazy iterables reading the table observe the pre-batch state.
        updates = ((key, "cyan") for key in [1, 2])
        assert tiny_table.set_values("A", updates) == 2
        assert tiny_table.value(2, "A") == "cyan"
