"""Tests for repro.relational.csvio — CSV round-trips for blind detection."""

import pytest

from repro.relational import (
    AttributeType,
    dumps_csv,
    loads_csv,
    read_csv,
    schema_for_csv,
    write_csv,
)


class TestRoundTrip:
    def test_dumps_loads_round_trip(self, tiny_table, tiny_schema):
        text = dumps_csv(tiny_table)
        restored = loads_csv(text, tiny_schema)
        assert restored == tiny_table

    def test_file_round_trip(self, tiny_table, tiny_schema, tmp_path):
        path = tmp_path / "relation.csv"
        write_csv(tiny_table, path)
        restored = read_csv(path, tiny_schema)
        assert restored == tiny_table

    def test_header_written(self, tiny_table):
        text = dumps_csv(tiny_table)
        assert text.splitlines()[0] == "K,A,B"

    def test_types_parsed_back(self, tiny_table, tiny_schema):
        restored = loads_csv(dumps_csv(tiny_table), tiny_schema)
        key = next(iter(restored.keys()))
        assert isinstance(key, int)

    def test_header_mismatch_raises(self, tiny_schema):
        with pytest.raises(ValueError):
            loads_csv("X,Y,Z\n1,red,x\n", tiny_schema)

    def test_empty_csv_gives_empty_table(self, tiny_schema):
        table = loads_csv("", tiny_schema)
        assert len(table) == 0


class TestDomainInference:
    def test_observed_values_widen_domain(self, tiny_schema):
        text = "K,A,B\n1,red,x\n"
        # start from a schema whose A domain lacks nothing; loads fine
        table = loads_csv(text, tiny_schema)
        assert "red" in table.schema.attribute("A").domain

    def test_inference_disabled_enforces_declared_domain(self, tiny_schema):
        from repro.relational import schema_for_csv

        schema = schema_for_csv(
            ["K", "A", "B"],
            [
                AttributeType.INTEGER,
                AttributeType.CATEGORICAL,
                AttributeType.CATEGORICAL,
            ],
            primary_key="K",
            categorical_values={"A": ["red"], "B": ["x"]},
        )
        with pytest.raises(Exception):
            loads_csv(
                "K,A,B\n1,blue,x\n", schema, infer_categorical_domains=False
            )


class TestSchemaForCsv:
    def test_placeholder_domains_for_unlisted_categoricals(self):
        schema = schema_for_csv(
            ["K", "A"],
            [AttributeType.INTEGER, AttributeType.CATEGORICAL],
            primary_key="K",
        )
        assert schema.attribute("A").domain is not None

    def test_explicit_domains_respected(self):
        schema = schema_for_csv(
            ["K", "A"],
            [AttributeType.INTEGER, AttributeType.CATEGORICAL],
            primary_key="K",
            categorical_values={"A": ["p", "q"]},
        )
        assert set(schema.attribute("A").domain.values) == {"p", "q"}


class TestRoundTripHardening:
    """CSV round trips must survive hostile cell contents.

    The streaming subsystem trusts write-then-read to be the identity on
    every legal relation — delimiters, quotes, newlines and empty strings
    inside categorical values included.
    """

    def _schema(self, values):
        from repro.relational import (
            Attribute,
            AttributeType,
            CategoricalDomain,
            Schema,
        )

        return Schema(
            (
                Attribute("K", AttributeType.INTEGER),
                Attribute(
                    "A", AttributeType.CATEGORICAL, CategoricalDomain(values)
                ),
            ),
            primary_key="K",
        )

    @pytest.mark.parametrize(
        "value",
        [
            "plain",
            "with,comma",
            'with"quote',
            "with\nnewline",
            "with\r\ncrlf",
            "",
            " leading and trailing ",
            "ünïcödé",
        ],
    )
    def test_hostile_values_round_trip(self, value):
        from repro.relational import Table

        schema = self._schema([value, "other"])
        table = Table(schema, [(1, value), (2, "other"), (3, value)])
        restored = loads_csv(
            dumps_csv(table), schema, infer_categorical_domains=False
        )
        assert list(restored) == list(table)

    def test_hostile_values_file_round_trip(self, tmp_path):
        from repro.relational import Table

        values = ["a,b", 'c"d', "e\nf", ""]
        schema = self._schema(values)
        table = Table(
            schema, [(index, value) for index, value in enumerate(values)]
        )
        path = tmp_path / "hostile.csv"
        write_csv(table, path)
        assert list(read_csv(path, schema)) == list(table)

    def test_short_row_raises_with_row_number(self, tiny_schema):
        with pytest.raises(ValueError, match="row 2"):
            loads_csv("K,A,B\n1,red,x\n2,red\n", tiny_schema)

    def test_bad_row_before_undecodable_bytes_is_reported(self, tmp_path):
        # Records are read whole up to the undecodable byte, so a bad
        # record among them is reported, as reading one at a time would.
        lines = [f"{number},x\n".encode() for number in range(1, 41)]
        lines[4] = b"5,x,extra\n"
        lines[30] = b"31,\xff\n"
        path = tmp_path / "bad.csv"
        path.write_bytes(b"K,A\n" + b"".join(lines))
        with pytest.raises(
            ValueError, match="^CSV row 5 has 3 fields, schema has 2$"
        ):
            read_csv(path, self._schema(["x"]))

    def test_bare_cr_line_ends_read_alike_from_text_and_file(self, tmp_path):
        schema = self._schema(["a", "b"])
        text = "K,A\r1,a\r2,b\r"
        path = tmp_path / "mac.csv"
        path.write_bytes(text.encode())
        assert list(loads_csv(text, schema)) == list(read_csv(path, schema))
        assert list(loads_csv(text, schema)) == [(1, "a"), (2, "b")]

    def test_long_row_raises_instead_of_truncating(self, tiny_schema):
        # zip() used to drop the surplus cell silently — data loss on a
        # malformed file must be loud.
        with pytest.raises(ValueError, match="row 1"):
            loads_csv("K,A,B\n1,red,x,EXTRA\n", tiny_schema)

    def test_text_collision_resolves_first_in_domain_order(self):
        # int 1 and str "1" both render as "1"; the parser must pick one
        # deterministically — the first in canonical domain order.
        schema = self._schema([1, "1", "other"])
        domain = schema.attribute("A").domain
        expected = next(v for v in domain.values if str(v) == "1")
        restored = loads_csv(
            "K,A\n7,1\n", schema, infer_categorical_domains=False
        )
        assert next(iter(restored))[1] == expected

    def test_out_of_domain_numeric_text_sniffs_number(self, tiny_schema):
        table = loads_csv("K,A,B\n1,42,x\n", tiny_schema)
        assert next(iter(table))[1] == 42

    def test_inference_of_empty_string_value(self):
        schema = self._schema(["known"])
        table = loads_csv("K,A\n1,\n", schema)
        assert next(iter(table))[1] == ""
        assert "" in table.schema.attribute("A").domain
