"""Column-wise decode against its row-at-a-time references.

``type_columns`` must type a slice of raw CSV records exactly as
``parse_row`` types them one by one, ``Table(schema, rows)`` must end in
exactly the state a loop of ``insert`` calls leaves, and the column
codes of ``build_chunk_codes`` must be the chunk table's — or both sides
must fail the same way.
"""

import enum
import math
from unittest.mock import patch

from hypothesis import given, settings, strategies as st

from repro.relational import (
    Attribute,
    AttributeType,
    CategoricalDomain,
    Schema,
    Table,
    csvio,
)
from repro.relational.csvio import (
    TYPE_SLICE,
    cell_parsers,
    column_typers,
    parse_row,
    type_columns,
)
from repro.stream import sources

#: a domain whose texts collide (1 and "1" both render as "1")
DOMAIN = CategoricalDomain([1, "1", 2.5, "red", "x y"])


def decode_schema() -> Schema:
    return Schema(
        (
            Attribute("K", AttributeType.INTEGER),
            Attribute("R", AttributeType.REAL),
            Attribute("S", AttributeType.STRING),
            Attribute("C", AttributeType.CATEGORICAL, DOMAIN),
            # A domain no cell text matches: every cell is sniffed.
            Attribute(
                "P",
                AttributeType.CATEGORICAL,
                CategoricalDomain(["<placeholder>"]),
            ),
        ),
        primary_key="K",
    )


#: texts that sniff to int, float or str, parse or fail as numbers
TEXTS = (
    "1", "01", "-2", " 3 ", "1_0", "2.5", "1e3", "nan", "NaN", "inf",
    "-0.0", "red", "x y", "", "0x10", "1.5.2", "١٢", "<placeholder>",
)
any_text = st.one_of(
    st.sampled_from(TEXTS),
    st.integers().map(str),
    st.floats().map(repr),
    st.text(max_size=4),
)
int_text = st.one_of(st.integers().map(str), any_text)
real_text = st.one_of(
    st.floats().map(repr), st.integers().map(str), any_text
)
record = st.lists(
    st.tuples(int_text, real_text, any_text, any_text, any_text).map(list),
    max_size=25,
)


def zipped(columns):
    """``type_columns`` output as the row tuples ``parse_row`` gives."""
    return None if columns is None else list(zip(*columns))


def fingerprint(rows):
    """Rows by value *and* type; ``repr`` makes NaN cells comparable."""
    if rows is None:
        return None
    return [
        (type(row), [(type(value), repr(value)) for value in row])
        for row in rows
    ]


@given(
    record,
    st.one_of(
        st.none(), st.tuples(st.integers(0, 24), st.sampled_from([-1, 1]))
    ),
)
@settings(max_examples=300, deadline=None)
def test_type_columns_matches_parse_row(records, arity_fault):
    schema = decode_schema()
    if arity_fault is not None and records:
        position, delta = arity_fault
        victim = records[position % len(records)]
        if delta < 0:
            victim.pop()
        else:
            victim.append("extra")
    parsers = cell_parsers(schema)
    try:
        expected = [
            parse_row(row, parsers, schema.arity, number)
            for number, row in enumerate(records, start=1)
        ]
    except ValueError:
        expected = None
    got = zipped(type_columns(records, column_typers(schema), schema.arity))
    assert fingerprint(got) == fingerprint(expected)


def test_type_columns_keeps_nan_and_collisions():
    schema = decode_schema()
    rows = zipped(type_columns(
        [["7", "nan", "s", "1", "nan"], ["8", "1", "t", "2.5", "4"]],
        column_typers(schema), schema.arity,
    ))
    assert math.isnan(rows[0][1]) and math.isnan(rows[0][4])
    first_one = next(v for v in DOMAIN.values if str(v) == "1")
    assert type(rows[0][3]) is type(first_one)
    assert rows[1] == (8, 1.0, "t", 2.5, 4)
    assert type(rows[1][1]) is float and type(rows[1][4]) is int


class Colour(enum.IntEnum):
    RED = 1
    BLUE = 9


def table_schema() -> Schema:
    return Schema(
        (
            Attribute("K", AttributeType.INTEGER),
            Attribute("R", AttributeType.REAL),
            Attribute("S", AttributeType.STRING),
            Attribute("C", AttributeType.CATEGORICAL, DOMAIN),
        ),
        primary_key="K",
    )


#: per column, cells some check may wrongly admit or refuse: bool and
#: IntEnum ints, a float or str where an int is declared, None, values
#: equal to a domain member, out-of-domain and unhashable categoricals
ODD = (
    (True, Colour.RED, None, 1.0, "3"),
    (True, Colour.RED, None, "2.5"),
    (None, 1, Colour.RED),
    ([1], "blue", True, Colour.RED, 1.0, 3.0, (1,)),
)
valid_row = st.tuples(
    st.integers(0, 30), st.floats(allow_nan=False),
    st.text(max_size=3), st.sampled_from(DOMAIN.values),
)
unique_rows = st.lists(valid_row, max_size=20, unique_by=lambda row: row[0])


@st.composite
def odd_row(draw):
    """A valid row with one odd cell, or one cell short; its key is
    fresh, so the odd cell alone decides the outcome."""
    cells = list(draw(valid_row))
    cells[0] += 100
    position = draw(st.integers(0, 4))
    if position == 4:
        return tuple(cells[:-1])
    cells[position] = draw(st.sampled_from(ODD[position]))
    return tuple(cells)


@st.composite
def rows_strategy(draw):
    """Unique valid rows, with odd rows or rows repeating a key inserted
    anywhere."""
    rows = draw(unique_rows)
    for extra in draw(
        st.lists(st.one_of(odd_row(), valid_row), max_size=3)
    ):
        rows.insert(draw(st.integers(0, len(rows))), extra)
    return rows


def outcome(build):
    """The built table's whole state, or the exception it raised."""
    try:
        table = build()
    except Exception as exc:  # compared type and arguments, not swallowed
        return ("raised", type(exc), repr(exc.args))
    return (
        "built",
        fingerprint(table._rows),
        [(type(k), repr(k), slot) for k, slot in table._pk_index.items()],
        table.version,
        table._structural_version,
        dict(table._attr_writes),
        table.cache_info(),
        table._owned,
        table._pending,
    )


def insert_loop(schema, rows):
    table = Table(schema, ())
    for row in rows:
        table.insert(row)
    return table


@given(rows_strategy())
@settings(max_examples=300, deadline=None)
def test_bulk_table_matches_insert_loop(rows):
    schema = table_schema()
    bulk = outcome(lambda: Table(schema, rows))
    assert bulk == outcome(lambda: insert_loop(schema, rows))


def test_bulk_table_edge_cases_match_insert_loop():
    schema = table_schema()
    cases = [
        [(True, 1.0, "a", "red")],            # bool in an INTEGER column
        [(Colour.RED, 1.0, "a", "red")],      # IntEnum: legal, refused bulk
        [(1, 1.0, "a", [1])],                 # unhashable categorical
        [(1, 1.0, "a", "blue")],              # out of domain
        [(1, 1.0, "a", Colour.RED)],          # equal to domain value 1
        [(1, 1.0, "a", "red"), (2, 2.0, "b", "1"), (1, 3.0, "c", 2.5)],
        [(1, 1.0, "a", "red"), (2, 2.0, "b")],
    ]
    for rows in cases:
        bulk = outcome(lambda: Table(schema, rows))
        assert bulk == outcome(lambda: insert_loop(schema, rows)), rows


def from_columns_outcome(schema, rows, trusted, adopts):
    """``Table.from_columns`` over the columns of ``rows``: the table's
    state as :func:`outcome` gives it, or the exception it raised —
    where it ``adopts`` the batch whole, with its column views checked
    to be the very columns handed in."""
    columns = [list(column) for column in zip(*rows)] or [
        [] for _ in schema.names
    ]

    def build():
        table = Table.from_columns(schema, columns, trusted=trusted)
        if adopts:
            for name, column in zip(schema.names, columns):
                assert table.column_view(name) is column
        return table

    return outcome(build)


def without_cache_info(state):
    return state if state[0] == "raised" else state[:6] + state[7:]


@given(rows_strategy(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_column_table_matches_row_table(rows, trusted):
    """A table built from typed columns is the row constructor's table —
    rows, key index, version — or fails as it fails, with the same
    exception type and arguments, trusted or not.  Where the column
    checks pass (unique keys, and ``admits_rows`` unless trusted) the
    columns themselves become the table's column views."""
    schema = table_schema()
    rows = [row for row in rows if len(row) == schema.arity]
    keys = [row[0] for row in rows]
    adopts = (trusted or schema.admits_rows(rows)) and (
        len(set(keys)) == len(keys)
    )
    got = from_columns_outcome(schema, rows, trusted, adopts)
    reference = outcome(
        (lambda: Table.from_trusted_rows(schema, rows)) if trusted
        else (lambda: Table(schema, rows))
    )
    assert without_cache_info(got) == without_cache_info(reference)


def test_column_chunk_matches_row_chunk():
    """``build_chunk_table`` from typed columns against the same rows,
    with and without domain inference: same schema, same state, or the
    same error."""
    schema = decode_schema()
    good = [
        (1, 1.5, "a", "red", "<placeholder>"),
        (2, 2.5, "b", 1, 7),
        (3, -0.0, "", "x y", "other"),
    ]
    cases = [
        good,
        good + [(2, 0.5, "c", "red", 1)],          # repeated key
        good + [(4, 0.5, "c", "blue", 1)],         # out-of-domain mark
        good + [(5, 1, "c", 2.5, 1)],              # int in a REAL column
        [],
    ]
    for rows in cases:
        for infer, trusted in ((False, False), (True, False), (False, True)):
            columns = [list(c) for c in zip(*rows)] or [[] for _ in schema]

            def by_columns():
                return sources.build_chunk_table(
                    schema, sources.ChunkColumns(columns), 2, "c",
                    infer, trusted,
                )

            def by_rows():
                return sources.build_chunk_table(
                    schema, list(rows), 2, "c", infer, trusted
                )

            got, want = outcome(by_columns), outcome(by_rows)
            assert without_cache_info(got) == without_cache_info(want)
            if got[0] == "built":
                assert by_columns().schema == by_rows().schema
                assert by_columns().name == "c[2]"


# -- build_chunk_codes against build_chunk ---------------------------------

#: key texts that type to the same int as another record's key, or fail
KEY_TWINS = ("5", "05", " 5", "+5", "5_0", "50")
BAD_KEYS = ("x", "", "1.5", "5x")
#: mark texts inside DOMAIN, and out-of-domain texts (sniffed)
MARK_TEXTS = ("1", "2.5", "red", "x y")
FOREIGN_MARKS = ("blue", "7", "3.5", "")
#: (key, mark) attribute pairs: the primary key with a categorical, and
#: pairs whose "key" is an ordinary column
ATTRIBUTE_PAIRS = (("K", "C"), ("K", "P"), ("S", "C"), ("C", "R"))


@st.composite
def raw_chunk(draw):
    """Clean records with a few faults: key twins and bad keys, foreign
    marks, a bad cell in a column detection never reads, wrong field
    counts."""
    count = draw(st.integers(0, 12))
    records = [
        [
            str(number),
            draw(st.floats().map(repr)),
            draw(any_text),
            draw(st.sampled_from(MARK_TEXTS)),
            draw(any_text),
        ]
        for number in range(count)
    ]
    for _ in range(draw(st.integers(0, 3)) if records else 0):
        victim = records[draw(st.integers(0, count - 1))]
        fault = draw(st.sampled_from(
            ("twin", "bad_key", "foreign_mark", "bad_real", "short", "long")
        ))
        if fault == "twin":
            victim[0] = draw(st.sampled_from(KEY_TWINS))
        elif fault == "bad_key":
            victim[0] = draw(st.sampled_from(BAD_KEYS))
        elif fault == "foreign_mark":
            mark = draw(st.sampled_from(FOREIGN_MARKS))
            if len(victim) > 3:  # two "short" faults dropped the mark cell
                victim[3] = mark
        elif fault == "bad_real":
            victim[1] = "abc"
        elif fault == "short":
            victim.pop()
        else:
            victim.append("extra")
    return records


def built(build):
    try:
        return build(), None
    except Exception as exc:  # compared type and message, not swallowed
        return None, (type(exc), str(exc))


@given(
    raw_chunk(),
    st.booleans(),
    st.sampled_from(ATTRIBUTE_PAIRS),
    st.sampled_from((2, 3, TYPE_SLICE)),
    st.integers(0, 100),
)
@settings(max_examples=300, deadline=None)
def test_build_chunk_codes_matches_build_chunk(
    records, infer, attributes, slice_size, first_row_number
):
    schema = decode_schema()
    profile = {
        "schema": schema, "infer": infer, "trusted": False,
        "name": "suspect", "path": "suspect.csv",
    }
    decoders = sources.payload_decoders(schema)

    def task():
        return sources.ChunkTask(
            3, sources.PAYLOAD_RAW, [list(record) for record in records],
            len(records), first_row_number=first_row_number,
        )

    with patch.object(csvio, "TYPE_SLICE", slice_size):
        table, table_error = built(
            lambda: sources.build_chunk(task(), profile, decoders)
        )
        chunk, chunk_error = built(lambda: sources.build_chunk_codes(
            task(), profile, decoders, attributes
        ))
    assert chunk_error == table_error
    if table_error is not None:
        return
    assert len(chunk) == len(table) == len(records)
    for attribute in attributes:
        want = table.column_codes(attribute)
        got = chunk.column_codes(attribute)
        assert got.codes.dtype == want.codes.dtype
        assert got.codes.tolist() == want.codes.tolist()
        assert fingerprint([got.uniques]) == fingerprint([want.uniques])
