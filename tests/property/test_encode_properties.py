"""The column-wise CSV encoder against ``csv.writer``.

``encode_columns`` must give the text ``csv.writer`` writes for the same
rows — for every cell type and every character a cell may hold — or
raise what ``csv.writer`` raises, with the same message.
"""

import csv
import enum
import io
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from repro.relational.csvio import encode_columns


class Shade(enum.IntEnum):
    DARK = 1
    LIGHT = 2


class Unprintable:
    def __str__(self):
        raise RuntimeError("no text for this cell")


def reference(rows) -> str:
    buffer = io.StringIO()
    csv.writer(buffer).writerows(rows)
    return buffer.getvalue()


def outcome(function, argument):
    """``function(argument)``'s text, or the type and message it raised."""
    try:
        return function(argument)
    except Exception as exc:  # the two sides must fail alike
        return type(exc), str(exc)


#: characters that make csv.writer quote a cell, plus NUL, spaces and
#: non-ASCII text
ALPHABET = st.sampled_from(
    list("ab1 ,\"\r\n\0-.eé☃") + ["\U0001F600", "\t"]
)
texts = st.text(ALPHABET, max_size=6)
ints = st.one_of(
    st.integers(-10, 10**6),
    st.integers(-(2**70), 2**70),
    st.sampled_from([-1, 0, 2**63, -(2**63) - 1]),
)
floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, 1e16, -1e16, 1e-7, 0.1]),
)
others = st.one_of(
    st.none(), st.booleans(), st.sampled_from(list(Shade)),
)
#: a column of one kind (most columns in a relation are) or of any mix
column_cells = st.one_of(
    st.just(ints), st.just(floats), st.just(texts),
    st.just(st.one_of(ints, floats, texts)),
    st.just(st.one_of(ints, floats, texts, others)),
)


@st.composite
def tables(draw):
    arity = draw(st.integers(1, 4))
    rows = draw(st.integers(0, 8))
    kinds = [draw(column_cells) for _ in range(arity)]
    return [
        draw(st.lists(kind, min_size=rows, max_size=rows)) for kind in kinds
    ]


@settings(max_examples=1500, deadline=None)
@given(tables())
def test_encoder_writes_what_csv_writer_writes(columns):
    rows = [tuple(row) for row in zip(*columns)]
    assert outcome(encode_columns, columns) == outcome(reference, rows)


@pytest.mark.parametrize("columns", [
    [[1, 2], ["a", "b"]],
    [[], [], []],
    [["x"], [""]],
    [[""], [""]],
    [[1.5, float("nan")], [float("inf"), -0.0]],
])
def test_plain_cells_never_reach_csv_writer(columns):
    expected = reference(zip(*columns))
    with patch.object(csv, "writer", side_effect=AssertionError):
        assert encode_columns(columns) == expected


@pytest.mark.parametrize("columns", [
    [[""]],                       # one column: a lone empty field is quoted
    [["a"]],
    [[1, 2], ["a,b", "c"]],
    [[1], ['say "hi"']],
    [[1], ["two\nlines"]],
    [[1], ["carriage\rreturn"]],
    [[1], ["nul\0byte"]],
    [[None], [True]],
    [[Shade.DARK], [1]],
])
def test_cells_csv_writer_must_judge_go_to_it(columns):
    calls = []
    real = csv.writer

    def spying(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    with patch.object(csv, "writer", spying):
        got = outcome(encode_columns, columns)
    assert calls
    assert got == outcome(reference, list(zip(*columns)))


@pytest.mark.parametrize("columns", [
    [[10**5000], [1]],            # over the int-to-text digit limit
    [[1], [Unprintable()]],
])
def test_errors_are_csv_writers(columns):
    expected = outcome(reference, list(zip(*columns)))
    assert isinstance(expected, tuple)
    assert outcome(encode_columns, columns) == expected
