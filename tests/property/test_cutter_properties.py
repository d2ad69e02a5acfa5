"""The CSV cutter against a record-at-a-time reader.

Under the default ``raise`` policy ``CSVChunkSource.payloads`` cuts the
file's bytes into chunks at line ends (``\\n``, ``\\r\\n`` or a bare
``\\r``) and ships their text; only runs holding a ``"`` are split into
fields while reading.
Whatever the text, the file's framing (plain, one gzip member, several),
the chunk size, the resume point and the read block size, every task
must carry the records, count, index and first row number of
``csv.reader`` over ``open_text`` sliced by chunk — and an error must
come after the same records, with the same type.
"""

import csv
import gzip
import zlib
from itertools import islice
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from repro.relational import Attribute, AttributeType, Schema
from repro.relational.csvio import check_header
from repro.stream import BadRowError, CSVChunkSource, sources

SCHEMA = Schema(
    (
        Attribute("a", AttributeType.STRING),
        Attribute("b", AttributeType.STRING),
    ),
    primary_key="a",
)

#: the line ending a variant writes
EOL = "<eol>"

#: ``csv.field_size_limit()`` while a variant runs: one token exceeds it
FIELD_LIMIT = 40

#: text without quotes: every run is cut at its line ends, a bare
#: ``\r`` among them
PLAIN = (
    "x", "yz", "1", ",", ",", EOL, EOL, EOL, "\r", "\r\n", "\n", "é",
    "€", "😀", "k" * (FIELD_LIMIT + 1),
)
#: quoted fields holding delimiters, line breaks and doubled quotes, and
#: quotes inside unquoted fields
QUOTED = PLAIN + ('"', '""', '"q,r"', '"s\nt"', '"u\r\nv"', '"w""z"', 'ab"cd')

FRAMINGS = ("plain", "gzip", "members", "truncated")


def write(path, data: bytes, framing: str, cuts=()) -> None:
    """``data`` as a plain file, one gzip member, one member per piece
    between the byte offsets ``cuts``, or one member cut short at the
    first of them."""
    if framing == "plain":
        path.write_bytes(data)
    elif framing == "gzip":
        path.write_bytes(gzip.compress(data))
    elif framing == "truncated":
        packed = gzip.compress(data)
        path.write_bytes(packed[: (cuts[0] if cuts else 0) % len(packed)])
    else:
        bounds = [0, *sorted(cuts), len(data)]
        path.write_bytes(b"".join(
            gzip.compress(data[begin:end])
            for begin, end in zip(bounds, bounds[1:])
        ))


def reference(path, chunk_size: int, start: int) -> list:
    """What reading one record at a time gives: the tasks, the records
    of a chunk typed before an error, and the error's type."""
    events = []
    try:
        with sources.open_text(path) as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None:
                return events
            check_header(header, SCHEMA)
            number = 0
            for _ in range(start * chunk_size):
                if next(reader, None) is None:
                    return events
                number += 1
            index = start
            while True:
                records: list = []
                try:
                    records.extend(islice(reader, chunk_size))
                except Exception:
                    events.append(("typed", number, records))
                    raise
                if not records:
                    return events
                events.append(("task", index, len(records), number, records))
                number += len(records)
                index += 1
    except Exception as exc:
        events.append(("error", type(exc)))
    return events


def observed(path, chunk_size: int, start: int) -> list:
    """The same events from ``payloads``: a task's text is split as its
    build splits it, and a ``csv.Error`` there ends the run after the
    records before it are typed, as the build types them."""
    events = []
    source = CSVChunkSource(path, SCHEMA, chunk_size=chunk_size)

    def typed(records, parsers, arity, number):
        events.append(("typed", number, list(records)))
        return []

    source._reference_rows = typed
    try:
        for task in source.payloads(start):
            records = []
            try:
                records.extend(task.payload)
            except csv.Error:
                events.append(("typed", task.first_row_number, records))
                raise
            events.append((
                "task", task.index, task.count, task.first_row_number,
                records,
            ))
    except Exception as exc:
        events.append(("error", type(exc)))
    return events


@given(
    st.one_of(
        st.lists(st.sampled_from(PLAIN), max_size=120),
        st.lists(st.sampled_from(QUOTED), max_size=120),
    ),
    st.sampled_from(("\n", "\r\n")),
    st.sampled_from(FRAMINGS),
    st.lists(st.integers(0, 600), max_size=4),
    st.sampled_from((1, 2, 3, 7, 1_000_000)),
    st.integers(0, 3),
    st.sampled_from((1, 5, 16, sources.CUT_BLOCK)),
)
@settings(max_examples=1000, deadline=None)
def test_tasks_match_a_record_reader(
    tmp_path_factory, tokens, eol, framing, cuts, chunk_size, start, block
):
    text = "a,b" + eol + "".join(
        eol if token == EOL else token for token in tokens
    )
    path = tmp_path_factory.mktemp("cut") / "data.csv"
    write(path, text.encode("utf-8"), framing, cuts)
    limit = csv.field_size_limit(FIELD_LIMIT)
    try:
        with patch.object(sources, "CUT_BLOCK", block):
            assert observed(path, chunk_size, start) == reference(
                path, chunk_size, start
            )
    finally:
        csv.field_size_limit(limit)


@pytest.mark.parametrize("framing", ("plain", "gzip", "members"))
@pytest.mark.parametrize("block", (7, sources.CUT_BLOCK))
@pytest.mark.parametrize("bad_record", (False, True))
def test_invalid_utf8_inside_a_chunk(tmp_path, framing, block, bad_record):
    """A byte that is not UTF-8 in chunk 2: chunks 0 and 1 come whole,
    then the records of chunk 2 before the byte are typed — a bad one
    among them is reported — and the decoding error is raised."""
    lines = [f"k{number},v{number}\n".encode() for number in range(1, 41)]
    if bad_record:
        lines[22] = b"k23,v23,extra\n"
    lines[24] = b"k25,\xff\n"
    path = tmp_path / "data.csv"
    write(path, b"a,b\n" + b"".join(lines), framing, (100, 250))
    source = CSVChunkSource(path, SCHEMA, chunk_size=10)
    tasks = []
    with patch.object(sources, "CUT_BLOCK", block):
        error = BadRowError if bad_record else UnicodeDecodeError
        with pytest.raises(error) as excinfo:
            for task in source.payloads():
                tasks.append(
                    (task.first_row_number, task.count, list(task.payload))
                )
    assert tasks == [
        (first, 10, [
            line.decode().rstrip("\n").split(",")
            for line in lines[first:first + 10]
        ])
        for first in (0, 10)
    ]
    if bad_record:
        assert excinfo.value.number == 23


@pytest.mark.parametrize("quoted", (False, True), ids=("cut", "split"))
def test_a_cr_only_file_is_read_in_bounded_memory(tmp_path, quoted):
    """Records ended by a bare ``\\r`` (classic Mac CSV), 40 chunks of a
    gzip file read in small blocks: the tasks are the record reader's,
    and the cutter holds about a chunk and a block at a time — never the
    file — also when quoted fields span lines."""
    field = '"v\r{}"' if quoted else "v{}"
    text = "a,b\r" + "".join(
        f"k{number},{field.format(number)}\r" for number in range(2_000)
    )
    path = tmp_path / "mac.csv.gz"
    path.write_bytes(gzip.compress(text.encode()))
    chunk_size, block = 50, 64
    held = []
    cut = sources._Cutter.cut

    def spy(self, count, before_error=None):
        result = cut(self, count, before_error)
        held.append(len(self._data))
        return result

    with patch.object(sources, "CUT_BLOCK", block), \
            patch.object(sources._Cutter, "cut", spy):
        assert observed(path, chunk_size, 0) == reference(path, chunk_size, 0)
    chunk_bytes = chunk_size * len(text) // 2_000
    assert len(held) == 2 + 2_000 // chunk_size
    assert max(held) <= 3 * chunk_bytes + 2 * block


@pytest.mark.parametrize("block", (1, 2, sources.CUT_BLOCK))
@pytest.mark.parametrize("chunk_size", (1, 2))
def test_a_bare_cr_waits_for_the_character_after_it(
    tmp_path, block, chunk_size
):
    """A text reader ends a line at a bare ``\\r`` only once it has
    decoded the character after it: a gzip member cut short inside that
    character never delivers the line, and neither does the cutter."""
    data = "a,b\r\nxxx1yzxyzyz€\r😀xxxx".encode()
    packed = gzip.compress(data, mtime=0)
    cuts = [
        size for size in range(len(packed))
        if zlib.decompressobj(31).decompress(packed[:size]).endswith(
            (b"\r\xf0", b"\r\xf0\x9f", b"\r\xf0\x9f\x98")
        )
    ]
    assert cuts
    path = tmp_path / "cut.csv.gz"
    path.write_bytes(packed[:cuts[0]])
    with patch.object(sources, "CUT_BLOCK", block):
        events = observed(path, chunk_size, 0)
    assert events == reference(path, chunk_size, 0)
    assert events[-1] == ("error", EOFError)
