"""The CSV cutter against a record-at-a-time reader.

``CSVChunkSource.payloads`` reads every file through one cutter, which
cuts the file's bytes into runs of records at line ends (``\\n``,
``\\r\\n`` or a bare ``\\r``); only runs holding a ``"`` are split into
fields while reading.  Under the default ``raise`` policy each chunk
ships its text; the lossy and verified reads type its rows while
reading.  Whatever the text, the file's framing (plain, one gzip member,
several), the chunk size, the resume point and the read block size,
every task must carry the records, count, index and first row number of
``csv.reader`` over the file's text sliced by chunk — under ``skip``, of
the records of the schema's arity, chunked by surviving rows — and an
error must come after the same records, with the same type.  Counting
the records (``count_data_rows``) must give ``csv.reader``'s count or
its error.  Typing a run's text straight from its lines must give what
typing the field lists ``csv.reader`` splits from it gives, errors
included.
"""

import csv
import gzip
import zlib
from itertools import islice
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from repro.relational import Attribute, AttributeType, Schema, csvio
from repro.relational.csvio import RawText, check_header
from repro.reliability.integrity import ChunkDigest, ChunkManifest, digest_rows
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


def open_text(path):
    """The file as a record-at-a-time reader reads it: text, through
    ``gzip`` when it starts with gzip's magic bytes."""
    with open(path, "rb") as probe:
        packed = probe.read(2) == b"\x1f\x8b"
    if packed:
        return gzip.open(path, "rt", encoding="utf-8", newline="")
    return open(path, newline="", encoding="utf-8")


def reference(path, chunk_size: int, start: int, policy: str) -> list:
    """What reading one record at a time gives: the tasks, the records
    of a chunk typed before an error, and the error's type.  Under
    ``skip`` a record of the wrong arity is dropped, chunks count the
    surviving records, and the events end with the number dropped."""
    events = []
    dropped = []
    try:
        with open_text(path) as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is not None:
                check_header(header, SCHEMA)
                if policy == "skip":
                    reader = survivors(reader, dropped)
                read_chunks(reader, chunk_size, start, policy, events)
    except Exception as exc:
        events.append(("error", type(exc)))
    if policy == "skip":
        events.append(("dropped", len(dropped)))
    return events


def survivors(reader, dropped: list):
    """The records of ``reader`` of the schema's arity; the others go to
    ``dropped``."""
    for record in reader:
        if len(record) == SCHEMA.arity:
            yield record
        else:
            dropped.append(record)


def read_chunks(reader, chunk_size: int, start: int, policy: str, events):
    """The task events of ``reader``'s records from chunk ``start``: a
    raw task (``raise``) carries the data-row number before its first
    record, a typed one (``skip``) none."""
    number = 0
    for _ in range(start * chunk_size):
        if next(reader, None) is None:
            return
        number += 1
    index = start
    while True:
        records: list = []
        try:
            records.extend(islice(reader, chunk_size))
        except Exception:
            if policy == "raise":
                events.append(("typed", number, records))
            raise
        if not records:
            return
        first = number if policy == "raise" else None
        events.append(("task", index, len(records), first, records))
        number += len(records)
        index += 1


def observed(path, chunk_size: int, start: int, policy: str) -> list:
    """The same events from ``payloads``: a raw task's text is split as
    its build splits it, and a ``csv.Error`` there ends the run after
    the records before it are typed, as the build types them.  The
    records a read error cuts short are noted where the raw reader
    types them (``sources.typed_rows``); the lossy reader types them
    itself and counts the records it drops."""
    events = []
    source = CSVChunkSource(
        path, SCHEMA, chunk_size=chunk_size, on_bad_rows=policy
    )

    def typed(records, number, decoders, bad_record):
        events.append(("typed", number, list(records)))
        return []

    try:
        with patch.object(sources, "typed_rows", typed):
            for task in source.payloads(start):
                records = []
                try:
                    records.extend(map(list, task.payload))
                except csv.Error:
                    events.append(("typed", task.first_row_number, records))
                    raise
                raw = task.kind == sources.PAYLOAD_RAW
                events.append((
                    "task", task.index, task.count,
                    task.first_row_number if raw else None, records,
                ))
    except Exception as exc:
        events.append(("error", type(exc)))
    if policy == "skip":
        events.append(("dropped", source.bad_row_count))
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
    st.sampled_from((1, 5, 16, csvio.CUT_BLOCK)),
    st.sampled_from(("raise", "skip")),
)
@settings(max_examples=2000, deadline=None)
def test_tasks_match_a_record_reader(
    tmp_path_factory, tokens, eol, framing, cuts, chunk_size, start, block,
    policy,
):
    text = "a,b" + eol + "".join(
        eol if token == EOL else token for token in tokens
    )
    path = tmp_path_factory.mktemp("cut") / "data.csv"
    write(path, text.encode("utf-8"), framing, cuts)
    limit = csv.field_size_limit(FIELD_LIMIT)
    try:
        with patch.object(csvio, "CUT_BLOCK", block):
            assert observed(path, chunk_size, start, policy) == reference(
                path, chunk_size, start, policy
            )
    finally:
        csv.field_size_limit(limit)


def reference_count(path):
    """``csv.reader``'s count of the file's data records, or the type of
    the error it raises."""
    try:
        with open_text(path) as handle:
            reader = csv.reader(handle)
            if next(reader, None) is None:
                return 0
            return sum(1 for _ in reader)
    except Exception as exc:
        return ("error", type(exc))


def observed_count(path):
    try:
        return sources.count_data_rows(path)
    except Exception as exc:
        return ("error", type(exc))


@given(
    st.one_of(
        st.lists(st.sampled_from(PLAIN), max_size=120),
        st.lists(st.sampled_from(QUOTED), max_size=120),
    ),
    st.sampled_from(("\n", "\r\n", "\r")),
    st.sampled_from(FRAMINGS),
    st.lists(st.integers(0, 600), max_size=4),
    st.sampled_from((1, 3, csvio.TYPE_SLICE)),
    st.sampled_from((1, 5, csvio.CUT_BLOCK)),
)
@settings(max_examples=1000, deadline=None)
def test_count_matches_a_record_reader(
    tmp_path_factory, tokens, eol, framing, cuts, slice_size, block
):
    """Line ends (LF, CRLF, bare CR, mixed), a last line without its
    end, blank lines, quoted line breaks, a field over the limit, gzip
    members and a truncated member: the count is ``csv.reader``'s, or
    the error the same type."""
    text = "a,b" + eol + "".join(
        eol if token == EOL else token for token in tokens
    )
    path = tmp_path_factory.mktemp("count") / "data.csv"
    write(path, text.encode("utf-8"), framing, cuts)
    limit = csv.field_size_limit(FIELD_LIMIT)
    try:
        with patch.object(csvio, "CUT_BLOCK", block), \
                patch.object(csvio, "TYPE_SLICE", slice_size):
            assert observed_count(path) == reference_count(path)
    finally:
        csv.field_size_limit(limit)


@pytest.mark.parametrize("framing", ("plain", "gzip", "members"))
@pytest.mark.parametrize("block", (7, csvio.CUT_BLOCK))
@pytest.mark.parametrize("bad_record", (False, True))
@pytest.mark.parametrize("read", ("raise", "skip", "quarantine", "verified"))
def test_invalid_utf8_inside_a_chunk(
    tmp_path, framing, block, bad_record, read
):
    """A byte that is not UTF-8 in chunk 2: chunks 0 and 1 come whole
    under every policy and in a verified read, then the records of chunk
    2 before the byte are typed — a bad one among them is reported, or
    dropped and counted by the lossy policies — and the decoding error
    is raised."""
    lines = [f"k{number},v{number}\n".encode() for number in range(1, 41)]
    if bad_record:
        lines[22] = b"k23,v23,extra\n"
    lines[24] = b"k25,\xff\n"
    path = tmp_path / "data.csv"
    write(path, b"a,b\n" + b"".join(lines), framing, (100, 250))
    chunks = [
        [line.decode().rstrip("\n").split(",") for line in lines[first:first + 10]]
        for first in (0, 10)
    ]
    lossy = read in ("skip", "quarantine")
    manifest = ChunkManifest("rows", entries=[
        ChunkDigest(index, 0, 0, "", rows_digest=digest_rows(chunk))
        for index, chunk in enumerate(chunks)
    ])
    source = CSVChunkSource(
        path, SCHEMA, chunk_size=10,
        on_bad_rows=read if lossy else "raise",
        verify_manifest=manifest if read == "verified" else None,
    )
    tasks = []
    with patch.object(csvio, "CUT_BLOCK", block):
        error = BadRowError if bad_record and not lossy else UnicodeDecodeError
        with pytest.raises(error) as excinfo:
            for task in source.payloads():
                tasks.append((
                    task.first_row_number, task.count,
                    [list(record) for record in task.payload],
                ))
    # Only raw tasks carry the data-row number before their first record.
    firsts = (0, 10) if read == "raise" else (0, 0)
    assert tasks == [
        (first, 10, chunk) for first, chunk in zip(firsts, chunks)
    ]
    if bad_record and not lossy:
        assert excinfo.value.number == 23
    assert source.bad_row_count == int(bad_record and lossy)
    assert source.quarantined_rows == int(bad_record and read == "quarantine")


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
    cut = csvio._Cutter.cut

    def spy(self, count, before_error=None):
        result = cut(self, count, before_error)
        held.append(len(self._data))
        return result

    with patch.object(csvio, "CUT_BLOCK", block), \
            patch.object(csvio._Cutter, "cut", spy):
        assert observed(path, chunk_size, 0, "raise") == reference(
            path, chunk_size, 0, "raise"
        )
    chunk_bytes = chunk_size * len(text) // 2_000
    assert len(held) == 2 + 2_000 // chunk_size
    assert max(held) <= 3 * chunk_bytes + 2 * block


@pytest.mark.parametrize("block", (1, 2, csvio.CUT_BLOCK))
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
    with patch.object(csvio, "CUT_BLOCK", block):
        events = observed(path, chunk_size, 0, "raise")
    assert events == reference(path, chunk_size, 0, "raise")
    assert events[-1] == ("error", EOFError)


#: line-split schemas by arity: column 0 is an INTEGER where there are
#: two or more, and a lone STRING column tells an empty line (``[]``)
#: from one empty field
LINE_SCHEMAS = {
    arity: Schema(
        tuple(
            Attribute(
                f"c{column}",
                AttributeType.INTEGER if column == 0 and arity > 1
                else AttributeType.STRING,
            )
            for column in range(arity)
        ),
        primary_key="c0",
    )
    for arity in (1, 2, 3)
}
#: clean cells: integers fit every column, the rest STRING ones only
INT_CELLS = ("0", "7", "-12", "305")
ANY_CELLS = INT_CELLS + ("a", "bc", "é", "€😀", "", " 7 ")
#: what a fault does to its line (or, ``no_final_end``, to the text);
#: ``quoted`` stands for a run the cutter ships as text because its
#: split failed, quotes and all
FAULTS = (
    "bad_int", "nul", "over_limit", "at_limit", "wide", "blank",
    "extra_field", "missing_field", "bare_cr", "mixed_end", "no_final_end",
    "quoted",
)


def run_text(arity: int, lines: list, eol: str, faults: list) -> str:
    """CSV text of ``lines`` (cell draws) ended by ``eol``, with
    ``faults`` — ``(kind, line)`` pairs — applied: quote-free but for a
    ``quoted`` fault."""
    pools = [
        INT_CELLS if attribute.atype is AttributeType.INTEGER else ANY_CELLS
        for attribute in LINE_SCHEMAS[arity]
    ]
    lines = [
        [pool[cell % len(pool)] for pool, cell in zip(pools, cells)]
        for cells in lines
    ]
    ends = [eol] * len(lines)
    final = True
    for kind, at in faults:
        if not lines:
            break
        cells = lines[at % len(lines)]
        if kind == "bad_int" and arity > 1 and cells:
            cells[0] = "x"
        elif kind == "nul" and cells:
            cells[-1] += "\0"
        elif kind == "over_limit" and cells:
            cells[-1] = "k" * (FIELD_LIMIT + 1)
        elif kind == "at_limit" and cells:
            cells[-1] = "k" * FIELD_LIMIT
        elif kind == "wide" and arity > 1:
            # A line over the limit whose every field is within it.
            cells[1:] = ["w" * (FIELD_LIMIT - 1)] * (len(cells) - 1)
        elif kind == "blank":
            cells.clear()
        elif kind == "extra_field":
            cells.append("z")
        elif kind == "missing_field" and cells:
            cells.pop()
        elif kind == "bare_cr":
            ends[at % len(lines)] = "\r"
        elif kind == "mixed_end":
            ends[at % len(lines)] = "\n" if eol == "\r\n" else "\r\n"
        elif kind == "no_final_end":
            final = False
        elif kind == "quoted" and cells:
            # One quoted field where the line had its last two (or one).
            cells[-2:] = ['"' + ",".join(cells[-2:]) + '"']
    text = "".join(",".join(cells) + end for cells, end in zip(lines, ends))
    return text if final or not lines else text[: len(text) - len(ends[-1])]


def typing_events(records, arity: int, number: int, policy: str, error=None):
    """What typing ``records`` through the one slice loop does: its rows,
    each record it rejects (data-row number, fields, message) and the
    error it ends with (type, message, data-row number).  ``error``, the
    ``csv.Error`` that ended a split made before typing, is raised once
    the records are typed."""
    events: list = []

    def bad_record(row_number, record, exc):
        events.append(("bad", row_number, list(record), str(exc)))
        if policy == "raise":
            raise BadRowError("run.csv", row_number, str(exc)) from exc

    decoders = sources.payload_decoders(LINE_SCHEMAS[arity])
    try:
        for columns in csvio.typed_slices(
            records, number, decoders, bad_record
        ):
            events.extend(("row", row) for row in zip(*columns))
        if error is not None:
            raise error
    except (BadRowError, csv.Error) as exc:
        events.append(
            ("error", type(exc), str(exc), getattr(exc, "number", None))
        )
    return events


@given(
    st.sampled_from((1, 2, 3)),
    st.lists(st.lists(st.integers(0, 9), min_size=3, max_size=3), max_size=12),
    st.sampled_from(("\n", "\r\n")),
    st.lists(
        st.tuples(st.sampled_from(FAULTS), st.integers(0, 11)), max_size=3
    ),
    st.sampled_from((1, 2, 3, 5)),
    st.integers(0, 5),
    st.sampled_from(("raise", "skip")),
)
@settings(max_examples=600, deadline=None)
def test_typing_a_run_matches_typing_its_split_records(
    arity, lines, eol, faults, slice_size, number, policy
):
    """A run's text typed through the one loop — straight from its lines
    where the check lets it — against the field lists ``csv.reader``
    splits from the whole text typed by the same loop: the same rows, the
    same rejected records and the same error, after the same rows."""
    text = run_text(arity, lines, eol, faults)
    limit = csv.field_size_limit(FIELD_LIMIT)
    try:
        with patch.object(csvio, "TYPE_SLICE", slice_size):
            records, error = csvio.split_records(
                iter(RawText(text)), csv.Error
            )
            want = typing_events(records, arity, number, policy, error)
            run = RawText(text)
            got = typing_events(run, arity, number, policy)
    finally:
        csv.field_size_limit(limit)
    assert got == want
    # Typing took the text; only an error leaves records untyped.
    assert run.text == ""
    assert run.records == [] or got[-1][0] == "error"
