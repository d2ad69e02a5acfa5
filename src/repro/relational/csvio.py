"""CSV import/export for relations.

Lets examples persist watermarked relations and re-load them for blind
detection in a separate process — the workflow a real rights-holder would
follow (mark, publish, later download the suspect copy and detect).

Every CSV record is read one way.  :class:`_Cutter` cuts a CSV byte
stream into runs of whole records at line ends (``\\n``, ``\\r\\n`` or a
bare ``\\r``), and a run holding no ``"`` is kept as its text,
:class:`RawText`, split into fields where it is typed.
:func:`read_csv`, :func:`loads_csv` and the chunked
:class:`repro.stream.CSVChunkSource` all read through it
(:func:`data_records`).

Typing has two forms.  :func:`parse_row` with :func:`cell_parsers` types
one record at a time and is the reference: it defines every value and
every error.  :func:`type_columns` with :func:`column_typers` types a
slice of records a column at a time, one C-level ``map`` per column, and
gives the same values or refuses the slice.  One loop,
:func:`typed_slices`, types every record read: a slice at a time with
``type_columns``, and a slice it refuses record by record with
``parse_row``, which hands each record it rejects to the reader's
bad-record rule; :func:`typed_rows` zips its columns into rows.
"""

from __future__ import annotations

import codecs
import csv
import gc
import io
import sys
import zlib
from collections.abc import Callable, Iterable, Iterator
from functools import partial
from itertools import chain, islice
from pathlib import Path
from typing import Any

import numpy as np

from .domain import CategoricalDomain
from .schema import Attribute, Schema, infer_domains
from .table import Table
from .types import AttributeType

#: raw records per batch-typer call: a slice's transposed columns stay
#: cache-sized, and a chunked reader never holds a whole chunk's raw
#: records beside its typed rows
TYPE_SLICE = 2_048

#: bytes the CSV cutter asks its stream for at a time.  It reads with
#: ``read1``, which returns every byte decoded before a read error, where
#: ``GzipFile.read`` drops the whole failing call on a truncated member.
CUT_BLOCK = 1 << 18

#: what reading a damaged file raises (the OS, the decompressor)
_READ_ERRORS = (EOFError, OSError, zlib.error)


def write_csv(table: Table, path: str | Path) -> None:
    """Write ``table`` to ``path`` with a header row of attribute names."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        _write(table, handle)


def dumps_csv(table: Table) -> str:
    """Render ``table`` as a CSV string (round-trips with :func:`loads_csv`)."""
    buffer = io.StringIO()
    _write(table, buffer)
    return buffer.getvalue()


def _write(table: Table, handle) -> None:
    writer = csv.writer(handle)
    writer.writerow(table.schema.names)
    for row in table:
        writer.writerow(row)


def read_csv(
    path: str | Path,
    schema: Schema,
    infer_categorical_domains: bool = True,
    name: str | None = None,
) -> Table:
    """Load ``path`` into a :class:`Table` under ``schema``.

    Cell text is parsed according to each attribute's declared type.  With
    ``infer_categorical_domains`` (the default), categorical domains are
    widened to include every observed value — the blind-detection situation,
    where only the suspect data defines the visible value set.
    """
    with open(path, "rb") as stream:
        return _read(stream, schema, infer_categorical_domains,
                     name or Path(path).stem)


def loads_csv(
    text: str,
    schema: Schema,
    infer_categorical_domains: bool = True,
    name: str = "relation",
) -> Table:
    """Parse CSV ``text`` into a :class:`Table` (see :func:`read_csv`)."""
    return _read(io.BytesIO(text.encode("utf-8")), schema,
                 infer_categorical_domains, name)


def _read(stream, schema: Schema, infer: bool, name: str) -> Table:
    cutter = data_records(stream, schema)
    if cutter is None:
        return Table(schema, (), name=name)
    decoders = cell_parsers(schema), column_typers(schema)
    rows = cutter.rows(sys.maxsize, decoders, _reject)
    effective = infer_domains(schema, rows) if infer else schema
    return Table(effective, rows, name=name)


def _reject(number: int, record: list[str], exc: ValueError) -> None:
    raise exc


def check_header(header, schema: Schema) -> None:
    """Reject a CSV header row that does not spell out ``schema.names``."""
    if tuple(header) != schema.names:
        raise ValueError(
            f"CSV header {tuple(header)} does not match schema {schema.names}"
        )


def parse_row(row: list[str], parsers, arity: int, number: int) -> tuple:
    """Type one CSV record, rejecting arity mismatches loudly.

    ``zip`` would silently drop surplus cells (and silently shorten the
    tuple on missing ones, surfacing later as a confusing schema error),
    so a malformed record — a stray delimiter, a half-written line — is
    reported with its data-row ``number`` instead.
    """
    if len(row) != arity:
        raise ValueError(
            f"CSV row {number} has {len(row)} fields, schema has {arity}"
        )
    return tuple(parse(cell) for parse, cell in zip(parsers, row))


def type_columns(records: list, typers, arity: int) -> list | None:
    """Type a slice of raw CSV records a column at a time.

    The batch form of :func:`parse_row`: the records are transposed and
    each column is typed by one :func:`column_typers` entry, which gives
    the values ``parse_row`` would give record by record, value types
    included.  Returns the typed columns in schema order, or ``None``
    instead of raising when some record would make ``parse_row`` raise
    (a wrong field count, a number that does not parse); the caller then
    re-types the slice record by record with ``parse_row``, which reports
    the exact error and row number.
    """
    if any(map(arity.__ne__, map(len, records))):
        return None
    try:
        return [
            typer(column) for typer, column in zip(typers, zip(*records))
        ]
    except ValueError:
        return None


def column_typers(schema: Schema) -> list:
    """Per-attribute column typers of :func:`type_columns`, in schema
    order: each maps a column of cell texts to the values its
    :func:`cell_parsers` entry gives cell by cell, raising ``ValueError``
    where that parser would."""
    return [_column_typer(attribute) for attribute in schema]


def _column_typer(attribute: Attribute):
    atype = attribute.atype
    if atype is AttributeType.INTEGER:
        return lambda column: list(map(int, column))
    if atype is AttributeType.REAL:
        return lambda column: list(map(float, column))
    if atype is AttributeType.STRING:
        return lambda column: column
    by_text = _values_by_text(attribute)
    lookup = by_text.__getitem__

    def categorical(column):
        try:
            return list(map(lookup, column))
        except KeyError:
            # Some cell misses the domain: the per-cell rule for all.
            return [
                by_text[cell] if cell in by_text else _sniff(cell)
                for cell in column
            ]

    return categorical


def typed_slices(
    records: list,
    number: int,
    decoders,
    bad_record: Callable[[int, list[str], ValueError], None],
    error: Exception | None = None,
) -> Iterator[list]:
    """The typed columns of ``records``, one :data:`TYPE_SLICE` slice at
    a time — the one slice-typing loop of every CSV reader.

    ``number`` is the data-row number before the first record and
    ``decoders`` the schema's :func:`cell_parsers` and
    :func:`column_typers`, built once per read.  A slice
    :func:`type_columns` refuses is re-typed record by record with
    :func:`parse_row`, and each record it rejects goes to
    ``bad_record(number, record, exc)``, which raises or drops it.
    ``error``, what ended the records early, is raised once they are
    typed, so a bad record among them is reported first — the order a
    record-at-a-time reader meets them in.

    ``records`` is consumed: each slice is deleted from it before it is
    typed, so typed values never sit beside all the raw records.
    """
    parsers, typers = decoders
    arity = len(parsers)
    while records:
        batch = records[:TYPE_SLICE]
        del records[:TYPE_SLICE]
        columns = type_columns(batch, typers, arity)
        if columns is None:
            rows = []
            for row_number, record in enumerate(batch, start=number + 1):
                try:
                    rows.append(parse_row(record, parsers, arity, row_number))
                except ValueError as exc:
                    bad_record(row_number, record, exc)
            columns = list(zip(*rows))
        number += len(batch)
        yield columns
    if error is not None:
        raise error


def typed_rows(
    records: list, number: int, decoders, bad_record, error=None
) -> list[tuple]:
    """:func:`typed_slices` as row tuples."""
    rows: list[tuple] = []
    for columns in typed_slices(records, number, decoders, bad_record, error):
        rows += zip(*columns)
    return rows


def data_records(stream, schema: Schema) -> _Cutter | None:
    """A cutter of the data records of the CSV byte ``stream``, whose
    header record it has read and checked against ``schema`` — ``None``
    when the stream is empty."""
    cutter = _Cutter(stream)
    header = next(iter(cutter.cut(1)[0]), None)
    if header is None:
        return None
    check_header(header, schema)
    return cutter


class RawText:
    """A run of CSV records as the text they were cut from — the raw
    payload of a :class:`~repro.stream.CSVChunkSource` run, split into
    fields where it is typed.

    Iterating it gives the field lists of ``csv.reader`` over
    ``io.StringIO(text, newline="")``, which splits lines exactly as a
    text file opened with ``newline=""`` does, so it reads like the
    list of field lists it stands for.
    """

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text

    def __iter__(self) -> Iterator[list[str]]:
        return csv.reader(io.StringIO(self.text, newline=""))


def split_records(
    records: Iterable[list[str]], errors
) -> tuple[list, Exception | None]:
    """The field lists of ``records`` (a :class:`RawText`, or field
    lists already split) and the exception of type ``errors`` that ended
    them early, if one did.

    The cyclic GC is paused meanwhile: a run's record lists all stay
    alive until it is typed, so a GC pass while they pile up would only
    re-scan them.
    """
    split: list = []
    collecting = gc.isenabled()
    gc.disable()
    try:
        split.extend(records)
    except errors as exc:
        return split, exc
    finally:
        if collecting:
            gc.enable()
    return split, None


def _line_ends(block: bytes) -> np.ndarray:
    """Offsets of the line ends in ``block`` as reading it as text finds
    them: every ``\\n``, and every ``\\r`` that a byte other than
    ``\\n`` follows."""
    codes = np.frombuffer(block, np.uint8)
    ends = codes == 10
    if b"\r" in block:
        cr = np.flatnonzero(codes[:-1] == 13)
        ends[cr[codes[cr + 1] != 10]] = True
    return np.flatnonzero(ends)


def _waits(after: bytes) -> bool:
    """Does a ``\\r`` that ``after`` follows, up to the end of the bytes
    read, wait for more: are they none, or a character cut short?  A
    text reader ends the line only at the character after the ``\\r``,
    so one cut short by a read error or the end of the input leaves the
    line unfinished."""
    try:
        return not codecs.getincrementaldecoder("utf-8")().decode(after)
    except UnicodeDecodeError:
        return False


class _Cutter:
    """Cuts a CSV byte stream into runs of whole records, in order — the
    one CSV record reader.

    The stream is read :data:`CUT_BLOCK` bytes at a time with ``read1``,
    and each block's line ends (:func:`_line_ends`) are found once.  N
    lines holding no ``"`` are exactly N records, so such a run is cut
    at its N-th line end and kept as :class:`RawText`.  Any other run is
    split by ``csv.reader`` here, over windows of whole lines read as
    the records need them (:meth:`_windows`), and kept as its field
    lists — unless a ``csv.Error`` ends it, which is left for the run's
    split to meet.  Text is decoded strictly here, so a decoding error
    surfaces after the whole records before the undecodable byte.  The
    buffer holds the run being cut, one window and one block.
    """

    def __init__(self, stream):
        self._stream = stream
        self._data = b""                    # bytes read; cut up to _head
        self._head = 0
        self._ends = np.empty(0, np.intp)   # line-end offsets in _data
        self._next = 0                      # first of _ends past _head
        self._cr = b""                      # a \r that waits, and what
                                            # follows it in _data
        self._eof = False
        self._error: Exception | None = None  # the read error, once met
        #: the last window :meth:`_windows` handed out: its offset from
        #: the head, its length in bytes, its text and the text's handle
        self._window: tuple = (0, 0, "", None)
        #: data-row number of the last record cut (the header is row 0)
        self.number = -1

    def rows(self, count: int, decoders, bad_record) -> list[tuple]:
        """Up to ``count`` typed rows of the next records, fewer only at
        the end of the input.

        Each record the typing rejects goes to ``bad_record`` (see
        :func:`typed_slices`).  Records are cut :data:`TYPE_SLICE` at a
        time, and never more than the rows still missing, so no cut runs
        past the last row: a bad record or read error after it is met by
        the next call, as reading one record at a time would meet it.  A
        read error is raised once the records before it are typed.
        """
        rows: list[tuple] = []
        while len(rows) < count:
            want = min(TYPE_SLICE, count - len(rows))
            typed = partial(
                typed_rows, number=self.number, decoders=decoders,
                bad_record=bad_record,
            )
            payload, cut = self.cut(want, typed)
            records, error = split_records(payload, csv.Error)
            rows += typed(records, error=error)
            if cut < want:
                break
        return rows

    def cut(self, count: int, before_error=None) -> tuple[Any, int]:
        """The next ``count`` records, fewer only at the end of the
        input: ``(payload, records)``.

        A read or decoding error met before the ``count``-th record is
        raised after ``before_error(records)`` is handed the whole
        records read before it.  A ``csv.Error`` ends the input instead:
        the run goes out as text, and splitting it meets the error.
        """
        self._fill(count)
        lines = len(self._ends) - self._next
        if lines >= count or self._eof:
            end = (
                int(self._ends[self._next + count - 1]) + 1
                if lines >= count else len(self._data)
            )
            run = self._data[self._head:end]
            if b'"' not in run:
                try:
                    text = run.decode("utf-8")
                except UnicodeDecodeError:
                    pass  # the exact split types what precedes it
                else:
                    taken = min(count, lines)
                    self._head = end
                    self._next += taken
                    # At the end of the input a last line may lack its
                    # line end: it is a record all the same.
                    tail = run[-1:] not in (b"", b"\n", b"\r")
                    self.number += taken + tail
                    return RawText(text), taken + tail
        return self._exact(count, before_error)

    def _exact(self, count: int, before_error) -> tuple[Any, int]:
        """The next ``count`` records split by ``csv.reader``, reading
        every window once: the records end where the reader stopped in
        the last window it was handed."""
        self._window = (0, 0, "", None)
        records, error = split_records(
            islice(csv.reader(chain.from_iterable(self._windows(count))),
                   count),
            (csv.Error, UnicodeDecodeError, *_READ_ERRORS),
        )
        at, size, text, handle = self._window
        if error is None:
            if handle is not None:
                used = handle.tell()
                at += used if text.isascii() else len(
                    text[:used].encode("utf-8")
                )
            self._head += at
            self._next = int(np.searchsorted(self._ends, self._head))
            self.number += len(records)
            return records, len(records)
        if isinstance(error, csv.Error):
            # Shipped as text, the run's split meets the same error
            # after the same records, so it surfaces in chunk order at
            # every worker count.  Nothing after it is read; the record
            # it ends in counts, so the run is never empty.
            text = self._data[self._head:self._head + at + size]
            self._head, self._next = len(self._data), len(self._ends)
            self._eof = True
            self.number += len(records) + 1
            return RawText(text.decode("utf-8")), len(records) + 1
        if before_error is not None:
            before_error(records)
        raise error

    def _windows(self, count: int) -> Iterator[io.StringIO]:
        """The text from the head as windows of up to ``count`` whole
        lines, each read and decoded when it is asked for (the last line
        of the input may lack its line end).  A read or decoding error is
        raised once the whole lines before it are handed out."""
        lines = 0                           # lines handed out
        while True:
            self._fill(lines + count)
            first = self._next + lines
            last = min(first + count, len(self._ends))
            begin = int(self._ends[first - 1]) + 1 if lines else self._head
            if last > first:
                end = int(self._ends[last - 1]) + 1
            elif not self._eof:
                raise self._error
            elif begin < len(self._data):
                end = len(self._data)
            else:
                return
            try:
                text = self._data[begin:end].decode("utf-8")
            except UnicodeDecodeError as exc:
                whole = int(np.searchsorted(self._ends, begin + exc.start))
                if whole > first:
                    end = int(self._ends[whole - 1]) + 1
                    yield self._hand_out(
                        begin, end, self._data[begin:end].decode("utf-8")
                    )
                raise
            yield self._hand_out(begin, end, text)
            if last == first:
                return
            lines = last - self._next

    def _hand_out(self, begin: int, end: int, text: str) -> io.StringIO:
        """The handle of ``text``, the window ``[begin, end)`` of the
        buffer, noted as the last window handed out."""
        handle = io.StringIO(text, newline="")
        self._window = (begin - self._head, end - begin, text, handle)
        return handle

    def _fill(self, lines: int) -> None:
        """Read blocks until ``lines`` line ends follow the head, or the
        input ends or fails."""
        have = len(self._ends) - self._next
        if have >= lines or self._eof or self._error is not None:
            return
        blocks = [memoryview(self._data)[self._head:]]
        ends = [self._ends[self._next:] - self._head]
        size = len(blocks[0])
        while have < lines:
            try:
                block = self._stream.read1(CUT_BLOCK)
            except _READ_ERRORS as exc:  # damaged file
                self._error = exc
                break
            if self._cr:
                after = self._cr[1:] + block[:4]
                if block and _waits(after):
                    self._cr += block
                    blocks.append(block)
                    size += len(block)
                    continue
                # At the end of the input only a final \r ends its line.
                if after[:1] != b"\n" and (block or not after):
                    ends.append(np.array([size - len(self._cr)], np.intp))
                    have += 1
                self._cr = b""
            if not block:
                self._eof = True
                break
            found = _line_ends(block)
            cr = block.rfind(b"\r", max(len(block) - 4, 0))
            if cr >= 0 and _waits(block[cr + 1:]):
                self._cr = block[cr:]
                found = found[found != cr]
            blocks.append(block)
            ends.append(found + size)
            size += len(block)
            have += len(found)
        self._data = b"".join(blocks)
        self._ends = np.concatenate(ends)
        self._head = self._next = 0


def cell_parsers(schema: Schema) -> list:
    """Per-attribute cell parsers of :func:`parse_row`, in schema order.

    The reference typing layer, which :func:`column_typers` reproduces a
    column at a time — one parser list built per file, not per row.
    """
    return [_cell_parser(schema.attribute(column)) for column in schema.names]


def _cell_parser(attribute: Attribute):
    """Parser restoring a cell's original Python type from CSV text.

    CSV is untyped, so categorical cells (which may be ints, strings, ...)
    are coerced by matching their text against the declared domain; text
    with no domain match falls back to numeric sniffing.  This keeps
    ``write_csv``/``read_csv`` a faithful round trip — essential for blind
    detection, where a value's *identity* (hence its canonical domain
    index) must survive publication.
    """
    if attribute.atype is not AttributeType.CATEGORICAL:
        return attribute.atype.parse
    by_text = _values_by_text(attribute)

    def parse(cell: str):
        if cell in by_text:
            return by_text[cell]
        return _sniff(cell)

    return parse


def _values_by_text(attribute: Attribute) -> dict[str, object]:
    """A categorical attribute's domain values keyed by their CSV text."""
    # First-wins on text collisions: a domain holding both 1 and "1"
    # renders identically, so the coercion is genuinely ambiguous — pin it
    # to the first value in canonical domain order (the same
    # first-encounter-wins rule the engine caches use) instead of leaving
    # it to dict-comprehension overwrite order.
    by_text: dict[str, object] = {}
    for value in (attribute.domain.values if attribute.domain else ()):
        by_text.setdefault(str(value), value)
    return by_text


def _sniff(cell: str):
    """Best-effort type recovery for out-of-domain categorical text."""
    try:
        return int(cell)
    except ValueError:
        pass
    try:
        return float(cell)
    except ValueError:
        return cell


def schema_for_csv(
    names: list[str],
    types: list[AttributeType],
    primary_key: str,
    categorical_values: dict[str, list] | None = None,
) -> Schema:
    """Convenience constructor for CSV-backed schemas.

    ``categorical_values`` seeds domains for categorical columns; columns
    without a seed get a placeholder single-value domain that
    :func:`read_csv` will widen on load.
    """
    categorical_values = categorical_values or {}
    attributes = []
    for attr_name, atype in zip(names, types):
        if atype is AttributeType.CATEGORICAL:
            seed = categorical_values.get(attr_name, ["<placeholder>"])
            attributes.append(
                Attribute(attr_name, atype, CategoricalDomain(seed))
            )
        else:
            attributes.append(Attribute(attr_name, atype))
    return Schema(attributes, primary_key=primary_key)
