"""CSV import/export for relations.

Lets examples persist watermarked relations and re-load them for blind
detection in a separate process — the workflow a real rights-holder would
follow (mark, publish, later download the suspect copy and detect).

Typing has two forms.  :func:`parse_row` with :func:`cell_parsers` types
one record at a time and is the reference: it defines every value and
every error.  :func:`type_columns` with :func:`column_typers` types a
slice of records a column at a time, one C-level ``map`` per column, and
gives the same values or refuses the slice, which the reader then
re-types with ``parse_row``; :func:`type_records` zips its columns into
rows.  :func:`read_csv` and the chunked
:class:`repro.stream.CSVChunkSource` read through :class:`RecordSlices`.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Iterator
from itertools import islice
from pathlib import Path

from .domain import CategoricalDomain
from .schema import Attribute, Schema, infer_domains
from .table import Table
from .types import AttributeType

#: raw records per batch-typer call: a slice's transposed columns stay
#: cache-sized, and a chunked reader never holds a whole chunk's raw
#: records beside its typed rows
TYPE_SLICE = 2_048


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
    with open(path, newline="", encoding="utf-8") as handle:
        return _read(handle, schema, infer_categorical_domains,
                     name or Path(path).stem)


def loads_csv(
    text: str,
    schema: Schema,
    infer_categorical_domains: bool = True,
    name: str = "relation",
) -> Table:
    """Parse CSV ``text`` into a :class:`Table` (see :func:`read_csv`)."""
    return _read(io.StringIO(text), schema, infer_categorical_domains, name)


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


def _read(handle, schema: Schema, infer: bool, name: str) -> Table:
    reader = csv.reader(handle)
    header = next(reader, None)
    if header is None:
        return Table(schema, (), name=name)
    check_header(header, schema)
    records = RecordSlices(reader, schema)
    typed_rows: list[tuple] = []
    more = True
    while more:
        rows, more = records.typed(TYPE_SLICE, _reference_rows)
        typed_rows += rows
    effective = infer_domains(schema, typed_rows) if infer else schema
    return Table(effective, typed_rows, name=name)


def _reference_rows(records, parsers, arity: int, number: int) -> list:
    return [
        parse_row(row, parsers, arity, row_number)
        for row_number, row in enumerate(records, start=number + 1)
    ]


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


def type_records(records: list, typers, arity: int) -> list[tuple] | None:
    """:func:`type_columns` as the row tuples ``parse_row`` gives."""
    columns = type_columns(records, typers, arity)
    return None if columns is None else list(zip(*columns))


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


def _holding(reader, held: list) -> Iterator[list[str]]:
    """``reader``'s records, ending at the first read error, which is kept
    in ``held`` for :meth:`RecordSlices.typed` to raise.  Any exception
    counts: reading can fail in the OS, the decompressor, the text
    decoder or the CSV parser."""
    try:
        yield from reader
    except Exception as exc:
        held.append(exc)


class RecordSlices:
    """The data records of one ``csv.reader``, read and typed a bounded
    slice at a time.

    A read error (a truncated gzip stream, undecodable bytes, a
    ``csv.Error``) ends the slice it interrupts and is raised only after
    the records read before it are typed — so a bad record among them is
    reported first, in the order a record-at-a-time reader meets them.
    """

    def __init__(self, reader, schema: Schema, number: int = 0):
        self._held: list[Exception] = []
        self._records = _holding(reader, self._held)
        self._typers = column_typers(schema)
        self._parsers = cell_parsers(schema)
        self._arity = schema.arity
        #: data-row number of the last record read
        self.number = number

    def typed(self, count: int, retype) -> tuple[list[tuple], bool]:
        """Read up to ``count`` records and type them with
        :func:`type_records`.

        A slice it refuses goes to ``retype(records, parsers, arity,
        number)`` — ``number`` being the data-row number before the
        slice's first record — which types it record by record with
        :func:`parse_row`.  Returns the typed rows and whether the reader
        may hold more records.
        """
        records = list(islice(self._records, count))
        rows = type_records(records, self._typers, self._arity)
        if rows is None:
            rows = retype(records, self._parsers, self._arity, self.number)
        self.number += len(records)
        if self._held:
            raise self._held[0]
        return rows, len(records) == count


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
