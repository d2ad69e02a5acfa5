"""Chunk sources: bounded-memory readers over on-disk relations.

A :class:`ChunkSource` turns a relation that does not fit in memory — a
CSV file (plain or gzip), a SQLite table, a synthetic ``datagen`` row
stream — into chunks of a configurable row count.  Each source has one
reader, :meth:`~ChunkSource.payloads`: picklable :class:`ChunkTask` s
carrying every chunk in the cheapest form the source can produce.  One
function, :func:`build_chunk`, turns a task into its schema-typed
:class:`~repro.relational.Table` chunk wherever the chunk is computed —
in :meth:`ChunkSource.chunks`, in an in-process stream run, on the
pool's in-process fallback or in a pool worker.  That chunk is a fully
validated in-memory relation, so the existing embed/detect kernels run
on it unchanged; only the *pipeline* (``repro.stream.pipeline``) knows
the chunks are windows of one larger relation.

A CSV file is read by csvio's one record reader, which cuts the
decompressed bytes into runs of whole records at line ends
(:func:`~repro.relational.csvio.data_records`), whatever the bad-row
policy.  Its cheapest form is its raw text: under the default policy
each chunk's text travels as :class:`~repro.relational.csvio.RawText`
and is split into fields with the typing, where the chunk is built —
straight from its lines into typed columns where csvio's check proves
``csv.reader`` would split them the same way, by ``csv.reader``
elsewhere.  Only runs holding a quote, where a line need not be a
record, are split while reading.  The chunk table is then built from
those typed columns (:meth:`~repro.relational.Table.from_columns`): they
are checked as they are, zipped into row lists once and kept as the
table's column views.

VECTOR detection reads nothing of a chunk but its key and mark column
codes, so it builds raw CSV payloads with :func:`build_chunk_codes`
instead: the same typing loop and the same checks, done a column at a
time, then :class:`ChunkCodes` — validated column codes, no rows and no
table.  Every CSV record, raw or typed while reading, is typed by one
loop, :func:`~repro.relational.csvio.typed_slices`, so every chunk is
decoded by the same lines.

Chunks are yielded in file order, which the streaming detector relies on:
its accumulator preserves the global first-vote tie rule by merging chunk
tallies in physical row order.

Domain handling
---------------

``infer_domains=False`` (the default) types every chunk under the
*declared* schema — the marking regime, where the canonical domain
ordering must be identical across chunks (and identical to detection
time).  ``infer_domains=True`` widens categorical domains per chunk to
whatever values the chunk contains — the suspect-data regime, where an
attacked copy may hold out-of-domain values that must load, not raise;
streamed detection then decodes against an explicitly supplied canonical
domain, so the per-chunk widening never influences a verdict.
"""

from __future__ import annotations

import csv
import hashlib
import sqlite3
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, replace
from functools import partial
from itertools import islice
from pathlib import Path
from typing import Any

from ..datagen import (
    item_catalogue,
    item_scan_schema,
    iter_item_scan_rows,
)
from ..relational import ColumnCodes, Schema, Table, infer_domains
from ..relational.csvio import (
    cell_parsers,
    column_typers,
    count_records,
    data_records,
    open_csv,
    relation_name,
    typed_rows,
    typed_slices,
)
from ..relational.schema import infer_column_domains
from ..relational.table import factorize
from ..reliability.faults import fault_point
from ..reliability.integrity import (
    IntegrityError,
    _quote_identifier,
    digest_rows,
)
from .errors import BadRowError, StreamError

#: default rows per chunk — small enough that a chunk's Python objects
#: stay cache- and RAM-friendly, large enough to amortize kernel setup
DEFAULT_CHUNK_SIZE = 65_536


@dataclass
class ChunkColumns:
    """A raw chunk's typed columns, in schema order — what
    :func:`build_chunk` hands :func:`build_chunk_table` in place of the
    chunk's rows."""

    columns: list[list]


def build_chunk_table(
    schema: Schema,
    rows: list[tuple] | ChunkColumns,
    index: int,
    name: str,
    infer: bool,
    trusted: bool,
) -> Table:
    """Assemble one chunk :class:`Table` from typed rows, or from a raw
    chunk's typed columns.

    The single chunk-materialization rule behind :func:`build_chunk` —
    same inference, same trust shortcut, same name, wherever the chunk
    is built.  :class:`ChunkColumns` become the table column-wise
    (:meth:`~repro.relational.Table.from_columns`, domains inferred from
    the columns where the source infers), which hands columns its
    checks refuse to the row constructor for the exact error.
    """
    label = f"{name}[{index}]"
    if isinstance(rows, ChunkColumns):
        columns = rows.columns
        return Table.from_columns(
            infer_column_domains(schema, columns) if infer else schema,
            columns, name=label, trusted=infer or trusted,
        )
    if infer:
        # Inference widens every categorical domain over exactly these
        # rows, and the cell parsers typed the scalar columns — the
        # rows are valid under the widened schema by construction.
        return Table.from_trusted_rows(
            infer_domains(schema, rows), rows, name=label
        )
    if trusted:
        return Table.from_trusted_rows(schema, rows, name=label)
    return Table(schema, rows, name=label)


#: :class:`ChunkTask` payload kinds — what a task carries and how
#: :func:`build_chunk` materializes the chunk from it
PAYLOAD_RAW = "raw"        # CSV text or field lists, untyped (build_chunk)
PAYLOAD_TYPED = "typed"    # typed row tuples (build_chunk builds the Table)
PAYLOAD_TABLE = "table"    # a finished Table, used as is


@dataclass
class ChunkTask:
    """One chunk's work unit for the ordered stream run — picklable.

    ``payload`` is the cheapest representation the source can produce
    (see ``PAYLOAD_*``): a raw CSV chunk — its
    :class:`~repro.relational.csvio.RawText`, or the field lists of a run
    the reader had to split itself — leaves the field split and the
    typing (column-wise, see :func:`~repro.relational.csvio.type_lines`
    and :func:`~repro.relational.csvio.type_columns`) to
    :func:`build_chunk` or :func:`build_chunk_codes`, which on a pool
    run *in the worker* — what makes parallel file detection scale (the
    coordinator then only decompresses, cuts the text at line ends and
    pickles one string).
    """

    index: int
    kind: str
    payload: Any
    count: int
    #: 1-based data-row number preceding the first payload record (RAW
    #: payloads only) — keeps BadRowError messages identical to a
    #: record-at-a-time reader's
    first_row_number: int = 0
    #: originating file (RAW payloads) for error messages; ``None``
    #: means the profile's path applies
    origin: str | None = None


def payload_decoders(schema: Schema | None) -> tuple[list, list] | None:
    """The cell parsers and column typers :func:`build_chunk` types raw
    payloads with, built once per run (closures: never pickled)."""
    if schema is None:
        return None
    return cell_parsers(schema), column_typers(schema)


def _typed_slices(
    task: ChunkTask, profile: dict[str, Any], decoders
) -> Iterator[list]:
    """The typed columns of a raw task's records, one slice at a time —
    csvio's one slice-typing loop
    (:func:`~repro.relational.csvio.typed_slices`) as :func:`build_chunk`
    and :func:`build_chunk_codes` run it.

    A record the typing rejects raises
    :class:`~repro.stream.errors.BadRowError`, and a ``csv.Error`` that
    ends a split (a field over ``csv.field_size_limit()``) is raised
    once the records before it are typed.  The payload is consumed: a
    :class:`~repro.relational.csvio.RawText` swaps its text for its
    lines (or field lists), and each slice leaves the payload before it
    is typed, so typed values never sit beside a whole raw chunk.  That
    is safe because a task is built once: by the in-process run, by the
    pool's in-process fallback (which retires the pool first), or by a
    pool worker, which owns its unpickled copy — and no future is
    awaited for a task after the coordinator has built it.
    """
    origin = task.origin or profile["path"] or profile["name"]
    return typed_slices(
        task.payload, task.first_row_number, decoders,
        partial(_raise_bad_row, origin),
    )


def _typed_columns(
    task: ChunkTask, profile: dict[str, Any], decoders
) -> list[list]:
    """The typed columns of a raw task's records, in schema order: its
    :func:`_typed_slices` joined column by column."""
    columns: list[list] = [[] for _ in range(profile["schema"].arity)]
    for typed in _typed_slices(task, profile, decoders):
        for column, values in zip(columns, typed):
            column += values
    return columns


def _raise_bad_row(origin: str, number: int, record, exc: ValueError):
    raise BadRowError(origin, number, str(exc)) from exc


def build_chunk(task: ChunkTask, profile: dict[str, Any], decoders) -> Table:
    """Materialize one task into its chunk table — the build of every
    chunk that marking, the SCALAR reference and :meth:`ChunkSource.chunks`
    read, in process, on the degraded path and in pool workers (VECTOR
    detection builds raw payloads with :func:`build_chunk_codes`).

    ``profile`` is :func:`payload_profile` of the source and
    ``decoders`` its :func:`payload_decoders`.  A raw payload is typed
    and consumed by :func:`_typed_columns`, and the table built from its
    typed columns.
    """
    if task.kind == PAYLOAD_TABLE:
        return task.payload
    if task.kind == PAYLOAD_RAW:
        rows = ChunkColumns(_typed_columns(task, profile, decoders))
    else:
        rows = task.payload
    return build_chunk_table(
        profile["schema"], rows, task.index, profile["name"],
        infer=profile["infer"], trusted=profile["trusted"],
    )


class ChunkCodes:
    """One streamed chunk as the VECTOR vote kernels read it: its row
    count and the factorized columns they detect on (the key and the
    mark attribute), with no rows and no :class:`Table`.

    It answers ``column_codes(attribute)`` and ``len()`` like the chunk
    table would, with identical codes and uniques (both come from
    :func:`~repro.relational.table.factorize`).
    """

    __slots__ = ("_rows", "_codes")

    def __init__(self, rows: int, codes: dict[str, ColumnCodes]):
        self._rows = rows
        self._codes = codes

    def __len__(self) -> int:
        return self._rows

    def column_codes(self, attribute: str, build: bool = True) -> ColumnCodes:
        return self._codes[attribute]


def build_chunk_codes(
    task: ChunkTask,
    profile: dict[str, Any],
    decoders,
    attributes: tuple[str, ...],
) -> ChunkCodes | Table:
    """Materialize one task for VECTOR detection, which reads only the
    factorized ``attributes`` (key and mark) of a chunk — in process, on
    the degraded path and in pool workers alike.

    A raw payload is typed by :func:`_typed_columns`, exactly as
    :func:`build_chunk` types it, and checked a column at a time as the
    chunk table would check it: primary-key uniqueness and, unless the
    source infers domains or trusts its rows, the column check of
    :meth:`~repro.relational.Table.from_columns`,
    :meth:`~repro.relational.Schema.admits_columns`.  A chunk those
    checks prove valid becomes :class:`ChunkCodes`.  Any other chunk is
    built by :func:`build_chunk_table` from the columns already typed,
    which raises the exact error of :func:`build_chunk` (or returns the
    table, when the check was over-cautious).  Other payloads go through
    :func:`build_chunk`.
    """
    if task.kind != PAYLOAD_RAW:
        return build_chunk(task, profile, decoders)
    schema = profile["schema"]
    columns = _typed_columns(task, profile, decoders)
    keys = columns[schema.position(schema.primary_key)]
    if len(set(keys)) != len(keys) or not (
        profile["infer"] or profile["trusted"]
        or schema.admits_columns(columns)
    ):
        return build_chunk_table(
            schema, ChunkColumns(columns), task.index, profile["name"],
            infer=profile["infer"], trusted=profile["trusted"],
        )
    return ChunkCodes(len(keys), {
        attribute: factorize(
            columns[schema.position(attribute)],
            unique=attribute == schema.primary_key,
        )
        for attribute in attributes
    })


class ChunkSource:
    """Iterable of schema-typed :class:`Table` chunks of one relation.

    Subclasses implement :meth:`payloads`, the source's one reader:
    chunk tasks in file order from chunk ``start``, which skips that
    many whole chunks cheaply (raw records are consumed but never typed
    or validated) — what checkpoint resume uses.  :meth:`chunks` builds
    them.  A subclass may implement only :meth:`chunks` instead; stream
    runs then read its tables as they are (:func:`payload_chunks`).
    """

    schema: Schema
    chunk_size: int
    name: str

    def chunks(self, start: int = 0) -> Iterator[Table]:
        """The chunk tables from chunk ``start``: every task of
        :meth:`payloads` through :func:`build_chunk`."""
        profile = payload_profile(self)
        decoders = payload_decoders(self.schema)
        for task in self.payloads(start):
            yield build_chunk(task, profile, decoders)

    def __iter__(self) -> Iterator[Table]:
        return self.chunks()

    #: rows are schema-valid by construction (tuples of a validated
    #: table, generator output) — skip re-validation
    trusted_rows = False

    #: optional verified-read mode: a
    #: :class:`~repro.reliability.integrity.ChunkManifest` recorded at
    #: mark time; every chunk's row-content digest is recomputed and
    #: compared before the chunk is released downstream
    verify_manifest = None
    #: what to do with a mismatching chunk: ``"raise"`` aborts with
    #: :class:`~repro.reliability.integrity.IntegrityError`; ``"skip"``
    #: drops it (counted in ``corrupt_chunks``, feeding the quarantine
    #: policy's exactly-once accounting)
    on_corrupt_chunks = "raise"
    #: chunks dropped by verified-read during the most recent iteration
    corrupt_chunks = 0

    def _typed_tasks(
        self, read_rows: Callable[[], list[tuple]], start: int
    ) -> Iterator[ChunkTask]:
        """Tasks of the typed row lists ``read_rows()`` returns, until an
        empty one — the read loop of every source that types its own
        rows.

        Under a verified read each chunk is built and checked here, in
        the reading process: the table's own validation comes before the
        digest check, and a skipped chunk is counted exactly once.  The
        task then carries the finished table.
        """
        profile = payload_profile(self)
        index = start
        while True:
            # Injection point: a chunk read failing (disk error, NFS
            # hiccup) — the pipeline's retry layer re-opens the source at
            # the last completed chunk boundary.
            fault_point("source.read", index)
            rows = read_rows()
            if not rows:
                return
            task = ChunkTask(index, PAYLOAD_TYPED, rows, len(rows))
            if self.verify_manifest is not None:
                task = self._admit(task, profile)
            if task is not None:
                yield task
            index += 1

    def _admit(
        self, task: ChunkTask, profile: dict[str, Any]
    ) -> ChunkTask | None:
        """Verified-read gate: ``task`` as its finished table when the
        chunk matches the manifest, ``None`` when the skip policy drops
        it."""
        table = build_chunk(task, profile, None)
        ok, reason = self._verify_chunk(table, task.index)
        if ok:
            return ChunkTask(task.index, PAYLOAD_TABLE, table, task.count)
        if self.on_corrupt_chunks != CORRUPT_SKIP:
            raise IntegrityError(
                getattr(self, "path", self.name), reason, chunk=task.index
            )
        self.corrupt_chunks += 1
        return None

    def _verify_chunk(self, table: Table, index: int) -> tuple[bool, str]:
        """Row-content check: the default for row-canonical manifests
        (SQLite's rowid ranges, in-memory tables).  Byte-canonical file
        sources override this to hash the on-disk segment instead."""
        entries = self.verify_manifest.entries
        expected = (
            entries[index].rows_digest if index < len(entries) else None
        )
        if not expected:
            return False, "chunk has no manifest entry"
        if digest_rows(table) == expected:
            return True, ""
        return False, "row-content digest mismatch"


def source_schema(source) -> Schema | None:
    """The declared schema of ``source`` when it carries one."""
    return getattr(source, "schema", None)


def source_chunk_size(source) -> int:
    """The rows per chunk of ``source``; :data:`DEFAULT_CHUNK_SIZE` for a
    plain iterable."""
    return getattr(source, "chunk_size", DEFAULT_CHUNK_SIZE)


def payload_profile(source) -> dict[str, Any]:
    """Source-level constants :func:`build_chunk` needs to materialize
    the source's :class:`ChunkTask` s — shipped once in the pool
    initializer, never per chunk."""
    path = getattr(source, "path", None)
    return {
        "schema": source_schema(source),
        "infer": getattr(source, "infer", False),
        "trusted": getattr(source, "trusted_rows", False),
        "name": getattr(source, "name", "stream"),
        "path": str(path) if path is not None else None,
    }


def payload_chunks(source, start: int = 0) -> Iterator[ChunkTask]:
    """The chunk tasks of ``source`` from chunk ``start`` — what every
    stream run reads, in process and on a pool.

    A source's :meth:`~ChunkSource.payloads` ships its cheapest form.  A
    source that implements only ``chunks()``, and any plain iterable of
    :class:`Table` objects (handy for tests and in-memory pipelines),
    ship their tables as they are.  Plain iterables cannot skip, so
    ``start > 0`` — checkpoint resume — requires a real source.
    """
    if hasattr(source, "payloads"):
        return source.payloads(start)
    if hasattr(source, "chunks"):
        chunks = source.chunks(start)
    elif start:
        raise StreamError(
            "resuming needs a restartable ChunkSource, not a plain iterable"
        )
    else:
        chunks = iter(source)
    return (
        ChunkTask(index, PAYLOAD_TABLE, chunk, len(chunk))
        for index, chunk in enumerate(chunks, start)
    )


#: bad-row policies of :class:`CSVChunkSource`
BAD_ROWS_RAISE = "raise"
BAD_ROWS_SKIP = "skip"
BAD_ROWS_QUARANTINE = "quarantine"
BAD_ROWS_POLICIES = (BAD_ROWS_RAISE, BAD_ROWS_SKIP, BAD_ROWS_QUARANTINE)

#: verified-read policies (``on_corrupt_chunks``) of the file sources
CORRUPT_RAISE = "raise"
CORRUPT_SKIP = "skip"
CORRUPT_POLICIES = (CORRUPT_RAISE, CORRUPT_SKIP)


class CSVChunkSource(ChunkSource):
    """Chunked reader over a CSV file (gzip detected automatically).

    The file is opened, read and typed exactly as
    :func:`repro.relational.read_csv` opens, reads and types it (gzip
    by its magic bytes, :func:`~repro.relational.csvio.open_csv`), so a
    relation round-trips through ``write_csv`` / streamed reading
    value-identically: csvio's one cutter cuts its records under every
    ``on_bad_rows`` policy, and csvio's one slice loop
    (:func:`~repro.relational.csvio.typed_slices`) types slices of at
    most :data:`~repro.relational.csvio.TYPE_SLICE` records that never
    run past a chunk's last record a column at a time, re-typing a slice
    it refuses record by record with ``parse_row``.  Quoted fields may
    contain delimiters and newlines.

    ``on_bad_rows`` decides what happens to a record the schema cannot
    type (wrong field count — a stray delimiter, a half-written line):

    * ``"raise"`` (default, the historical behavior) — abort with
      :class:`~repro.stream.errors.BadRowError` naming the data-row
      number;
    * ``"skip"`` — drop the record, counting it in ``bad_row_count``;
    * ``"quarantine"`` — drop it *and* append ``(row number, error, raw
      fields)`` to a CSV sidecar (``quarantine_path``, default
      ``<input>.quarantine.csv``) so no byte of input is silently lost.

    Both lossy policies count surviving rows for chunk boundaries, so a
    checkpointed resume re-applies the same policy while skipping and
    lands on identical chunks.
    """

    def __init__(
        self,
        path: str | Path,
        schema: Schema,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        infer_domains: bool = False,
        name: str | None = None,
        on_bad_rows: str = BAD_ROWS_RAISE,
        quarantine_path: str | Path | None = None,
        verify_manifest=None,
        on_corrupt_chunks: str = CORRUPT_RAISE,
    ):
        if chunk_size <= 0:
            raise StreamError(f"chunk size must be positive, got {chunk_size}")
        if on_bad_rows not in BAD_ROWS_POLICIES:
            raise StreamError(
                f"on_bad_rows must be one of {BAD_ROWS_POLICIES}, "
                f"got {on_bad_rows!r}"
            )
        if on_corrupt_chunks not in CORRUPT_POLICIES:
            raise StreamError(
                f"on_corrupt_chunks must be one of {CORRUPT_POLICIES}, "
                f"got {on_corrupt_chunks!r}"
            )
        self.verify_manifest = verify_manifest
        self.on_corrupt_chunks = on_corrupt_chunks
        self.path = Path(path)
        self.schema = schema
        self.chunk_size = chunk_size
        self.infer = infer_domains
        self.name = name or relation_name(self.path)
        self.on_bad_rows = on_bad_rows
        self.quarantine_path = (
            Path(quarantine_path) if quarantine_path is not None
            else self.path.with_name(self.path.name + ".quarantine.csv")
        )
        #: malformed records seen by the most recent iteration
        self.bad_row_count = 0
        #: subset of ``bad_row_count`` written to the sidecar
        self.quarantined_rows = 0
        #: subset of ``bad_row_count`` re-seen during the resume
        #: fast-forward — rows the *interrupted* run already counted (and
        #: quarantined).  Exactly-once contract: a resumed run's final
        #: ``bad_row_count`` equals an uninterrupted run's, because the
        #: sidecar is deterministically rewritten (``"w"`` mode) with the
        #: identical prefix rather than appended to, and chunk boundaries
        #: count surviving rows — the re-seen bad rows are the same
        #: physical records, not new ones.
        self.fastforward_bad_rows = 0
        self._sidecar = None
        self._sidecar_writer = None

    def payloads(self, start: int = 0) -> Iterator[ChunkTask]:
        """Chunk tasks from chunk ``start``, cut from the file by csvio's
        one record reader under every policy.

        Under the default ``raise`` policy the payload is the chunk's
        *raw* text (:meth:`_text_tasks`): splitting fields and typing
        them are most of the cost of file decoding, and
        :func:`build_chunk` does both where the chunk is computed — on a
        pool, in the workers, which is what lets parallel detection beat
        one process.  The lossy policies must count surviving rows for
        chunk boundaries (and write the quarantine sidecar) in one
        deterministic place, and a verified read checks each chunk
        exactly once, so both type rows here, in slices that never run
        past a chunk's last row.
        """
        self.bad_row_count = 0
        self.quarantined_rows = 0
        self.fastforward_bad_rows = 0
        self.corrupt_chunks = 0
        try:
            with open_csv(self.path) as stream:
                cutter = data_records(stream, self.schema)
                if cutter is None:
                    return
                if self.on_bad_rows == BAD_ROWS_RAISE:
                    # A resume skips raw records, split (a csv.Error among
                    # them still surfaces) but never typed: every one was
                    # a typed row of the interrupted run (a bad one would
                    # have aborted it before the checkpoint landed).
                    for _ in range(start):
                        skipped, count = cutter.cut(self.chunk_size)
                        for _ in skipped:
                            pass
                        if count < self.chunk_size:
                            return
                    if self.verify_manifest is None:
                        yield from self._text_tasks(cutter, start)
                        return
                read_rows = partial(
                    cutter.rows, self.chunk_size,
                    payload_decoders(self.schema), self._bad_record,
                )
                if self.on_bad_rows != BAD_ROWS_RAISE:
                    # Chunk boundaries count *surviving* rows, so the
                    # fast-forward must apply the same bad-row policy
                    # (re-quarantining deterministically rewrites the
                    # sidecar with identical content).
                    for _ in range(start):
                        read_rows()
                    self.fastforward_bad_rows = self.bad_row_count
                yield from self._typed_tasks(read_rows, start)
        finally:
            self._close_sidecar()

    def _text_tasks(self, cutter, start: int) -> Iterator[ChunkTask]:
        """Raw-text tasks from chunk ``start``.  A read error ends a
        chunk's records early: they are typed first, so a bad one among
        them is what is reported, as a record-at-a-time reader meets
        them."""
        decoders = payload_decoders(self.schema)
        index = start
        while True:
            fault_point("source.read", index)
            number = cutter.number
            payload, count = cutter.cut(self.chunk_size, partial(
                typed_rows, number=number, decoders=decoders,
                bad_record=self._bad_record,
            ))
            if not count:
                return
            yield ChunkTask(
                index, PAYLOAD_RAW, payload, count,
                first_row_number=number, origin=str(self.path),
            )
            index += 1

    def _bad_record(self, number: int, record: list, exc: ValueError):
        """Apply ``on_bad_rows`` to a record ``parse_row`` rejects."""
        if self.on_bad_rows == BAD_ROWS_RAISE:
            raise BadRowError(self.path, number, str(exc)) from exc
        self.bad_row_count += 1
        if self.on_bad_rows == BAD_ROWS_QUARANTINE:
            self._quarantine(number, record, exc)

    def _verify_chunk(self, table: Table, index: int) -> tuple[bool, str]:
        # CSV files are byte-canonical, so a verified read checks the
        # same thing the sink recorded and an audit would check: the
        # sha256 of the chunk's on-disk ``[start, end)`` segment (for
        # gzip, the compressed member) — cheaper than re-digesting rows
        # and sensitive to any rot, parseable or not.
        manifest = self.verify_manifest
        if manifest.kind != "bytes":
            return super()._verify_chunk(table, index)
        entries = manifest.entries
        entry = entries[index] if index < len(entries) else None
        if entry is None:
            return False, "chunk has no manifest entry"
        with open(self.path, "rb") as handle:
            handle.seek(entry.start)
            data = handle.read(entry.end - entry.start)
        if (
            len(data) == entry.end - entry.start
            and hashlib.sha256(data).hexdigest() == entry.digest
        ):
            return True, ""
        return False, "byte-segment digest mismatch"

    def _quarantine(self, number: int, row: list, exc: Exception) -> None:
        if self._sidecar is None:
            self._sidecar = open(
                self.quarantine_path, "w", newline="", encoding="utf-8"
            )
            self._sidecar_writer = csv.writer(self._sidecar)
            self._sidecar_writer.writerow(["row_number", "error", "fields"])
        self._sidecar_writer.writerow([number, str(exc), *row])
        self.quarantined_rows += 1

    def _close_sidecar(self) -> None:
        if self._sidecar is not None:
            self._sidecar.close()
            self._sidecar = None
            self._sidecar_writer = None


def resolve_sqlite_table(path: str | Path, preferred: str | None) -> str:
    """The table to read from a SQLite database.

    ``preferred`` (when given) is used verbatim — a typo'd explicit name
    must fail loudly in SQL, not silently fall back to a different
    table.  Without a preference, the sink's default name ``relation``
    wins when present, a single-table database names itself, and
    anything ambiguous raises.
    """
    if preferred is not None:
        return preferred
    connection = sqlite3.connect(path)
    try:
        tables = [
            row[0]
            for row in connection.execute(
                "SELECT name FROM sqlite_master WHERE type='table' "
                "ORDER BY name"
            )
        ]
    finally:
        connection.close()
    if "relation" in tables:
        return "relation"
    if len(tables) == 1:
        return tables[0]
    raise StreamError(
        f"cannot pick a table in {path}: found {tables!r}; pass table="
    )


class SQLiteChunkSource(ChunkSource):
    """Chunked reader over one table of a SQLite database.

    Rows are read in ``rowid`` order — insertion order, the database's
    physical row order — via ``fetchmany``, so only one chunk of cursor
    results is materialized at a time.  SQLite returns natively typed
    values (int/float/str/bytes), which are validated against the schema
    per chunk exactly like CSV cells.  ``table=None`` (the default)
    auto-resolves via :func:`resolve_sqlite_table`.
    """

    def __init__(
        self,
        path: str | Path,
        schema: Schema,
        table: str | None = None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        infer_domains: bool = False,
        name: str | None = None,
        verify_manifest=None,
        on_corrupt_chunks: str = CORRUPT_RAISE,
    ):
        if chunk_size <= 0:
            raise StreamError(f"chunk size must be positive, got {chunk_size}")
        if on_corrupt_chunks not in CORRUPT_POLICIES:
            raise StreamError(
                f"on_corrupt_chunks must be one of {CORRUPT_POLICIES}, "
                f"got {on_corrupt_chunks!r}"
            )
        self.path = Path(path)
        self.schema = schema
        self.table = table
        self.chunk_size = chunk_size
        self.infer = infer_domains
        self.name = name or table or self.path.stem
        self.verify_manifest = verify_manifest
        self.on_corrupt_chunks = on_corrupt_chunks

    def payloads(self, start: int = 0) -> Iterator[ChunkTask]:
        """Typed-row tasks: SQLite already typed the values, so
        :func:`build_chunk` only validates and builds (``trusted`` is
        False — the database enforces affinity, not the declared
        schema)."""
        table = resolve_sqlite_table(self.path, self.table)
        self.corrupt_chunks = 0
        connection = sqlite3.connect(self.path)
        try:
            columns = ", ".join(
                _quote_identifier(column) for column in self.schema.names
            )
            cursor = connection.execute(
                f"SELECT {columns} FROM {_quote_identifier(table)} "
                f"ORDER BY rowid LIMIT -1 OFFSET ?",
                (start * self.chunk_size,),
            )
            yield from self._typed_tasks(
                partial(cursor.fetchmany, self.chunk_size), start
            )
        finally:
            connection.close()


class SyntheticChunkSource(ChunkSource):
    """Chunked view over a restartable ``datagen`` row stream.

    ``rows_factory`` must return a *fresh* iterator of rows on every call
    (the lazy ``iter_*_rows`` generators of :mod:`repro.datagen` qualify):
    that is what makes the source re-iterable and resumable — a skip is a
    deterministic fast-forward through the same pseudo-random stream.
    Rows must be schema-valid; they are adopted without validation (the
    generators draw from the schema's own domains).
    """

    trusted_rows = True

    def __init__(
        self,
        schema: Schema,
        rows_factory: Callable[[], Iterable[tuple]],
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        name: str = "synthetic",
    ):
        if chunk_size <= 0:
            raise StreamError(f"chunk size must be positive, got {chunk_size}")
        self.schema = schema
        self.rows_factory = rows_factory
        self.chunk_size = chunk_size
        self.name = name

    def payloads(self, start: int = 0) -> Iterator[ChunkTask]:
        """Typed trusted-row tasks (the generators draw from the schema's
        own domains)."""
        rows = iter(self.rows_factory())
        for _ in islice(rows, start * self.chunk_size):
            pass
        yield from self._typed_tasks(
            lambda: list(islice(rows, self.chunk_size)), start
        )


def item_scan_source(
    tuple_count: int,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    item_count: int = 500,
    zipf_exponent: float = 1.05,
    seed: int | str = 0,
) -> SyntheticChunkSource:
    """A synthetic ``ItemScan`` stream of ``tuple_count`` rows.

    The million-row bench substrate: paper-shaped data with O(chunk)
    memory however large ``tuple_count`` grows.
    """
    schema = item_scan_schema(item_catalogue(item_count))
    return SyntheticChunkSource(
        schema,
        lambda: iter_item_scan_rows(
            tuple_count, item_count, zipf_exponent, seed
        ),
        chunk_size=chunk_size,
        name="ItemScanStream",
    )


class TableChunkSource(ChunkSource):
    """Chunked view over an in-memory :class:`Table`.

    The equivalence-test (and overhead-measurement) source: streaming a
    table through chunks of any size must reproduce the in-memory verdict
    bit for bit.  Chunks are :meth:`Table.take` windows — copy-on-write
    row sharing, no re-validation, and any fresh cached factorization of
    the base column arrives as a gather — so the source measures the
    *pipeline's* overhead, not redundant row copying.
    """

    #: rows of a validated Table are schema-valid by construction
    trusted_rows = True

    def __init__(
        self,
        table: Table,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        name: str | None = None,
    ):
        if chunk_size <= 0:
            raise StreamError(f"chunk size must be positive, got {chunk_size}")
        self.table = table
        self.schema = table.schema
        self.chunk_size = chunk_size
        self.name = name or table.name

    def payloads(self, start: int = 0) -> Iterator[ChunkTask]:
        """Table tasks of the chunks' :meth:`Table.take` windows."""
        total = len(self.table)
        index = start
        for begin in range(start * self.chunk_size, total, self.chunk_size):
            # Same injection surface as the file-backed sources: chaos
            # scenarios address "source.read" whatever the source type.
            fault_point("source.read", index)
            window = self.table.take(
                range(begin, min(begin + self.chunk_size, total)),
                name=f"{self.name}[{index}]",
            )
            yield ChunkTask(index, PAYLOAD_TABLE, window, len(window))
            index += 1


class MultiFileChunkSource(ChunkSource):
    """Concatenation of several same-schema sources — multi-file inputs.

    Chunks keep each file's own boundaries (the last chunk of every file
    may be ragged) and global chunk indices run file by file in the given
    order, so the parallel pipeline fans files across workers while the
    strictly ordered accumulator merge preserves the global row order:
    the verdict is bit-identical to an in-memory verify over the files'
    concatenated rows.

    All children must share one declared schema and the same typing rules
    (``infer_domains``, trusted rows) — :func:`build_chunk` materializes
    every file's tasks under this source's one profile.  Resume-style
    skips (``start > 0``) read and discard the skipped chunks' payloads;
    checkpointed embeds over huge multi-file inputs should prefer one
    run per file.
    """

    def __init__(self, sources, name: str | None = None):
        sources = list(sources)
        if not sources:
            raise StreamError(
                "MultiFileChunkSource needs at least one source"
            )
        first = sources[0]
        schema = source_schema(first)
        if schema is None:
            raise StreamError(
                "MultiFileChunkSource needs schema-carrying sources"
            )
        infer = getattr(first, "infer", False)
        trusted = getattr(first, "trusted_rows", False)
        for other in sources[1:]:
            if source_schema(other) != schema:
                raise StreamError(
                    "all sources of a MultiFileChunkSource must share "
                    "one declared schema"
                )
            if (
                getattr(other, "infer", False) != infer
                or getattr(other, "trusted_rows", False) != trusted
            ):
                raise StreamError(
                    "all sources of a MultiFileChunkSource must share "
                    "the same infer_domains / trusted-row typing rules"
                )
        self.sources = sources
        self.schema = schema
        self.infer = infer
        self.trusted_rows = trusted
        self.chunk_size = max(source_chunk_size(source) for source in sources)
        self.name = name or "+".join(
            getattr(source, "name", "stream") for source in sources
        )

    def payloads(self, start: int = 0) -> Iterator[ChunkTask]:
        index = 0
        for source in self.sources:
            for task in payload_chunks(source):
                if index >= start:
                    yield replace(task, index=index)
                index += 1

    # Aggregated read telemetry (the pipeline reads these attributes off
    # whatever source it was handed).
    @property
    def bad_row_count(self) -> int:
        return self._total("bad_row_count")

    @property
    def quarantined_rows(self) -> int:
        return self._total("quarantined_rows")

    @property
    def corrupt_chunks(self) -> int:
        return self._total("corrupt_chunks")

    def _total(self, counter: str) -> int:
        return sum(getattr(source, counter, 0) for source in self.sources)


def open_source(
    path: str | Path,
    schema: Schema,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    infer_domains: bool = False,
    table: str | None = None,
    on_bad_rows: str = BAD_ROWS_RAISE,
) -> ChunkSource:
    """A chunk source for ``path`` picked by file type.

    SQLite databases (by suffix ``.sqlite`` / ``.sqlite3`` / ``.db``, or
    by magic when the file exists) get a :class:`SQLiteChunkSource`;
    everything else is treated as CSV (gzip detected automatically).
    ``on_bad_rows`` is the CSV malformed-record policy; SQLite rows are
    already typed by the database, so any non-default policy there is a
    configuration error.
    """
    path = Path(path)
    if _is_sqlite_path(path):
        if on_bad_rows != BAD_ROWS_RAISE:
            raise StreamError(
                "on_bad_rows applies to CSV sources only (SQLite rows "
                "are already typed)"
            )
        return SQLiteChunkSource(
            path, schema, table=table, chunk_size=chunk_size,
            infer_domains=infer_domains,
        )
    return CSVChunkSource(
        path, schema, chunk_size=chunk_size, infer_domains=infer_domains,
        on_bad_rows=on_bad_rows,
    )


def open_sources(
    paths,
    schema: Schema,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    infer_domains: bool = False,
    table: str | None = None,
    on_bad_rows: str = BAD_ROWS_RAISE,
) -> ChunkSource:
    """One chunk source over ``paths``: a plain :func:`open_source` for a
    single path, a :class:`MultiFileChunkSource` concatenation for
    several (the CLI's repeated ``--input``)."""
    paths = [paths] if isinstance(paths, (str, Path)) else list(paths)
    sources = [
        open_source(
            path, schema, chunk_size=chunk_size,
            infer_domains=infer_domains, table=table,
            on_bad_rows=on_bad_rows,
        )
        for path in paths
    ]
    if len(sources) == 1:
        return sources[0]
    return MultiFileChunkSource(sources)


#: suffixes of a SQLite file, the one rule of sources and sinks (a
#: source sniffs an existing file's magic first)
SQLITE_SUFFIXES = frozenset({".sqlite", ".sqlite3", ".db"})
_SQLITE_MAGIC = b"SQLite format 3\x00"


def _is_sqlite_path(path: Path) -> bool:
    if path.exists() and path.stat().st_size >= len(_SQLITE_MAGIC):
        with open(path, "rb") as probe:
            return probe.read(len(_SQLITE_MAGIC)) == _SQLITE_MAGIC
    return path.suffix in SQLITE_SUFFIXES


def count_data_rows(path: str | Path, table: str | None = None) -> int:
    """Number of data rows in a file without typing a single cell.

    Used by the CLI to fill in the paper's nominal channel length
    (``max(|wm|, N/e)``) for a file-mode embed, where the relation is
    never whole in memory.  CSV records are counted as ``csv.reader``
    counts them, by csvio's cutter
    (:func:`~repro.relational.csvio.count_records`: quoted embedded
    newlines are one record, not two); SQLite asks the database — the
    same table :class:`SQLiteChunkSource` would read.
    """
    path = Path(path)
    if _is_sqlite_path(path):
        resolved = resolve_sqlite_table(path, table)
        connection = sqlite3.connect(path)
        try:
            return connection.execute(
                f"SELECT COUNT(*) FROM {_quote_identifier(resolved)}"
            ).fetchone()[0]
        finally:
            connection.close()
    return count_records(path)
