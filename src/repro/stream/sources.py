"""Chunk sources: bounded-memory readers over on-disk relations.

A :class:`ChunkSource` turns a relation that does not fit in memory — a
CSV file (plain or gzip), a SQLite table, a synthetic ``datagen`` row
stream — into an iterator of schema-typed :class:`~repro.relational.Table`
chunks of a configurable row count.  Every chunk is a fully validated
in-memory relation, so the existing embed/detect kernels run on it
unchanged; only the *pipeline* (``repro.stream.pipeline``) knows the
chunks are windows of one larger relation.

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
import gzip
import hashlib
import sqlite3
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from functools import partial
from itertools import islice
from pathlib import Path
from typing import Any

from ..datagen import (
    item_catalogue,
    item_scan_schema,
    iter_item_scan_rows,
)
from ..relational import Schema, Table, infer_domains
from ..relational.csvio import (
    TYPE_SLICE,
    RecordSlices,
    check_header,
    parse_row,
)
from ..reliability.faults import fault_point
from ..reliability.integrity import IntegrityError, digest_rows
from .errors import BadRowError, StreamError

#: default rows per chunk — small enough that a chunk's Python objects
#: stay cache- and RAM-friendly, large enough to amortize kernel setup
DEFAULT_CHUNK_SIZE = 65_536

_GZIP_MAGIC = b"\x1f\x8b"


def is_gzip_path(path: str | Path) -> bool:
    """Does ``path`` hold a gzip stream?  (Magic bytes when the file
    exists, ``.gz`` suffix otherwise — so sinks can decide before the
    file does.)"""
    path = Path(path)
    if path.exists() and path.stat().st_size >= 2:
        with open(path, "rb") as probe:
            return probe.read(2) == _GZIP_MAGIC
    return path.suffix == ".gz"


def open_text(path: str | Path):
    """Open a (possibly gzip-compressed) text file for reading."""
    if is_gzip_path(path):
        return gzip.open(path, "rt", encoding="utf-8", newline="")
    return open(path, newline="", encoding="utf-8")


def build_chunk_table(
    schema: Schema,
    rows: list[tuple],
    index: int,
    name: str,
    infer: bool,
    trusted: bool,
) -> Table:
    """Assemble one chunk :class:`Table` from typed rows.

    The single chunk-materialization rule, shared by the serial sources
    and the parallel workers (which receive rows as picklable payloads
    and must type them into the *identical* table the serial path would
    build — same inference, same trust shortcut, same name).
    """
    label = f"{name}[{index}]"
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


#: :class:`ChunkTask` payload kinds — what a parallel worker receives
#: and how it must materialize the chunk from it
PAYLOAD_RAW = "raw"        # untyped CSV field lists (worker types them)
PAYLOAD_TYPED = "typed"    # typed row tuples (worker builds the Table)
PAYLOAD_TABLE = "table"    # a finished Table (pickled whole)


@dataclass
class ChunkTask:
    """One chunk's work unit for the ordered stream run — picklable.

    In process, ``payload`` is the typed chunk table.  For a pool it is
    the cheapest representation the source can produce without typing
    work: raw CSV field lists keep the typing (column-wise, see
    :func:`~repro.relational.csvio.type_records`) *in the worker*, which
    is what makes parallel file detection scale (the coordinator then
    only reads records and pickles strings).
    """

    index: int
    kind: str
    payload: Any
    count: int
    #: 1-based data-row number preceding the first payload record (RAW
    #: payloads only) — keeps worker-side BadRowError messages identical
    #: to the serial reader's
    first_row_number: int = 0
    #: originating file (RAW payloads of multi-file sources) for error
    #: messages; ``None`` means the pool profile's path applies
    origin: str | None = None


class ChunkSource:
    """Iterable of schema-typed :class:`Table` chunks of one relation.

    Subclasses implement :meth:`chunks`; ``start`` skips that many whole
    chunks cheaply (raw records are consumed but never typed or
    validated), which is what checkpoint resume uses.
    """

    schema: Schema
    chunk_size: int
    name: str

    def chunks(self, start: int = 0) -> Iterator[Table]:
        raise NotImplementedError

    def __iter__(self) -> Iterator[Table]:
        return self.chunks()

    # -- shared chunk assembly -------------------------------------------------
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

    def _table(self, rows: list[tuple], index: int, infer: bool) -> Table:
        return build_chunk_table(
            self.schema, rows, index, self.name, infer, self.trusted_rows
        )

    def _admit(self, table: Table, index: int) -> bool:
        """Verified-read gate: does chunk ``index`` match the manifest?"""
        if self.verify_manifest is None:
            return True
        ok, reason = self._verify_chunk(table, index)
        if ok:
            return True
        if self.on_corrupt_chunks != CORRUPT_SKIP:
            raise IntegrityError(
                getattr(self, "path", self.name), reason, chunk=index
            )
        self.corrupt_chunks += 1
        return False

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

    def _batched(
        self, read_rows: Callable[[], list[tuple]], start: int, infer: bool
    ) -> Iterator[Table]:
        """Chunk tables of the row lists ``read_rows()`` returns, until
        an empty one."""
        index = start
        while True:
            # Injection point: a chunk read failing (disk error, NFS
            # hiccup) — the pipeline's retry layer re-opens the source at
            # the last completed chunk boundary.
            fault_point("source.read", index)
            batch = read_rows()
            if not batch:
                return
            table = self._table(batch, index, infer)
            if self._admit(table, index):
                yield table
            index += 1


def resolve_chunks(source, start: int = 0) -> Iterator[Table]:
    """Chunks of ``source``: a :class:`ChunkSource` or any iterable of
    :class:`Table` objects (handy for tests and in-memory pipelines).

    Plain iterables cannot skip, so ``start > 0`` — checkpoint resume —
    requires a real source.
    """
    if isinstance(source, ChunkSource) or hasattr(source, "chunks"):
        return source.chunks(start)
    if start:
        raise StreamError(
            "resuming needs a restartable ChunkSource, not a plain iterable"
        )
    return iter(source)


def source_schema(source) -> Schema | None:
    """The declared schema of ``source`` when it carries one."""
    return getattr(source, "schema", None)


def payload_profile(source) -> dict[str, Any]:
    """Source-level constants a parallel worker needs to materialize
    :class:`ChunkTask` payloads — shipped once in the pool initializer,
    never per chunk."""
    path = getattr(source, "path", None)
    return {
        "schema": source_schema(source),
        "infer": getattr(source, "infer", False),
        "trusted": getattr(source, "trusted_rows", False),
        "name": getattr(source, "name", "stream"),
        "path": str(path) if path is not None else None,
    }


def table_tasks(source, start: int = 0) -> Iterator[ChunkTask]:
    """The typed chunk tables of ``source`` as :class:`ChunkTask` s —
    what an in-process stream run reads, and the pool payload of sources
    without a cheaper one."""
    for offset, chunk in enumerate(resolve_chunks(source, start)):
        yield ChunkTask(start + offset, PAYLOAD_TABLE, chunk, len(chunk))


def payload_chunks(source, start: int = 0) -> Iterator[ChunkTask]:
    """Chunk payloads of ``source`` for a pooled stream run.

    Sources that implement ``payloads`` ship their cheapest
    representation (raw CSV records, typed row tuples); everything else
    — including plain iterables of tables — falls back to pickling whole
    chunk tables (:func:`table_tasks`), which is always correct, just
    less overlapped.
    """
    if hasattr(source, "payloads"):
        return source.payloads(start)
    return table_tasks(source, start)


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

    The file is typed exactly like :func:`repro.relational.read_csv`
    types it, so a relation round-trips through ``write_csv`` / streamed
    reading value-identically.  Records are read in slices of at most
    :data:`~repro.relational.csvio.TYPE_SLICE` that never run past a
    chunk's last record, and each slice is typed a column at a time
    (:func:`~repro.relational.csvio.type_records`); a slice it refuses is
    re-typed record by record with ``parse_row`` under ``on_bad_rows``.
    Quoted fields may contain delimiters and newlines.

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
        self.name = name or self.path.stem
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

    def chunks(self, start: int = 0) -> Iterator[Table]:
        self.bad_row_count = 0
        self.quarantined_rows = 0
        self.fastforward_bad_rows = 0
        self.corrupt_chunks = 0
        try:
            with open_text(self.path) as handle:
                reader = csv.reader(handle)
                header = next(reader, None)
                if header is None:
                    return
                check_header(header, self.schema)
                number = 0
                if self.on_bad_rows == BAD_ROWS_RAISE:
                    # Raw fast-forward on resume is sound under the raise
                    # policy only: every skipped raw record was a typed
                    # row of the interrupted run (a bad one would have
                    # aborted it before the checkpoint landed).
                    for _ in range(start * self.chunk_size):
                        if next(reader, None) is None:
                            return
                        number += 1
                records = RecordSlices(reader, self.schema, number)
                read_rows = partial(self._chunk_rows, records)
                if self.on_bad_rows != BAD_ROWS_RAISE and start:
                    # Chunk boundaries count *surviving* rows, so the
                    # fast-forward must apply the same bad-row policy
                    # (re-quarantining deterministically rewrites the
                    # sidecar with identical content).
                    for _ in range(start):
                        read_rows()
                    self.fastforward_bad_rows = self.bad_row_count
                yield from self._batched(read_rows, start, self.infer)
        finally:
            self._close_sidecar()

    def _chunk_rows(self, records: RecordSlices) -> list[tuple]:
        """The next chunk's typed rows: ``chunk_size`` surviving rows, or
        fewer at the end of the file.

        Records are typed a column at a time in slices that never run
        past the chunk's last record, so a read error or bad record
        beyond it surfaces with the next chunk, as it would reading one
        record at a time.
        """
        rows: list[tuple] = []
        more = True
        while more and len(rows) < self.chunk_size:
            typed, more = records.typed(
                min(TYPE_SLICE, self.chunk_size - len(rows)),
                self._reference_rows,
            )
            rows += typed
        return rows

    def _reference_rows(
        self, records: list, parsers, arity: int, number: int
    ) -> list[tuple]:
        """Type a slice record by record with ``parse_row``, applying
        ``on_bad_rows`` to each record it rejects."""
        rows = []
        for number, record in enumerate(records, start=number + 1):
            try:
                rows.append(parse_row(record, parsers, arity, number))
            except ValueError as exc:
                if self.on_bad_rows == BAD_ROWS_RAISE:
                    raise BadRowError(self.path, number, str(exc)) from exc
                self.bad_row_count += 1
                if self.on_bad_rows == BAD_ROWS_QUARANTINE:
                    self._quarantine(number, record, exc)
        return rows

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

    def payloads(self, start: int = 0) -> Iterator[ChunkTask]:
        """Chunk payloads for a pooled stream run.

        Under the default ``raise`` policy the payload is the *raw* CSV
        field lists: typing is the largest cost of file decoding, and
        shipping it to the workers is what lets parallel
        detection beat the serial reader.  The lossy policies must count
        surviving rows for chunk boundaries (and write the quarantine
        sidecar) in one deterministic place, so they type rows here and
        ship finished chunk tables instead.  Verified-read mode takes
        the same fallback: the digest check needs the typed chunk, and
        skip-policy chunk accounting must happen exactly once.
        """
        if self.on_bad_rows != BAD_ROWS_RAISE or self.verify_manifest is not None:
            yield from table_tasks(self, start)
            return
        self.bad_row_count = 0
        self.quarantined_rows = 0
        self.fastforward_bad_rows = 0
        with open_text(self.path) as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None:
                return
            check_header(header, self.schema)
            number = 0
            for _ in range(start * self.chunk_size):
                if next(reader, None) is None:
                    return
                number += 1
            index = start
            while True:
                fault_point("source.read", index)
                batch = list(islice(reader, self.chunk_size))
                if not batch:
                    return
                yield ChunkTask(
                    index, PAYLOAD_RAW, batch, len(batch),
                    first_row_number=number, origin=str(self.path),
                )
                number += len(batch)
                index += 1

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


def _quote_identifier(name: str) -> str:
    """SQL-quote ``name`` for SQLite (doubles embedded quotes)."""
    return '"' + name.replace('"', '""') + '"'


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

    def chunks(self, start: int = 0) -> Iterator[Table]:
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
            index = start
            while True:
                batch = cursor.fetchmany(self.chunk_size)
                if not batch:
                    return
                chunk = self._table(
                    [tuple(row) for row in batch], index, self.infer
                )
                if self._admit(chunk, index):
                    yield chunk
                index += 1
        finally:
            connection.close()

    def payloads(self, start: int = 0) -> Iterator[ChunkTask]:
        """Typed-row payloads: SQLite already typed the values, so the
        workers only validate and build (``trusted`` is False — the
        database enforces affinity, not the declared schema).
        Verified-read mode ships finished chunk tables instead, so the
        digest check and skip accounting happen exactly once, here."""
        if self.verify_manifest is not None:
            yield from table_tasks(self, start)
            return
        table = resolve_sqlite_table(self.path, self.table)
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
            index = start
            while True:
                batch = cursor.fetchmany(self.chunk_size)
                if not batch:
                    return
                rows = [tuple(row) for row in batch]
                yield ChunkTask(index, PAYLOAD_TYPED, rows, len(rows))
                index += 1
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

    def chunks(self, start: int = 0) -> Iterator[Table]:
        rows = iter(self.rows_factory())
        if start:
            for _ in islice(rows, start * self.chunk_size):
                pass
        yield from self._batched(
            lambda: list(islice(rows, self.chunk_size)), start, infer=False
        )

    def payloads(self, start: int = 0) -> Iterator[ChunkTask]:
        """Typed trusted-row payloads (the generators draw from the
        schema's own domains, exactly like the serial adoption path)."""
        rows = iter(self.rows_factory())
        if start:
            for _ in islice(rows, start * self.chunk_size):
                pass
        index = start
        while True:
            fault_point("source.read", index)
            batch = list(islice(rows, self.chunk_size))
            if not batch:
                return
            yield ChunkTask(index, PAYLOAD_TYPED, batch, len(batch))
            index += 1


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

    #: rows of a validated Table are schema-valid by construction, so
    #: parallel workers may adopt them without re-validation
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

    def chunks(self, start: int = 0) -> Iterator[Table]:
        total = len(self.table)
        index = start
        for begin in range(start * self.chunk_size, total, self.chunk_size):
            # Same injection surface as the file-backed sources: chaos
            # scenarios address "source.read" whatever the source type.
            fault_point("source.read", index)
            yield self.table.take(
                range(begin, min(begin + self.chunk_size, total)),
                name=f"{self.name}[{index}]",
            )
            index += 1

    def payloads(self, start: int = 0) -> Iterator[ChunkTask]:
        total = len(self.table)
        index = start
        for begin in range(start * self.chunk_size, total, self.chunk_size):
            fault_point("source.read", index)
            window = self.table.take(
                range(begin, min(begin + self.chunk_size, total))
            )
            rows = list(iter(window))
            yield ChunkTask(index, PAYLOAD_TYPED, rows, len(rows))
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
    (``infer_domains``, trusted rows) — the parallel workers materialize
    every file's payloads under a single shipped profile.  Resume-style
    skips (``start > 0``) decode and discard the skipped files' records;
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
        self.chunk_size = max(
            getattr(source, "chunk_size", DEFAULT_CHUNK_SIZE)
            for source in sources
        )
        self.name = name or "+".join(
            getattr(source, "name", "stream") for source in sources
        )

    def chunks(self, start: int = 0) -> Iterator[Table]:
        index = 0
        for source in self.sources:
            for chunk in source.chunks():
                if index >= start:
                    yield chunk
                index += 1

    def payloads(self, start: int = 0) -> Iterator[ChunkTask]:
        index = 0
        for source in self.sources:
            origin = getattr(source, "path", None)
            for task in payload_chunks(source):
                if index >= start:
                    yield ChunkTask(
                        index, task.kind, task.payload, task.count,
                        first_row_number=task.first_row_number,
                        origin=task.origin
                        or (str(origin) if origin is not None else None),
                    )
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


_SQLITE_SUFFIXES = {".sqlite", ".sqlite3", ".db"}
_SQLITE_MAGIC = b"SQLite format 3\x00"


def _is_sqlite_path(path: Path) -> bool:
    if path.exists() and path.stat().st_size >= len(_SQLITE_MAGIC):
        with open(path, "rb") as probe:
            return probe.read(len(_SQLITE_MAGIC)) == _SQLITE_MAGIC
    return path.suffix in _SQLITE_SUFFIXES


def count_data_rows(path: str | Path, table: str | None = None) -> int:
    """Number of data rows in a file without typing a single cell.

    Used by the CLI to fill in the paper's nominal channel length
    (``max(|wm|, N/e)``) for a file-mode embed, where the relation is
    never whole in memory.  CSV records are counted with the csv module
    (quoted embedded newlines are one record, not two); SQLite asks the
    database — the same table :class:`SQLiteChunkSource` would read.
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
    with open_text(path) as handle:
        reader = csv.reader(handle)
        if next(reader, None) is None:
            return 0
        return sum(1 for _ in reader)
