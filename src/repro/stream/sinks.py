"""Chunk sinks: bounded-memory writers for marked relations.

A :class:`ChunkSink` receives the marked chunks of a streaming embed and
persists them — CSV (plain or gzip), SQLite, or an in-memory table for
tests.  Sinks expose two small hooks the checkpoint layer builds resume
on:

* :meth:`ChunkSink.flush_state` — flush everything written so far and
  return a JSON-serializable durability marker (a byte offset, a row
  count; a gzip sink adds its deflate level);
* :meth:`ChunkSink.restore` — reopen the sink positioned exactly at such
  a marker, discarding anything written after it (the partial chunk a
  crash may have left behind).

Both gzip framing (one gzip *member* per flush interval — concatenated
members are a single valid gzip stream) and SQLite transactions (one
commit per chunk) are chosen so that every marker is a clean truncation
point.  :class:`CSVChunkSink` builds every segment with one encoder —
the chunk's columns through :func:`~repro.relational.csvio.encode_columns`,
then, for gzip, one ``zlib`` compressor per member — and writes it with
one raw call, whether or not a digest manifest is being recorded.

:func:`~repro.stream.stream_mark` writes a chunk in two halves:
:meth:`ChunkSink.start_chunk` when it commits the chunk, and the write
that call returns (with the flush, journal record and checkpoint) before
the next chunk commits.  A CSV sink encodes the chunk's text when it
starts the chunk; a gzip sink then builds the member on one helper
thread of its own, so the deflate runs while the next chunk is read,
typed, hashed and embedded: ``zlib`` releases the GIL while it
compresses.  The helper runs one pure function, text in and member bytes
out (:func:`_member`); every write, fsync and fault point stays on the
calling thread.  The helper starts at the sink's first chunk member —
after a pooled run has forked its workers — and
:meth:`CSVChunkSink.close` joins it.  The other sinks prepare nothing
and defer their whole write.

New gzip output is deflated at :data:`GZIP_LEVEL`.  The level travels in
the sink state — checkpoint, journal and the retry layer's rollback
marker all store that state — so a resumed or rolled-back run continues
at the level it started with.  A state with no level was written before
levels were recorded, at level 9, and resumes at 9.
"""

from __future__ import annotations

import hashlib
import os
import sqlite3
import struct
import zlib
from collections.abc import Callable
from functools import partial
from pathlib import Path
from typing import Any

from ..relational import AttributeType, Schema, Table
from ..relational.csvio import encode_columns
from ..reliability.faults import (
    BITFLIP,
    TORN_WRITE,
    InjectedFaultError,
    active_plan,
    fault_point,
    injection_armed,
)
from ..reliability.integrity import (
    ChunkDigest,
    ChunkManifest,
    _quote_identifier,
    digest_rows,
)
from .errors import StreamError
from .sources import SQLITE_SUFFIXES

#: deflate level of every gzip member a fresh :class:`CSVChunkSink`
#: output writes (read at ``open``; ``restore`` continues at the level
#: its state records).  Level 9 spends about 3x the compression time
#: for output about 1.5% smaller.
GZIP_LEVEL = 6

#: the first eight bytes of every member header: magic, deflate, no
#: flags (so no file name) and mtime 0 — what ``gzip.GzipFile`` writes
#: for ``filename=""`` and ``mtime=0``
_MEMBER_HEAD = b"\x1f\x8b\x08\x00\x00\x00\x00\x00"

#: the header's XFL byte per level, as ``gzip.GzipFile`` sets it (0 for
#: every other level); the OS byte after it is always 255, "unknown"
_MEMBER_XFL = {9: b"\x02", 1: b"\x04"}


def _member(text: bytes, level: int, torn: bool = False) -> bytes:
    """One gzip member of ``text`` deflated at ``level`` (its layout is in
    :class:`CSVChunkSink`'s docstring).  ``torn`` stops after the sync
    flush, with no final block and no trailer: what a crash mid-flush
    leaves.  A pure function of its arguments, and the only code the gzip
    sink's helper thread runs."""
    deflate = zlib.compressobj(
        level, zlib.DEFLATED, -zlib.MAX_WBITS, zlib.DEF_MEM_LEVEL, 0
    )
    parts = [
        _MEMBER_HEAD, _MEMBER_XFL.get(level, b"\x00"), b"\xff",
        deflate.compress(text), deflate.flush(zlib.Z_SYNC_FLUSH),
    ]
    if not torn:
        parts.append(deflate.flush())
        parts.append(struct.pack(
            "<II", zlib.crc32(text), len(text) & 0xFFFFFFFF
        ))
    return b"".join(parts)


class ChunkSink:
    """Destination for the marked chunks of a streaming embed."""

    #: sinks that can record a per-chunk content-digest manifest (byte
    #: ranges for file sinks, rowid ranges for SQLite) override this and
    #: honour :meth:`arm_manifest` called before ``open``/``restore``
    supports_manifest = False

    #: the :class:`~repro.reliability.integrity.ChunkManifest` recorded
    #: so far (``None`` when recording is not armed)
    manifest: ChunkManifest | None = None

    def arm_manifest(self) -> None:
        """Turn on chunk-digest recording (before ``open``/``restore``)."""
        raise StreamError(
            f"{type(self).__name__} does not record a chunk-hash manifest"
        )

    def restore_manifest(self, manifest: ChunkManifest) -> None:
        """Install a manifest prefix recovered from the journal (resume)."""
        self.manifest = manifest

    def open(self, schema: Schema) -> None:
        """Begin a fresh output for ``schema`` (truncates prior content)."""
        raise NotImplementedError

    def write_chunk(self, chunk: Table) -> None:
        """Append one marked chunk.

        The pipeline writes every source chunk exactly once, in chunk
        order, at every worker count — which is what keeps gzip member
        boundaries (hence output bytes) identical across runs.
        """
        raise NotImplementedError

    def start_chunk(self, chunk: Table) -> Callable[[], None]:
        """Begin one marked chunk and return the call that writes it.

        :func:`~repro.stream.stream_mark` calls the write later on the
        same thread, before it starts the next chunk, so the writes keep
        chunk order.  The write does exactly what :meth:`write_chunk`
        does, fault points included.  This default prepares nothing and
        defers :meth:`write_chunk` whole.
        """
        return partial(self.write_chunk, chunk)

    def flush_state(self) -> dict[str, Any]:
        """Flush and return a durability marker for checkpointing."""
        raise NotImplementedError

    def restore(self, schema: Schema, state: dict[str, Any]) -> None:
        """Reopen at ``state`` (from :meth:`flush_state`), dropping
        anything written after that marker."""
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    def __enter__(self) -> "ChunkSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class CSVChunkSink(ChunkSink):
    """CSV writer, gzip-compressed when the path says so.

    Every segment — the header row at ``open``, then one per chunk — is
    encoded in memory by one encoder and written with one raw call, so
    each flush offset sits on a segment boundary.  The encoder reads the
    chunk a column at a time (:meth:`~repro.relational.Table.column_view`)
    and writes the text ``csv.writer`` would
    (:func:`~repro.relational.csvio.encode_columns`).  Plain CSV segments
    are that text in utf-8; gzip segments are complete *members*
    (concatenated members are one valid gzip stream), so truncating at
    any recorded offset leaves a valid file.

    A member is built by one raw-deflate ``zlib`` compressor, byte for
    byte what ``gzip.GzipFile(filename="", mtime=0)`` under a text
    wrapper wrote before: a 10-byte header (no name, mtime 0, the
    level's XFL byte, OS 255), the deflated text, a ``Z_SYNC_FLUSH``
    (the flush the text wrapper's ``detach()`` made — it stays, as it
    shapes the deflate stream), the final block and the CRC-32/size
    trailer.  A torn member (a crash mid-flush) ends after the sync
    flush, with no final block and no trailer.  Nothing in a member
    depends on the time or the path, so a resumed run produces the
    identical file an uninterrupted run would have.  :meth:`write_chunk`
    builds a chunk's member on the calling thread, :meth:`start_chunk`
    on the sink's helper thread (see the module docstring): the same
    encoder and the same member bytes.

    A fresh gzip output deflates at :data:`GZIP_LEVEL`, read when the
    sink opens.  :meth:`flush_state` records the level next to the
    offset, and :meth:`restore` continues at the recorded level, so a
    resumed or rolled-back run never mixes levels; a state with no level
    predates recording it and means 9, the level every such member was
    written at.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        # Writers decide by the *requested* path suffix, never by
        # sniffing pre-existing bytes the open() below is about to
        # truncate — stale gzip content at a ``.csv`` path must not make
        # a fresh run silently write gzip.
        self.compress = self.path.suffix == ".gz"
        self._raw = None
        self._level = GZIP_LEVEL
        self._chunks = 0
        self._record = False
        self._segment_start = 0
        #: the thread that builds members for :meth:`start_chunk`
        self._helper = None

    supports_manifest = True

    def arm_manifest(self) -> None:
        self._record = True

    # -- lifecycle -------------------------------------------------------------
    def open(self, schema: Schema) -> None:
        self._chunks = 0
        self._level = GZIP_LEVEL
        self._raw = open(self.path, "wb")
        header = self._write_segment(
            self._encode_segment([[name] for name in schema.names]),
            index=-1,
        )
        if self._record:
            # the header segment (column names) gets its own digest so an
            # audit can tell "damaged preamble" from "damaged chunk k"
            self.manifest = ChunkManifest(kind="bytes", header=header)

    def restore(self, schema: Schema, state: dict[str, Any]) -> None:
        self._abort()
        offset = int(state["offset"])
        self._chunks = int(state.get("chunks", 0))
        # no recorded level: the state predates recording it, and every
        # member written then was deflated at GzipFile's default, 9
        self._level = int(state.get("level", 9))
        self._raw = open(self.path, "r+b")
        self._raw.truncate(offset)
        self._raw.seek(offset)
        if self._record:
            if self.manifest is None:
                self.manifest = ChunkManifest(kind="bytes")
            else:
                # a retry rollback re-writes the chunk; its stale entry
                # must not survive next to the fresh one
                self.manifest.truncate(self._chunks)

    def _abort(self) -> None:
        # Drop the handle a failed write left open; restore() truncates
        # back to the durable marker, so anything it still buffered from
        # the failed chunk is discarded there.
        if self._raw is not None:
            try:
                self._raw.close()
            except OSError:
                pass
            self._raw = None

    def close(self) -> None:
        if self._raw is not None:
            self._raw.close()
            self._raw = None
        if self._helper is not None:
            self._helper.shutdown()
            self._helper = None

    # -- writing ---------------------------------------------------------------
    def write_chunk(self, chunk: Table) -> None:
        self._start(chunk, None)()

    def start_chunk(self, chunk: Table) -> Callable[[], None]:
        """Encode ``chunk``'s text here and, for gzip, build its member on
        the helper thread; the returned write waits for the member."""
        if not self.compress:
            return self._start(chunk, None)
        if self._helper is None:
            from concurrent.futures import ThreadPoolExecutor

            self._helper = ThreadPoolExecutor(
                1, thread_name_prefix="gzip-member"
            )
        return self._start(chunk, self._helper)

    def _start(self, chunk: Table, helper) -> Callable[[], None]:
        """Encode ``chunk`` as its segment — the member built on
        ``helper`` when one is given, else here — and return the write.
        It holds the segment only, and the columns when a torn write is
        scheduled for the chunk (the write cuts the torn prefix from
        them)."""
        columns = [chunk.column_view(name) for name in chunk.schema.names]
        torn = None
        if injection_armed() and active_plan().scheduled(
            "sink.write.mid", self._chunks
        ):
            torn = columns
        if helper is None:
            payload = self._encode_segment(columns)
            segment = lambda: payload  # noqa: E731
        else:
            text = encode_columns(columns).encode("utf-8")
            segment = helper.submit(_member, text, self._level).result
        return partial(self._write_started, segment, torn)

    def _write_started(
        self, segment: Callable[[], bytes], torn: list | None
    ) -> None:
        index = self._chunks
        # Injection points: "sink.write" fails before any byte of the
        # chunk lands; "sink.write.mid" persists a torn prefix (flushed
        # to the OS with no member trailer / row terminator) and *then*
        # fails — the state a real crash mid-flush leaves behind.
        fault_point("sink.write", index)
        if torn is not None and injection_armed() and active_plan().scheduled(
            "sink.write.mid", index
        ):
            self._write_torn(torn, len(torn[0]), index)
        entry = self._write_segment(segment(), index)
        if self._record:
            self.manifest.entries.append(entry)
        self._chunks += 1
        if injection_armed() and active_plan().scheduled(
            "sink.bitflip", index
        ):
            self._bitflip(index)

    def _bitflip(self, index: int) -> None:
        # Silent post-flush media damage: flip one bit inside the chunk
        # just written, then continue as if nothing happened.  No error
        # surfaces — only the manifest digest can reveal the damage.
        kind = fault_point("sink.bitflip", index)
        if kind != BITFLIP:
            return
        self._raw.flush()
        os.fsync(self._raw.fileno())
        start = self._segment_start
        end = self._raw.tell()
        if end <= start:  # pragma: no cover — empty chunk
            return
        rng = active_plan().rng("sink.bitflip", index)
        position = rng.randrange(start, end)
        with open(self.path, "r+b") as handle:
            handle.seek(position)
            byte = handle.read(1)
            handle.seek(position)
            handle.write(bytes([byte[0] ^ (1 << rng.randrange(8))]))

    def _write_torn(self, columns: list, rows: int, index: int) -> None:
        plan = active_plan()
        cut = plan.rng("sink.write.mid", index).randrange(1, max(2, rows))
        self._raw.write(self._encode_segment(
            [column[:cut] for column in columns], torn=True
        ))
        self._raw.flush()
        os.fsync(self._raw.fileno())
        kind = fault_point("sink.write.mid", index)
        raise InjectedFaultError("sink.write.mid", index, kind or TORN_WRITE)

    def flush_state(self) -> dict[str, Any]:
        fault_point("sink.flush", self._chunks)
        self._raw.flush()
        os.fsync(self._raw.fileno())
        state = {"offset": self._raw.tell(), "chunks": self._chunks}
        if self.compress:
            state["level"] = self._level
        return state

    # -- internals -------------------------------------------------------------
    def _write_segment(self, payload: bytes, index: int) -> ChunkDigest | None:
        """Write one encoded segment with one raw call.

        When recording, returns the segment's digest entry: it covers
        exactly the bytes an audit (or a verified read) will find in
        ``[start, end)``, hashed straight off the encoded payload — no
        read-back pass, no hashing proxy on the write path.
        """
        self._segment_start = self._raw.tell()
        self._raw.write(payload)
        if not self._record:
            return None
        return ChunkDigest(
            index=index,
            start=self._segment_start,
            end=self._segment_start + len(payload),
            digest=hashlib.sha256(payload).hexdigest(),
        )

    def _encode_segment(self, columns: list, torn: bool = False) -> bytes:
        """The exact bytes one flush segment of the rows of ``columns``
        puts on disk: utf-8 CSV text, or one gzip member deflated at the
        sink's level (see the class docstring for its layout).

        ``torn`` emits a gzip member *without* its final block and
        trailer (the state a crash mid-flush leaves) instead of a
        complete one.
        """
        text = encode_columns(columns).encode("utf-8")
        if not self.compress:
            return text
        return _member(text, self._level, torn)


_AFFINITY = {
    AttributeType.INTEGER: "INTEGER",
    AttributeType.REAL: "REAL",
    AttributeType.STRING: "TEXT",
    # No declared type => BLOB affinity: SQLite stores categorical values
    # exactly as given (an out-of-domain "007" string must not come back
    # as the integer 7).
    AttributeType.CATEGORICAL: "",
}


class SQLiteChunkSink(ChunkSink):
    """SQLite writer: one table, one transaction commit per chunk.

    The commit-per-chunk rhythm makes the database itself the durability
    mechanism — an interrupted chunk rolls back — and :meth:`restore`
    deletes any rows a crash landed *after* the last checkpoint was
    recorded (committed chunk, unwritten checkpoint).
    """

    def __init__(self, path: str | Path, table: str = "relation"):
        self.path = Path(path)
        self.table = table
        self._connection: sqlite3.Connection | None = None
        self._insert: str | None = None
        self._names: list[str] = []
        self._rows_written = 0
        self._chunks = 0
        self._record = False

    supports_manifest = True

    def arm_manifest(self) -> None:
        self._record = True

    def open(self, schema: Schema) -> None:
        if self._record:
            self.manifest = ChunkManifest(kind="rows")
        self._connect(schema)
        quoted = _quote_identifier(self.table)
        self._connection.execute(f"DROP TABLE IF EXISTS {quoted}")
        columns = ", ".join(
            f"{_quote_identifier(a.name)} {_AFFINITY[a.atype]}".rstrip()
            for a in schema.attributes
        )
        self._connection.execute(f"CREATE TABLE {quoted} ({columns})")
        self._connection.commit()
        self._rows_written = 0
        self._chunks = 0

    def restore(self, schema: Schema, state: dict[str, Any]) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None
        rows = int(state["rows"])
        self._connect(schema)
        quoted = _quote_identifier(self.table)
        self._connection.execute(
            f"DELETE FROM {quoted} WHERE rowid IN "
            f"(SELECT rowid FROM {quoted} ORDER BY rowid LIMIT -1 OFFSET ?)",
            (rows,),
        )
        self._connection.commit()
        self._rows_written = rows
        self._chunks = int(state.get("chunks", 0))
        if self._record:
            if self.manifest is None:
                self.manifest = ChunkManifest(kind="rows")
            else:
                self.manifest.truncate(self._chunks)

    def _connect(self, schema: Schema) -> None:
        self._connection = sqlite3.connect(self.path)
        self._names = list(schema.names)
        placeholders = ", ".join("?" for _ in schema.names)
        columns = ", ".join(
            _quote_identifier(column) for column in schema.names
        )
        self._insert = (
            f"INSERT INTO {_quote_identifier(self.table)} "
            f"({columns}) VALUES ({placeholders})"
        )

    def write_chunk(self, chunk: Table) -> None:
        # Injection point: a failed commit rolls the chunk back — SQLite
        # itself is the torn-write protection, so only the boundary
        # fault is meaningful here.
        index = self._chunks
        fault_point("sink.write", index)
        self._connection.executemany(self._insert, iter(chunk))
        self._connection.commit()
        start = self._rows_written
        self._rows_written += len(chunk)
        self._chunks += 1
        if self._record:
            # ranges are rowid offsets; byte offsets are meaningless in a
            # database file, so the row-content digest is the identity
            rows_digest = digest_rows(chunk)
            self.manifest.entries.append(ChunkDigest(
                index=index,
                start=start,
                end=self._rows_written,
                digest=rows_digest,
                rows_digest=rows_digest,
            ))
        if injection_armed() and active_plan().scheduled(
            "sink.bitflip", index
        ):
            self._bitflip(index, start, self._rows_written)

    def _bitflip(self, index: int, start: int, end: int) -> None:
        # Silent committed-data damage: overwrite one cell in the chunk
        # just committed, then continue.  Only the audit can catch it.
        kind = fault_point("sink.bitflip", index)
        if kind != BITFLIP:
            return
        rng = active_plan().rng("sink.bitflip", index)
        offset = rng.randrange(start, max(start + 1, end))
        column = rng.choice(self._names)
        quoted = _quote_identifier(self.table)
        self._connection.execute(
            f"UPDATE {quoted} SET {_quote_identifier(column)} = ? "
            f"WHERE rowid = (SELECT rowid FROM {quoted} "
            f"ORDER BY rowid LIMIT 1 OFFSET ?)",
            ("☠bitrot", offset),
        )
        self._connection.commit()

    def flush_state(self) -> dict[str, Any]:
        fault_point("sink.flush", self._chunks)
        return {"rows": self._rows_written, "chunks": self._chunks}

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None


class TableChunkSink(ChunkSink):
    """Collects marked chunks into one in-memory :class:`Table` (tests,
    equivalence suites, small pipelines)."""

    def __init__(self, name: str = "marked"):
        self.name = name
        self.table: Table | None = None

    def open(self, schema: Schema) -> None:
        self.table = Table(schema, (), name=self.name)

    def restore(self, schema: Schema, state: dict[str, Any]) -> None:
        raise StreamError("TableChunkSink does not support resume")

    def write_chunk(self, chunk: Table) -> None:
        self.table.append_rows(iter(chunk))

    def flush_state(self) -> dict[str, Any]:
        return {"rows": len(self.table)}

    def close(self) -> None:  # nothing to release
        pass


class NullChunkSink(ChunkSink):
    """Discards chunks (embed-throughput measurement)."""

    def __init__(self):
        self.rows = 0

    def open(self, schema: Schema) -> None:
        self.rows = 0

    def restore(self, schema: Schema, state: dict[str, Any]) -> None:
        self.rows = int(state["rows"])

    def write_chunk(self, chunk: Table) -> None:
        self.rows += len(chunk)

    def flush_state(self) -> dict[str, Any]:
        return {"rows": self.rows}

    def close(self) -> None:
        pass


def open_sink(path: str | Path, table: str = "relation") -> ChunkSink:
    """A chunk sink for ``path`` picked by file type (mirrors
    :func:`repro.stream.sources.open_source`)."""
    path = Path(path)
    if path.suffix in SQLITE_SUFFIXES:
        return SQLiteChunkSink(path, table=table)
    return CSVChunkSink(path)
