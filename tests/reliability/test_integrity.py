"""Unit + in-process integration tests for the integrity layer.

Manifest/journal plumbing, audit localization, the run lease, and the
verified-read source policies — every quiet-corruption mechanism the
chaos suite later exercises with real subprocesses is pinned here first
with fast deterministic cases.
"""

import hashlib
import json
import os
import sqlite3
import subprocess
import sys
import time

import pytest

from repro import MarkKey, Watermark
from repro.core import EmbeddingSpec
from repro.datagen import generate_item_scan
from repro.relational import write_csv
from repro.reliability import (
    BITFLIP,
    DISK_FULL,
    FaultPlan,
    IntegrityError,
    PERMANENT,
    RunLock,
    RunLockedError,
    audit_stream,
    classify,
    digest_rows,
    journal_path,
)
from repro.reliability.integrity import (
    ChunkDigest,
    ChunkManifest,
    append_journal_chunk,
    load_journal,
    manifest_from_journal,
    truncate_journal,
    write_journal_header,
)
from repro.stream import (
    BadRowError,
    CSVChunkSink,
    CSVChunkSource,
    MultiFileChunkSource,
    SQLiteChunkSource,
    TableChunkSource,
    open_sink,
    shutdown_stream_pool,
    stream_mark,
    stream_verify,
)

E = 40
CHANNEL = 120
CHUNK = 300
ROWS = 1200


@pytest.fixture(scope="module")
def base():
    return generate_item_scan(ROWS, item_count=80, seed=13)


@pytest.fixture(scope="module")
def key():
    return MarkKey.from_seed("integrity")


@pytest.fixture(scope="module")
def wm():
    return Watermark.from_int(0x2AB, 10)


@pytest.fixture(scope="module")
def spec():
    return EmbeddingSpec("Visit_Nbr", "Item_Nbr", E, 10, CHANNEL)


def _mark(base, wm, key, spec, out, **kwargs):
    return stream_mark(
        TableChunkSource(base, chunk_size=CHUNK), wm, key, spec,
        open_sink(out), **kwargs
    )


# -- digests and manifests ----------------------------------------------------

class TestDigests:
    def test_digest_rows_is_container_independent(self):
        lists = [[1, "a"], [2, "b"]]
        tuples = [(1, "a"), (2, "b")]
        assert digest_rows(lists) == digest_rows(tuples)

    def test_digest_rows_is_order_and_type_sensitive(self):
        assert digest_rows([[1, "a"], [2, "b"]]) != digest_rows(
            [[2, "b"], [1, "a"]]
        )
        assert digest_rows([[1]]) != digest_rows([["1"]])

    def test_chunk_digest_roundtrip(self):
        entry = ChunkDigest(3, 100, 200, "d" * 64, rows_digest="r" * 64)
        assert ChunkDigest.from_dict(entry.to_dict()) == entry

    def test_manifest_roundtrip_and_truncate(self):
        manifest = ChunkManifest(
            kind="bytes",
            header=ChunkDigest(-1, 0, 10, "h" * 64),
            entries=[
                ChunkDigest(i, i * 10, i * 10 + 10, f"{i}" * 64)
                for i in range(4)
            ],
        )
        again = ChunkManifest.from_dict(manifest.to_dict())
        assert again == manifest
        manifest.truncate(2)
        assert [entry.index for entry in manifest.entries] == [0, 1]


# -- the journal --------------------------------------------------------------

def _write_journal(path, chunks=3):
    write_journal_header(
        path, fingerprint="fp", kind="bytes",
        header_entry=ChunkDigest(-1, 0, 10, "h" * 64),
        open_state={"position": 10},
    )
    for index in range(chunks):
        append_journal_chunk(
            path, index=index,
            entry=ChunkDigest(index, 10 + index * 5, 15 + index * 5, "d" * 64),
            delta={"rows": 5}, sink_state={"position": 15 + index * 5},
        )


class TestJournal:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "run.ckpt.journal"
        _write_journal(path, chunks=3)
        header, records = load_journal(path)
        assert header["fingerprint"] == "fp"
        assert [r["chunk"] for r in records] == [0, 1, 2]
        manifest = manifest_from_journal(header, records)
        assert manifest.kind == "bytes"
        assert manifest.header.index == -1
        assert len(manifest.entries) == 3

    def test_torn_tail_dropped_prefix_preserved(self, tmp_path):
        path = tmp_path / "run.ckpt.journal"
        _write_journal(path, chunks=3)
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2])
        header, records = load_journal(path)
        assert header is not None
        assert [r["chunk"] for r in records] == [0, 1]

    def test_rotted_middle_line_ends_trusted_prefix(self, tmp_path):
        path = tmp_path / "run.ckpt.journal"
        _write_journal(path, chunks=3)
        lines = path.read_bytes().splitlines(keepends=True)
        rotted = lines[2].replace(b'"rows": 5', b'"rows": 6')
        assert rotted != lines[2]
        path.write_bytes(b"".join([lines[0], lines[1], rotted, lines[3]]))
        header, records = load_journal(path)
        # chunk 1's record fails CRC; chunk 2 after it is unreachable even
        # though its own line is intact (records must stay consecutive)
        assert [r["chunk"] for r in records] == [0]

    def test_rotted_header_means_no_journal(self, tmp_path):
        path = tmp_path / "run.ckpt.journal"
        _write_journal(path, chunks=2)
        blob = path.read_bytes()
        path.write_bytes(blob.replace(b'"fp"', b'"xp"', 1))
        assert load_journal(path) == (None, [])

    def test_truncate_keeps_exact_prefix(self, tmp_path):
        path = tmp_path / "run.ckpt.journal"
        _write_journal(path, chunks=4)
        truncate_journal(path, 2)
        header, records = load_journal(path)
        assert header is not None
        assert [r["chunk"] for r in records] == [0, 1]

    def test_missing_file_loads_empty(self, tmp_path):
        assert load_journal(tmp_path / "absent.journal") == (None, [])

    def test_journal_path_rides_along(self):
        assert str(journal_path("run.ckpt")).endswith("run.ckpt.journal")


# -- audit --------------------------------------------------------------------

def _bytes_manifest(path):
    """A 2-chunk byte manifest over an arbitrary small file."""
    blob = path.read_bytes()
    cut = len(blob) // 2
    def _sha(lo, hi):
        return hashlib.sha256(blob[lo:hi]).hexdigest()
    return ChunkManifest(
        kind="bytes",
        header=ChunkDigest(-1, 0, 4, _sha(0, 4)),
        entries=[
            ChunkDigest(0, 4, cut, _sha(4, cut)),
            ChunkDigest(1, cut, len(blob), _sha(cut, len(blob))),
        ],
    )


class TestAuditBytes:
    def test_clean_file_passes(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(bytes(range(200)))
        report = audit_stream(path, manifest=_bytes_manifest(path))
        assert report.ok and report.chunks == 2 and report.corrupt == []
        assert report.verified_chunks == 2

    def test_flipped_byte_localized(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(bytes(range(200)))
        manifest = _bytes_manifest(path)
        blob = bytearray(path.read_bytes())
        blob[150] ^= 0x40
        path.write_bytes(bytes(blob))
        report = audit_stream(path, manifest=manifest)
        assert not report.ok
        assert report.corrupt == [1] and report.first_corrupt == 1
        assert report.verified_chunks == 1

    def test_truncated_file_reports_missing_range(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(bytes(range(200)))
        manifest = _bytes_manifest(path)
        path.write_bytes(path.read_bytes()[:120])
        report = audit_stream(path, manifest=manifest)
        assert not report.ok and 1 in report.corrupt

    def test_trailing_garbage_detected(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(bytes(range(200)))
        manifest = _bytes_manifest(path)
        path.write_bytes(path.read_bytes() + b"extra")
        report = audit_stream(path, manifest=manifest)
        assert not report.ok and report.trailing == 5 and not report.corrupt

    def test_missing_journal_raises(self, tmp_path):
        with pytest.raises(IntegrityError):
            audit_stream(tmp_path / "out.csv", journal=tmp_path / "absent")


class TestAuditRows:
    @pytest.fixture()
    def marked_db(self, tmp_path):
        path = tmp_path / "out.sqlite"
        conn = sqlite3.connect(path)
        conn.execute('CREATE TABLE "relation" (pk INTEGER, item TEXT)')
        rows = [(i, f"item{i % 7}") for i in range(20)]
        conn.executemany('INSERT INTO "relation" VALUES (?, ?)', rows)
        conn.commit()
        conn.close()
        manifest = ChunkManifest(kind="rows", entries=[
            ChunkDigest(0, 0, 10, digest_rows(rows[:10]),
                        rows_digest=digest_rows(rows[:10])),
            ChunkDigest(1, 10, 20, digest_rows(rows[10:]),
                        rows_digest=digest_rows(rows[10:])),
        ])
        return path, manifest

    def test_clean_table_passes(self, marked_db):
        path, manifest = marked_db
        report = audit_stream(path, manifest=manifest)
        assert report.ok and report.chunks == 2

    def test_updated_row_localized(self, marked_db):
        path, manifest = marked_db
        conn = sqlite3.connect(path)
        conn.execute('UPDATE "relation" SET item = ? WHERE rowid = 15', ("rot",))
        conn.commit()
        conn.close()
        report = audit_stream(path, manifest=manifest)
        assert report.corrupt == [1]

    def test_trailing_rows_detected(self, marked_db):
        path, manifest = marked_db
        conn = sqlite3.connect(path)
        conn.execute('INSERT INTO "relation" VALUES (99, ?)', ("late",))
        conn.commit()
        conn.close()
        report = audit_stream(path, manifest=manifest)
        assert not report.ok and report.trailing == 1


# -- the run lease ------------------------------------------------------------

class TestRunLock:
    def test_second_acquire_refused_with_holder_pid(self, tmp_path):
        path = tmp_path / "run.ckpt.lock"
        lock = RunLock(path, fingerprint="fp")
        assert lock.acquire() is False
        with pytest.raises(RunLockedError) as excinfo:
            RunLock(path, fingerprint="fp").acquire()
        assert excinfo.value.holder_pid == os.getpid()
        lock.release()
        assert not path.exists()

    def test_release_allows_reacquire(self, tmp_path):
        path = tmp_path / "run.ckpt.lock"
        with RunLock(path):
            assert path.exists()
        assert RunLock(path).acquire() is False

    def test_dead_holder_taken_over(self, tmp_path):
        path = tmp_path / "run.ckpt.lock"
        proc = subprocess.run(
            [sys.executable, "-c", "import os; print(os.getpid())"],
            capture_output=True, text=True, check=True,
        )
        dead_pid = int(proc.stdout)
        path.write_bytes(json.dumps(
            {"pid": dead_pid, "fingerprint": "fp", "acquired": 0}
        ).encode())
        lock = RunLock(path, fingerprint="fp")
        assert lock.acquire() is True
        lock.release()

    def test_silent_live_holder_taken_over_after_stale_age(self, tmp_path):
        path = tmp_path / "run.ckpt.lock"
        first = RunLock(path)
        first.acquire()
        old = time.time() - 3600
        os.utime(path, (old, old))
        lock = RunLock(path, stale_after=60.0)
        assert lock.acquire() is True
        lock.release()

    def test_heartbeat_refreshes_mtime(self, tmp_path):
        path = tmp_path / "run.ckpt.lock"
        lock = RunLock(path)
        lock.acquire()
        old = time.time() - 3600
        os.utime(path, (old, old))
        lock.heartbeat()
        assert time.time() - os.path.getmtime(path) < 60
        lock.release()

    def test_unreadable_lease_still_blocks_until_stale(self, tmp_path):
        path = tmp_path / "run.ckpt.lock"
        path.write_bytes(b"\xff not json")
        with pytest.raises(RunLockedError):
            RunLock(path, stale_after=3600.0).acquire()


# -- fault taxonomy -----------------------------------------------------------

class TestDiskFullTaxonomy:
    def test_enospc_is_permanent(self):
        import errno
        assert classify(OSError(errno.ENOSPC, "No space left")) is PERMANENT
        assert classify(OSError(errno.EIO, "I/O error")) != PERMANENT

    def test_disk_full_fault_carries_enospc(self):
        import errno
        from repro.reliability.faults import fault_point
        plan = FaultPlan().add("sink.write", DISK_FULL, at=0)
        with plan.armed():
            with pytest.raises(OSError) as excinfo:
                fault_point("sink.write", 0)
        assert excinfo.value.errno == errno.ENOSPC


# -- end-to-end: manifest recording, audit, verified resume -------------------

class TestStreamIntegration:
    def test_checkpointed_mark_journals_a_manifest(
        self, base, key, wm, spec, tmp_path
    ):
        out = tmp_path / "out.csv"
        ckpt = tmp_path / "run.ckpt"
        result = _mark(base, wm, key, spec, out, checkpoint_path=ckpt)
        assert result.manifest is not None
        assert len(result.manifest.entries) == ROWS // CHUNK
        report = audit_stream(out, journal=journal_path(ckpt))
        assert report.ok and report.chunks == ROWS // CHUNK

    @pytest.mark.parametrize("suffix", ["csv", "csv.gz", "sqlite"])
    def test_manifest_recording_does_not_change_output(
        self, base, key, wm, spec, tmp_path, suffix
    ):
        plain = tmp_path / f"plain.{suffix}"
        armed = tmp_path / f"armed.{suffix}"
        _mark(base, wm, key, spec, plain)
        _mark(base, wm, key, spec, armed, checkpoint_path=tmp_path / "c.ckpt")
        if suffix == "sqlite":
            rows = lambda p: sqlite3.connect(p).execute(
                'SELECT * FROM "relation" ORDER BY rowid'
            ).fetchall()
            assert rows(armed) == rows(plain)
        else:
            assert armed.read_bytes() == plain.read_bytes()

    def test_silent_bitflip_survives_run_but_audit_localizes(
        self, base, key, wm, spec, tmp_path
    ):
        out = tmp_path / "out.csv"
        ckpt = tmp_path / "run.ckpt"
        plan = FaultPlan().add("sink.bitflip", BITFLIP, at=2)
        with plan.armed():
            _mark(base, wm, key, spec, out, checkpoint_path=ckpt)
        report = audit_stream(out, journal=journal_path(ckpt))
        assert not report.ok and report.first_corrupt == 2

    def test_verified_resume_repairs_bitrot_byte_identically(
        self, base, key, wm, spec, tmp_path
    ):
        reference = tmp_path / "ref.csv"
        _mark(base, wm, key, spec, reference)
        out = tmp_path / "out.csv"
        ckpt = tmp_path / "run.ckpt"
        plan = FaultPlan().add("sink.bitflip", BITFLIP, at=1)
        with plan.armed():
            _mark(base, wm, key, spec, out, checkpoint_path=ckpt)
        assert out.read_bytes() != reference.read_bytes()
        result = _mark(
            base, wm, key, spec, out, checkpoint_path=ckpt,
            resume=True, verify_resume=True,
        )
        assert out.read_bytes() == reference.read_bytes()
        assert result.resumed_at_chunk == 1
        assert result.reliability.integrity_rewinds >= 1
        assert audit_stream(out, journal=journal_path(ckpt)).ok

    def test_locked_run_refuses_concurrent_mark(
        self, base, key, wm, spec, tmp_path
    ):
        out = tmp_path / "out.csv"
        ckpt = tmp_path / "run.ckpt"
        holder = RunLock(str(ckpt) + ".lock", fingerprint="other")
        holder.acquire()
        try:
            with pytest.raises(RunLockedError):
                _mark(
                    base, wm, key, spec, out,
                    checkpoint_path=ckpt, lock=True,
                )
        finally:
            holder.release()
        # lease gone: the same run now proceeds and cleans up after itself
        _mark(base, wm, key, spec, out, checkpoint_path=ckpt, lock=True)
        assert not (tmp_path / "run.ckpt.lock").exists()


# -- injected sink damage -----------------------------------------------------

class TestSinkBitflip:
    """``sink.bitflip`` damages the chunk it names, recorded or not."""

    CHUNKS = 4

    @pytest.fixture(scope="class")
    def table(self):
        return generate_item_scan(100 * self.CHUNKS, item_count=20, seed=5)

    @staticmethod
    def _write(path, table, record):
        """Write ``table`` in 100-row chunks; returns the flush offset
        after the header and after every chunk."""
        sink = CSVChunkSink(path)
        if record:
            sink.arm_manifest()
        sink.open(table.schema)
        offsets = [sink.flush_state()["offset"]]
        for chunk in TableChunkSource(table, chunk_size=100).chunks():
            sink.write_chunk(chunk)
            offsets.append(sink.flush_state()["offset"])
        sink.close()
        return offsets

    @pytest.mark.parametrize("record", [False, True])
    @pytest.mark.parametrize("suffix", ["csv", "csv.gz"])
    @pytest.mark.parametrize("at", range(CHUNKS))
    def test_flip_lands_inside_the_named_chunk(
        self, table, tmp_path, at, suffix, record
    ):
        clean = tmp_path / f"clean.{suffix}"
        offsets = self._write(clean, table, record)
        flipped = tmp_path / f"flipped.{suffix}"
        plan = FaultPlan(seed=0).add("sink.bitflip", BITFLIP, at=at)
        with plan.armed():
            assert self._write(flipped, table, record) == offsets
        assert plan.pending() == 0
        changed = [
            position for position, (a, b) in enumerate(
                zip(clean.read_bytes(), flipped.read_bytes())
            ) if a != b
        ]
        assert len(changed) == 1
        assert offsets[at] <= changed[0] < offsets[at + 1]


# -- verified read ------------------------------------------------------------

class TestVerifiedRead:
    @pytest.fixture()
    def marked_csv(self, base, key, wm, spec, tmp_path):
        out = tmp_path / "marked.csv"
        ckpt = tmp_path / "run.ckpt"
        result = _mark(base, wm, key, spec, out, checkpoint_path=ckpt)
        return out, result.manifest

    def test_clean_chunks_admitted(self, base, marked_csv):
        out, manifest = marked_csv
        source = CSVChunkSource(
            out, base.schema, chunk_size=CHUNK, verify_manifest=manifest
        )
        chunks = list(source.chunks())
        assert len(chunks) == ROWS // CHUNK
        assert source.corrupt_chunks == 0

    def test_rotted_chunk_raises_with_index(self, base, marked_csv):
        out, manifest = marked_csv
        blob = bytearray(out.read_bytes())
        # land inside chunk 1's byte range
        blob[manifest.entries[1].start + 20] ^= 0x01
        out.write_bytes(bytes(blob))
        source = CSVChunkSource(
            out, base.schema, chunk_size=CHUNK, verify_manifest=manifest
        )
        with pytest.raises(IntegrityError) as excinfo:
            list(source.chunks())
        assert excinfo.value.chunk == 1

    def test_skip_policy_quarantines_rotted_chunk(self, base, marked_csv):
        out, manifest = marked_csv
        blob = bytearray(out.read_bytes())
        blob[manifest.entries[1].start + 20] ^= 0x01
        out.write_bytes(bytes(blob))
        source = CSVChunkSource(
            out, base.schema, chunk_size=CHUNK,
            verify_manifest=manifest, on_corrupt_chunks="skip",
        )
        chunks = list(source.chunks())
        assert len(chunks) == ROWS // CHUNK - 1
        assert source.corrupt_chunks == 1

    def test_resume_skips_raw_records(self, base, marked_csv):
        """A verified read from chunk 2 skips chunks 0 and 1 as raw
        records, never typing them: a record there the schema refuses
        (rot that keeps the byte length) raises nothing, and the chunks
        read are the clean file's."""
        out, manifest = marked_csv
        clean = list(CSVChunkSource(
            out, base.schema, chunk_size=CHUNK, verify_manifest=manifest
        ).chunks())
        blob = bytearray(out.read_bytes())
        line = blob.index(b"\n", manifest.entries[1].start) + 1
        blob[line] = ord("x")  # the key of chunk 1's second record
        out.write_bytes(bytes(blob))
        source = CSVChunkSource(
            out, base.schema, chunk_size=CHUNK, verify_manifest=manifest
        )
        resumed = list(source.chunks(2))
        assert [list(chunk) for chunk in resumed] == [
            list(chunk) for chunk in clean[2:]
        ]
        with pytest.raises(BadRowError) as excinfo:
            list(source.chunks(1))
        assert excinfo.value.number == CHUNK + 2

    @pytest.mark.parametrize("workers", [None, 2])
    def test_multi_file_run_counts_skipped_chunks(
        self, base, key, wm, spec, tmp_path, workers
    ):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        manifests = [
            _mark(
                base, wm, key, spec, path,
                checkpoint_path=path.with_suffix(".ckpt"),
            ).manifest
            for path in paths
        ]
        blob = bytearray(paths[1].read_bytes())
        blob[manifests[1].entries[1].start + 20] ^= 0x01
        paths[1].write_bytes(bytes(blob))
        children = [
            CSVChunkSource(
                path, base.schema, chunk_size=CHUNK,
                verify_manifest=manifest, on_corrupt_chunks="skip",
            )
            for path, manifest in zip(paths, manifests)
        ]
        try:
            result = stream_verify(
                MultiFileChunkSource(children), key, spec, wm,
                workers=workers,
            )
        finally:
            shutdown_stream_pool()
        assert result.chunks == 2 * ROWS // CHUNK - 1
        assert [child.corrupt_chunks for child in children] == [0, 1]
        assert result.reliability.corrupt_chunks == 1

    def test_sqlite_verified_read(self, base, key, wm, spec, tmp_path):
        out = tmp_path / "marked.sqlite"
        ckpt = tmp_path / "run.ckpt"
        result = _mark(base, wm, key, spec, out, checkpoint_path=ckpt)
        source = SQLiteChunkSource(
            out, base.schema, chunk_size=CHUNK,
            verify_manifest=result.manifest,
        )
        assert len(list(source.chunks())) == ROWS // CHUNK
        conn = sqlite3.connect(out)
        # silent rot must stay inside the categorical domain (a foreign
        # value would be caught by schema validation, not the digest)
        legal = [
            value for (value,) in conn.execute(
                'SELECT DISTINCT "Item_Nbr" FROM "relation" LIMIT 2'
            )
        ]
        current = conn.execute(
            'SELECT "Item_Nbr" FROM "relation" WHERE rowid = ?', (CHUNK + 5,)
        ).fetchone()[0]
        swapped = legal[0] if legal[0] != current else legal[1]
        conn.execute(
            'UPDATE "relation" SET "Item_Nbr" = ? WHERE rowid = ?',
            (swapped, CHUNK + 5),
        )
        conn.commit()
        conn.close()
        with pytest.raises(IntegrityError) as excinfo:
            list(source.chunks())
        assert excinfo.value.chunk == 1
