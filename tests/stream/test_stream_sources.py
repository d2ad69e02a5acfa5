"""Tests for repro.stream sources and sinks — chunked file I/O."""

import csv
import gc
import gzip
import sqlite3

import pytest

from repro import MarkKey, Watermark, cli
from repro.core import EmbeddingSpec
from repro.datagen import generate_item_scan, iter_item_scan_rows
from repro.relational import (
    Attribute,
    AttributeType,
    CategoricalDomain,
    Schema,
    Table,
    schema_to_json,
    write_csv,
)
from repro.stream import (
    BadRowError,
    CSVChunkSink,
    CSVChunkSource,
    NullChunkSink,
    SQLiteChunkSink,
    SQLiteChunkSource,
    StreamError,
    SyntheticChunkSource,
    TableChunkSink,
    TableChunkSource,
    count_data_rows,
    item_scan_source,
    open_sink,
    open_source,
    shutdown_stream_pool,
    stream_verify,
)


@pytest.fixture(scope="module")
def relation():
    return generate_item_scan(1000, item_count=60, seed=13)


def concatenate(chunks):
    rows = []
    schema = None
    for chunk in chunks:
        schema = schema or chunk.schema
        rows.extend(chunk)
    return rows, schema


class TestCSVChunkSource:
    def test_chunks_cover_file_in_order(self, relation, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(relation, path)
        source = CSVChunkSource(path, relation.schema, chunk_size=128)
        chunks = list(source)
        assert [len(chunk) for chunk in chunks] == [128] * 7 + [104]
        rows, _ = concatenate(chunks)
        assert rows == list(relation)

    def test_cells_are_typed(self, relation, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(relation, path)
        chunk = next(iter(CSVChunkSource(path, relation.schema, chunk_size=5)))
        first = next(iter(chunk))
        assert isinstance(first[0], int) and isinstance(first[1], int)

    def test_gzip_detected_by_magic(self, relation, tmp_path):
        path = tmp_path / "data.csv.gz"  # suffix and magic both say gzip
        with gzip.open(path, "wt", encoding="utf-8", newline="") as handle:
            handle.write(
                "Visit_Nbr,Item_Nbr\n"
                + "".join(f"{k},{v}\n" for k, v in relation.iter_cells(
                    "Visit_Nbr", "Item_Nbr"))
            )
        rows, _ = concatenate(
            CSVChunkSource(path, relation.schema, chunk_size=300)
        )
        assert rows == list(relation)

    def test_start_skips_whole_chunks(self, relation, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(relation, path)
        source = CSVChunkSource(path, relation.schema, chunk_size=128)
        tail = list(source.chunks(start=6))
        assert [len(chunk) for chunk in tail] == [128, 104]
        assert list(tail[0])[0] == list(relation)[6 * 128]

    def test_header_mismatch_raises(self, relation, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("A,B\n1,2\n", encoding="utf-8")
        with pytest.raises(ValueError, match="header"):
            list(CSVChunkSource(path, relation.schema))

    def test_arity_mismatch_reports_row_number(self, relation, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(
            "Visit_Nbr,Item_Nbr\n1,10003\n2,10003,EXTRA\n", encoding="utf-8"
        )
        with pytest.raises(ValueError, match="row 2"):
            list(CSVChunkSource(path, relation.schema))

    def test_bad_chunk_size_rejected(self, relation, tmp_path):
        with pytest.raises(StreamError):
            CSVChunkSource(tmp_path / "x.csv", relation.schema, chunk_size=0)

    def test_infer_domains_widens_per_chunk(self, tmp_path):
        schema = Schema(
            (
                Attribute("K", AttributeType.INTEGER),
                Attribute(
                    "A", AttributeType.CATEGORICAL, CategoricalDomain(["a"])
                ),
            ),
            primary_key="K",
        )
        path = tmp_path / "data.csv"
        path.write_text("K,A\n1,a\n2,zz\n", encoding="utf-8")
        with pytest.raises(Exception):  # strict mode rejects out-of-domain
            list(CSVChunkSource(path, schema, chunk_size=10))
        chunks = list(
            CSVChunkSource(path, schema, chunk_size=10, infer_domains=True)
        )
        assert "zz" in chunks[0].schema.attribute("A").domain

    @pytest.mark.parametrize(
        "quoting", [csv.QUOTE_MINIMAL, csv.QUOTE_ALL], ids=["cut", "split"]
    )
    def test_a_csv_error_after_a_bad_record_fails_alike_at_every_worker_count(
        self, tmp_path, quoting
    ):
        """A field over ``csv.field_size_limit()`` two chunks after a bad
        record: every worker count reports the bad record, as reading
        one record at a time does — the pool's read-ahead no longer
        splits the later chunk before the earlier one commits, whether
        the reader cuts its text at newlines or (quoted fields) splits
        it."""
        relation = generate_item_scan(1000, item_count=50, seed=3)
        records = [
            [str(key), str(item)]
            for key, item in relation.iter_cells("Visit_Nbr", "Item_Nbr")
        ]
        records[149][0] = "x" + records[149][0]
        records[249].insert(0, "9" * 200_000)
        path = tmp_path / "oversized.csv.gz"
        with gzip.open(path, "wt", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, quoting=quoting)
            writer.writerow(relation.schema.names)
            writer.writerows(records)
        spec = EmbeddingSpec("Visit_Nbr", "Item_Nbr", 20, 10, 60)
        key = MarkKey.from_seed("oversized")
        watermark = Watermark.from_int(0x2AB, 10)
        numbers = []
        try:
            for workers in (None, 2):
                source = CSVChunkSource(path, relation.schema, chunk_size=100)
                with pytest.raises(BadRowError) as excinfo:
                    stream_verify(
                        source, key, spec, watermark, workers=workers
                    )
                numbers.append(excinfo.value.number)
        finally:
            shutdown_stream_pool()
        assert numbers == [150, 150]

    def test_a_pool_splits_fields_with_the_callers_field_size_limit(
        self, tmp_path, relation
    ):
        """Pool workers split a chunk's text with the coordinator's
        ``csv.field_size_limit()``, also in a pool that was up before
        the caller raised it: a field over the default limit reads alike
        at every worker count."""
        schema = Schema(
            (*relation.schema, Attribute("Note", AttributeType.STRING)),
            primary_key=relation.schema.primary_key,
        )
        records = [[str(key), str(item), "n"] for key, item in relation]
        path = tmp_path / "notes.csv.gz"
        spec = EmbeddingSpec("Visit_Nbr", "Item_Nbr", 20, 10, 60)
        key = MarkKey.from_seed("notes")
        watermark = Watermark.from_int(0x2AB, 10)

        def verify(workers):
            return stream_verify(
                CSVChunkSource(path, schema, chunk_size=100),
                key, spec, watermark, workers=workers,
            ).votes

        def write():
            with gzip.open(path, "wt", encoding="utf-8", newline="") as out:
                csv.writer(out).writerows([schema.names, *records])

        limit = csv.field_size_limit()
        try:
            write()
            verify(2)  # the pool is up, at the default limit
            records[150][-1] = "w" * (limit + 1)
            write()
            csv.field_size_limit(limit + 10)
            votes = [verify(workers) for workers in (None, 2)]
        finally:
            csv.field_size_limit(limit)
            shutdown_stream_pool()
        assert votes[0] == votes[1]


class TestTruncatedGzip:
    """A gzip CSV cut off two thirds of the way through, read in chunks of
    100 rows: every chunk before the cut is yielded and the read error
    surfaces with the chunk that holds the cut, as reading one record at
    a time makes it — so a reader must never read past a chunk's last
    record, however it batches records."""

    CHUNK = 100

    @pytest.fixture(scope="class")
    def lines(self):
        relation = generate_item_scan(3000, item_count=60, seed=13)
        return [
            f"{key},{item}\n"
            for key, item in relation.iter_cells("Visit_Nbr", "Item_Nbr")
        ]

    @staticmethod
    def write_cut(path, lines):
        with gzip.open(path, "wt", encoding="utf-8", newline="") as handle:
            handle.write("Visit_Nbr,Item_Nbr\n" + "".join(lines))
        data = path.read_bytes()
        path.write_bytes(data[: len(data) * 2 // 3])

    @staticmethod
    def records_before_cut(path):
        """Records a record-at-a-time reader gets before the read error."""
        count = 0
        with gzip.open(path, "rt", encoding="utf-8", newline="") as handle:
            reader = csv.reader(handle)
            next(reader)
            with pytest.raises(EOFError):
                for _ in reader:
                    count += 1
        return count

    def drain(self, source, error):
        chunks = []
        with pytest.raises(error) as excinfo:
            for chunk in source.chunks():
                chunks.append(list(chunk))
        assert gc.isenabled()
        return chunks, excinfo.value

    @pytest.mark.parametrize("policy", ["raise", "skip", "quarantine"])
    def test_chunks_before_the_cut_then_eof(
        self, relation, lines, policy, tmp_path
    ):
        path = tmp_path / "cut.csv.gz"
        self.write_cut(path, lines)
        read = self.records_before_cut(path)
        assert read // self.CHUNK >= 3
        source = CSVChunkSource(
            path, relation.schema, chunk_size=self.CHUNK, on_bad_rows=policy
        )
        chunks, _ = self.drain(source, EOFError)
        assert len(chunks) == read // self.CHUNK
        assert [row for chunk in chunks for row in chunk] == [
            tuple(int(cell) for cell in line.split(","))
            for line in lines[: len(chunks) * self.CHUNK]
        ]
        assert source.bad_row_count == 0

    def write_dirty_cut(self, lines, tmp_path):
        """A cut file whose chunk holding the cut starts with a bad
        record: ``(path, bad record's row number, that chunk's index)``."""
        clean = tmp_path / "clean.csv.gz"
        self.write_cut(clean, lines)
        cut_chunk = self.records_before_cut(clean) // self.CHUNK
        # The first record of the chunk holding the cut, made unparseable
        # at the same length (the cut stays in that chunk).
        bad = cut_chunk * self.CHUNK + 1
        key, item = lines[bad - 1].split(",")
        dirty = list(lines)
        dirty[bad - 1] = "x" * len(key) + "," + item
        path = tmp_path / "dirty.csv.gz"
        self.write_cut(path, dirty)
        read = self.records_before_cut(path)
        assert read // self.CHUNK == cut_chunk and read > bad
        return path, bad, cut_chunk

    @pytest.mark.parametrize("policy", ["raise", "skip", "quarantine"])
    def test_bad_record_in_the_cut_chunk_comes_first(
        self, relation, lines, policy, tmp_path
    ):
        path, bad, cut_chunk = self.write_dirty_cut(lines, tmp_path)
        source = CSVChunkSource(
            path, relation.schema, chunk_size=self.CHUNK, on_bad_rows=policy
        )
        if policy == "raise":
            chunks, error = self.drain(source, BadRowError)
            assert error.number == bad
            assert len(chunks) == cut_chunk
            return
        chunks, _ = self.drain(source, EOFError)
        assert len(chunks) == cut_chunk
        assert source.bad_row_count == 1
        if policy == "quarantine":
            assert source.quarantined_rows == 1
            with open(
                source.quarantine_path, newline="", encoding="utf-8"
            ) as handle:
                sidecar = list(csv.reader(handle))
            assert [record[0] for record in sidecar[1:]] == [str(bad)]

    def test_bad_record_in_the_cut_chunk_fails_alike_at_every_worker_count(
        self, relation, lines, tmp_path
    ):
        path, bad, _ = self.write_dirty_cut(lines, tmp_path)
        spec = EmbeddingSpec("Visit_Nbr", "Item_Nbr", 20, 10, 60)
        key = MarkKey.from_seed("truncated")
        watermark = Watermark.from_int(0x2AB, 10)
        numbers = []
        try:
            for workers in (None, 2):
                source = CSVChunkSource(
                    path, relation.schema, chunk_size=self.CHUNK
                )
                with pytest.raises(BadRowError) as excinfo:
                    stream_verify(
                        source, key, spec, watermark, workers=workers
                    )
                numbers.append(excinfo.value.number)
        finally:
            shutdown_stream_pool()
        assert numbers == [bad, bad]

    def test_cli_exits_6_at_every_worker_count_and_retry_budget(
        self, relation, lines, tmp_path
    ):
        path, _, _ = self.write_dirty_cut(lines, tmp_path)
        write_csv(relation, tmp_path / "clean.csv")
        schema = tmp_path / "schema.json"
        schema.write_text(schema_to_json(relation.schema), encoding="utf-8")
        key = tmp_path / "key.json"
        record = tmp_path / "record.json"
        assert cli.main(["genkey", "--out", str(key), "--seed", "cut"]) == 0
        assert cli.main([
            "embed", "--data", str(tmp_path / "clean.csv"),
            "--schema", str(schema), "--key", str(key),
            "--attribute", "Item_Nbr", "--watermark", "bits:1010101011",
            "--e", "20", "--out", str(tmp_path / "marked.csv"),
            "--record", str(record),
        ]) == 0
        detect = [
            "detect", "--input", str(path), "--chunk-size", str(self.CHUNK),
            "--schema", str(schema), "--key", str(key),
            "--record", str(record),
        ]
        try:
            codes = [
                cli.main(detect + ["--workers", workers, "--retries", retries])
                for workers in ("1", "2")
                for retries in ("0", "2")
            ]
        finally:
            shutdown_stream_pool()
        assert codes == [cli.EXIT_BAD_ROWS] * 4


class TestSQLiteChunkSource:
    def test_round_trip_via_sink(self, relation, tmp_path):
        path = tmp_path / "data.sqlite"
        sink = SQLiteChunkSink(path)
        sink.open(relation.schema)
        sink.write_chunk(relation)
        sink.close()
        source = SQLiteChunkSource(path, relation.schema, chunk_size=333)
        rows, _ = concatenate(source)
        assert rows == list(relation)

    def test_start_offsets_by_rowid(self, relation, tmp_path):
        path = tmp_path / "data.sqlite"
        with SQLiteChunkSink(path) as sink:
            sink.open(relation.schema)
            sink.write_chunk(relation)
        source = SQLiteChunkSource(path, relation.schema, chunk_size=400)
        tail = list(source.chunks(start=2))
        assert [len(chunk) for chunk in tail] == [200]
        assert list(tail[0]) == list(relation)[800:]


class TestSyntheticChunkSource:
    def test_restartable_and_deterministic(self):
        source = item_scan_source(500, chunk_size=64, item_count=50, seed=3)
        first, _ = concatenate(source)
        second, _ = concatenate(source)
        assert first == second
        assert len(first) == 500
        assert len({row[0] for row in first}) == 500  # unique PKs

    def test_start_fast_forwards_the_stream(self):
        source = item_scan_source(500, chunk_size=64, item_count=50, seed=3)
        full, _ = concatenate(source)
        tail, _ = concatenate(source.chunks(start=3))
        assert tail == full[3 * 64:]

    def test_rows_factory_contract(self):
        schema = generate_item_scan(1, item_count=10).schema
        source = SyntheticChunkSource(
            schema,
            lambda: iter_item_scan_rows(100, item_count=10, seed=1),
            chunk_size=30,
        )
        assert [len(chunk) for chunk in source] == [30, 30, 30, 10]


class TestTableChunkSource:
    def test_whole_table_single_chunk(self, relation):
        chunks = list(TableChunkSource(relation, chunk_size=len(relation)))
        assert len(chunks) == 1
        assert list(chunks[0]) == list(relation)

    def test_chunk_size_one(self, relation):
        source = TableChunkSource(relation, chunk_size=1)
        total = sum(len(chunk) for chunk in source)
        assert total == len(relation)


class TestOpenHelpers:
    def test_open_source_dispatches_by_type(self, relation, tmp_path):
        csv_path = tmp_path / "r.csv"
        write_csv(relation, csv_path)
        assert isinstance(
            open_source(csv_path, relation.schema), CSVChunkSource
        )
        db_path = tmp_path / "r.sqlite"
        with SQLiteChunkSink(db_path) as sink:
            sink.open(relation.schema)
            sink.write_chunk(relation)
        assert isinstance(
            open_source(db_path, relation.schema), SQLiteChunkSource
        )

    def test_open_sink_dispatches_by_suffix(self, tmp_path):
        assert isinstance(open_sink(tmp_path / "x.csv"), CSVChunkSink)
        assert isinstance(open_sink(tmp_path / "x.csv.gz"), CSVChunkSink)
        assert isinstance(open_sink(tmp_path / "x.sqlite"), SQLiteChunkSink)

    def test_count_data_rows_csv_with_embedded_newlines(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text('K,A\n1,"a\nb"\n2,c\n', encoding="utf-8")
        assert count_data_rows(path) == 2  # a quoted newline is one record

    def test_count_data_rows_sqlite(self, relation, tmp_path):
        path = tmp_path / "r.sqlite"
        with SQLiteChunkSink(path) as sink:
            sink.open(relation.schema)
            sink.write_chunk(relation)
        assert count_data_rows(path) == len(relation)


class TestSinks:
    def test_csv_sink_restore_truncates_garbage(self, relation, tmp_path):
        path = tmp_path / "out.csv"
        sink = CSVChunkSink(path)
        sink.open(relation.schema)
        sink.write_chunk(relation)
        state = sink.flush_state()
        sink.close()
        with open(path, "ab") as handle:
            handle.write(b"half-written,chunk")
        sink = CSVChunkSink(path)
        sink.restore(relation.schema, state)
        sink.close()
        rows, _ = concatenate(CSVChunkSource(path, relation.schema))
        assert rows == list(relation)

    def test_gzip_sink_members_concatenate(self, relation, tmp_path):
        path = tmp_path / "out.csv.gz"
        sink = CSVChunkSink(path)
        sink.open(relation.schema)
        half = len(relation) // 2
        rows = list(relation)
        sink.write_chunk(Table(relation.schema, rows[:half]))
        sink.write_chunk(Table(relation.schema, rows[half:]))
        sink.close()
        text = gzip.decompress(path.read_bytes()).decode("utf-8")
        assert text.count("\r\n") == len(relation) + 1  # header + rows
        restored, _ = concatenate(
            CSVChunkSource(path, relation.schema, chunk_size=100)
        )
        assert restored == rows

    def test_sqlite_sink_restore_deletes_beyond_marker(
        self, relation, tmp_path
    ):
        path = tmp_path / "out.sqlite"
        rows = list(relation)
        sink = SQLiteChunkSink(path)
        sink.open(relation.schema)
        sink.write_chunk(Table(relation.schema, rows[:400]))
        state = sink.flush_state()
        sink.write_chunk(Table(relation.schema, rows[400:]))
        sink.close()
        sink = SQLiteChunkSink(path)
        sink.restore(relation.schema, state)
        sink.close()
        with sqlite3.connect(path) as connection:
            count = connection.execute(
                "SELECT COUNT(*) FROM relation"
            ).fetchone()[0]
        assert count == 400

    def test_table_sink_collects(self, relation):
        sink = TableChunkSink()
        sink.open(relation.schema)
        sink.write_chunk(relation)
        assert list(sink.table) == list(relation)
        with pytest.raises(StreamError):
            sink.restore(relation.schema, {"rows": 0})

    def test_null_sink_counts(self, relation):
        sink = NullChunkSink()
        sink.open(relation.schema)
        sink.write_chunk(relation)
        assert sink.flush_state() == {"rows": len(relation)}


class TestSQLiteTableResolution:
    def _renamed_db(self, relation, tmp_path, new_name):
        path = tmp_path / "data.sqlite"
        with SQLiteChunkSink(path) as sink:
            sink.open(relation.schema)
            sink.write_chunk(relation)
        with sqlite3.connect(path) as connection:
            connection.execute(f'ALTER TABLE relation RENAME TO "{new_name}"')
        return path

    def test_single_table_auto_resolves_whatever_its_name(
        self, relation, tmp_path
    ):
        path = self._renamed_db(relation, tmp_path, "sales")
        rows, _ = concatenate(SQLiteChunkSource(path, relation.schema))
        assert rows == list(relation)
        assert count_data_rows(path) == len(relation)

    def test_explicit_table_name_is_used_verbatim(self, relation, tmp_path):
        path = self._renamed_db(relation, tmp_path, "sales")
        with pytest.raises(sqlite3.OperationalError):
            list(SQLiteChunkSource(path, relation.schema, table="nope"))

    def test_ambiguous_tables_raise(self, relation, tmp_path):
        path = self._renamed_db(relation, tmp_path, "sales")
        with sqlite3.connect(path) as connection:
            connection.execute("CREATE TABLE other (x INTEGER)")
        with pytest.raises(StreamError, match="pass table="):
            list(SQLiteChunkSource(path, relation.schema))


class TestSinkCompressionChoice:
    def test_sink_format_follows_requested_suffix_not_stale_bytes(
        self, relation, tmp_path
    ):
        # A .csv path currently holding gzip bytes (say, a renamed earlier
        # output) must be overwritten with PLAIN csv, not silently gzip.
        path = tmp_path / "out.csv"
        path.write_bytes(gzip.compress(b"old,contents\n"))
        sink = CSVChunkSink(path)
        sink.open(relation.schema)
        sink.write_chunk(relation)
        sink.close()
        head = path.read_bytes()[:2]
        assert head != b"\x1f\x8b"
        rows, _ = concatenate(CSVChunkSource(path, relation.schema))
        assert rows == list(relation)
