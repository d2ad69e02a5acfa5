"""``CSVChunkSink.restore()`` edge cases: offset zero and empty states.

The crash-recovery paths normally rewind to a durable marker somewhere
mid-file; these tests pin the two degenerate corners — restoring to the
very start of the file, and round-tripping a flush state captured before
any chunk landed — for both the plain and the gzip writer.  A restore
that mishandles either corner corrupts the earliest (and most likely)
recovery window: a crash during the first chunk.
"""

import gzip

import pytest

from repro.datagen import generate_item_scan
from repro.stream import CSVChunkSink, TableChunkSource

CHUNK = 50
ROWS = 200


@pytest.fixture(scope="module")
def base():
    return generate_item_scan(ROWS, item_count=20, seed=5)


@pytest.fixture(scope="module")
def chunks(base):
    return list(TableChunkSource(base, chunk_size=CHUNK).chunks())


def _read(path):
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "rb") as handle:
        return handle.read()


@pytest.mark.parametrize("suffix", ["csv", "csv.gz"])
class TestRestoreEdges:
    def test_restore_to_offset_zero_discards_everything(
        self, base, chunks, tmp_path, suffix
    ):
        path = tmp_path / f"out.{suffix}"
        sink = CSVChunkSink(path)
        sink.open(base.schema)
        sink.write_chunk(chunks[0])
        # the sink's own state rewound to the start, so it keeps
        # whatever else the sink records (a gzip sink's level)
        rewind = {**sink.flush_state(), "offset": 0, "chunks": 0}
        sink.restore(base.schema, rewind)
        sink.write_chunk(chunks[1])
        state = sink.flush_state()
        sink.close()
        # header and chunk 0 are gone; the file holds exactly chunk 1
        reference = tmp_path / f"ref.{suffix}"
        ref = CSVChunkSink(reference)
        ref.open(base.schema)
        ref.write_chunk(chunks[1])
        ref.flush_state()
        ref.close()
        header_end = _header_end(reference, base)
        assert path.stat().st_size == state["offset"]
        assert state["chunks"] == 1
        assert (
            path.read_bytes()
            == reference.read_bytes()[header_end:]
        )

    def test_empty_flush_state_roundtrip(self, base, chunks, tmp_path, suffix):
        """A state captured right after open() resumes to identical bytes."""
        path = tmp_path / f"out.{suffix}"
        sink = CSVChunkSink(path)
        sink.open(base.schema)
        state = sink.flush_state()
        sink.close()
        assert state["chunks"] == 0
        assert state["offset"] == path.stat().st_size
        resumed = CSVChunkSink(path)
        resumed.restore(base.schema, state)
        for chunk in chunks:
            resumed.write_chunk(chunk)
        resumed.flush_state()
        resumed.close()
        reference = tmp_path / f"ref.{suffix}"
        ref = CSVChunkSink(reference)
        ref.open(base.schema)
        for chunk in chunks:
            ref.write_chunk(chunk)
        ref.flush_state()
        ref.close()
        assert path.read_bytes() == reference.read_bytes()

    def test_restore_truncates_trailing_garbage(
        self, base, chunks, tmp_path, suffix
    ):
        path = tmp_path / f"out.{suffix}"
        sink = CSVChunkSink(path)
        sink.open(base.schema)
        state = sink.flush_state()
        sink.close()
        with open(path, "ab") as handle:
            handle.write(b"half-written garbage from a crash")
        resumed = CSVChunkSink(path)
        resumed.restore(base.schema, state)
        for chunk in chunks:
            resumed.write_chunk(chunk)
        resumed.flush_state()
        resumed.close()
        assert _read(path).decode("utf-8").count("\n") == ROWS + 1

    def test_manifest_restore_to_zero_empties_entries(
        self, base, chunks, tmp_path, suffix
    ):
        path = tmp_path / f"out.{suffix}"
        sink = CSVChunkSink(path)
        sink.arm_manifest()
        sink.open(base.schema)
        sink.write_chunk(chunks[0])
        sink.flush_state()
        assert len(sink.manifest.entries) == 1
        sink.restore(base.schema, {"offset": 0, "chunks": 0})
        assert sink.manifest.entries == []
        sink.write_chunk(chunks[1])
        sink.flush_state()
        sink.close()
        entry = sink.manifest.entries[0]
        assert (entry.index, entry.start) == (0, 0)
        assert entry.end == path.stat().st_size


def _header_end(reference_path, base):
    """Byte length of the header segment of a reference sink file."""
    probe = CSVChunkSink(reference_path.with_name("probe" + reference_path.name))
    probe.arm_manifest()
    probe.open(base.schema)
    probe.flush_state()
    probe.close()
    return probe.manifest.header.end
