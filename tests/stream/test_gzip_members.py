"""Gzip members of ``CSVChunkSink`` against the ``GzipFile`` recipe.

A member is built by one ``zlib`` compressor and must be byte for byte
what ``gzip.GzipFile(filename="", mtime=0)`` under a text wrapper wrote:
``csv.writer`` into the wrapper, ``detach()``, then ``close()`` for a
complete member or ``flush()`` for a torn one.  Output that recipe wrote
must also resume byte-identically — at level 9 with no level in its
sink states (written before levels were recorded) and at level 6.
"""

import csv
import gzip
import io

import pytest

from repro import MarkKey, Watermark
from repro.core import EmbeddingSpec
from repro.datagen import generate_item_scan
from repro.stream import CSVChunkSink, TableChunkSource, stream_mark, sinks


def recipe(rows, level: int, torn: bool = False) -> bytes:
    """The member the ``GzipFile`` recipe writes for ``rows``."""
    raw = io.BytesIO()
    member = gzip.GzipFile(
        filename="", fileobj=raw, mode="wb", compresslevel=level, mtime=0
    )
    text = io.TextIOWrapper(member, encoding="utf-8", newline="")
    csv.writer(text).writerows(rows)
    text.detach()
    if torn:
        member.flush()
    else:
        member.close()
    return raw.getvalue()


def recipe_segment(self, columns, torn=False):
    """``CSVChunkSink._encode_segment`` as the recipe computed it."""
    rows = list(zip(*columns))
    if not self.compress:
        buffer = io.StringIO()
        csv.writer(buffer).writerows(rows)
        return buffer.getvalue().encode("utf-8")
    return recipe(rows, self._level, torn)


def segment(columns, level: int, torn: bool = False) -> bytes:
    sink = CSVChunkSink("unused.csv.gz")
    sink._level = level
    return sink._encode_segment(columns, torn=torn)


def sales_columns(rows: int) -> list[list]:
    table = generate_item_scan(max(rows, 1), item_count=50, seed=3)
    columns = [table.column(name) for name in table.schema.names]
    # a non-ASCII text column, so the deflated bytes are not all ASCII
    columns.append([f"é{value}☃" for value in columns[0]])
    return [column[:rows] for column in columns]


@pytest.mark.parametrize("level", [1, 6, 9])
@pytest.mark.parametrize("torn", [False, True], ids=["complete", "torn"])
@pytest.mark.parametrize("rows", [0, 1, 700, 3000])
def test_member_equals_the_gzipfile_recipe(level, torn, rows):
    columns = sales_columns(rows)
    expected = recipe(list(zip(*columns)), level, torn)
    assert segment(columns, level, torn) == expected


@pytest.mark.parametrize("level", [1, 6, 9])
def test_header_member_and_fallback_text(level):
    header = [["Visit_Nbr"], ["Item_Nbr"]]
    assert segment(header, level) == recipe([("Visit_Nbr", "Item_Nbr")], level)
    quoted = [[1, 2], ['a "quoted", cell', "two\nlines"]]
    assert segment(quoted, level) == recipe(list(zip(*quoted)), level)


@pytest.mark.parametrize("level", [1, 6, 9])
def test_member_header_bytes(level):
    member = segment([[1], ["x"]], level)
    xfl = {9: 2, 1: 4}.get(level, 0)
    assert member[:10] == bytes([0x1F, 0x8B, 8, 0, 0, 0, 0, 0, xfl, 255])
    assert gzip.decompress(member) == b"1,x\r\n"


def test_no_gzipfile_or_text_wrapper_on_the_write_path(monkeypatch):
    columns = sales_columns(500)
    expected = segment(columns, 6)

    def forbidden(*args, **kwargs):
        raise AssertionError("the sink wrapped its member in a file object")

    monkeypatch.setattr(gzip, "GzipFile", forbidden)
    monkeypatch.setattr(io, "TextIOWrapper", forbidden)
    monkeypatch.setattr(csv, "writer", forbidden)
    assert segment(columns, 6) == expected


class Interrupt(Exception):
    pass


class StoppingSource:
    """Wraps a source and dies after ``stop_after`` total chunks."""

    def __init__(self, inner, stop_after):
        self.inner = inner
        self.stop_after = stop_after
        self.schema = inner.schema
        self.chunk_size = inner.chunk_size

    def chunks(self, start=0):
        for offset, chunk in enumerate(self.inner.chunks(start)):
            if start + offset >= self.stop_after:
                raise Interrupt()
            yield chunk


@pytest.mark.parametrize(
    "level, recorded", [(9, False), (6, True)],
    ids=["level-9-unrecorded", "level-6"],
)
def test_resume_continues_recipe_output(
    tmp_path, monkeypatch, level, recorded
):
    base = generate_item_scan(3000, item_count=120, seed=21)
    key = MarkKey.from_seed("gzip-members")
    wm = Watermark.from_int(0x2AB, 10)
    spec = EmbeddingSpec("Visit_Nbr", "Item_Nbr", 40, 10, 120)
    checkpoint = tmp_path / "mark.ckpt"

    def mark(path, stop_after=None, **kwargs):
        source = TableChunkSource(base, chunk_size=500)
        if stop_after is not None:
            source = StoppingSource(source, stop_after)
        return stream_mark(source, wm, key, spec, CSVChunkSink(path), **kwargs)

    real_flush_state = CSVChunkSink.flush_state

    def flush_state(self):
        state = real_flush_state(self)
        if not recorded:
            del state["level"]
        return state

    with monkeypatch.context() as patch:
        patch.setattr(sinks, "GZIP_LEVEL", level)
        patch.setattr(CSVChunkSink, "_encode_segment", recipe_segment)
        patch.setattr(CSVChunkSink, "flush_state", flush_state)
        mark(tmp_path / "full.csv.gz")
        with pytest.raises(Interrupt):
            mark(
                tmp_path / "part.csv.gz", stop_after=3,
                checkpoint_path=checkpoint,
            )
    resumed = mark(
        tmp_path / "part.csv.gz", checkpoint_path=checkpoint, resume=True
    )
    assert resumed.resumed_at_chunk == 3
    assert resumed.rows == len(base)
    assert (
        (tmp_path / "part.csv.gz").read_bytes()
        == (tmp_path / "full.csv.gz").read_bytes()
    )
