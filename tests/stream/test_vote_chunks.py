"""VECTOR stream detection on column codes behaves as on chunk tables.

A VECTOR detect of a raw CSV payload builds no chunk table: it types
every cell, checks the chunk a column at a time and hands the key and
mark column codes to the vote kernels.  The SCALAR reference still
builds every chunk table, so its outcome — a verdict, or an error type
and message — is what the column path must give, at every worker count,
for clean files and for each way a suspect file can be damaged.
"""

import csv
import gzip

import pytest

from repro.core import EmbeddingSpec, Watermark, embed
from repro.crypto import SCALAR, MarkKey
from repro.datagen import generate_sales
from repro.stream import CSVChunkSource, shutdown_stream_pool, stream_verify

KEY = MarkKey.from_seed("vote-chunks")
WATERMARK = Watermark.from_int(0x2AB, 10)
SPEC = EmbeddingSpec("Scan_Id", "Item_Nbr", 20, 10, 60)


@pytest.fixture(scope="module", autouse=True)
def _pool_teardown():
    yield
    shutdown_stream_pool()


@pytest.fixture(scope="module")
def marked():
    table = generate_sales(1_200, item_count=60, seed=5)
    embed(table, WATERMARK, KEY, SPEC)
    return table


def _edit_cell(scan_id, column, text):
    def edit(row_scan_id, cells):
        if row_scan_id == scan_id:
            cells[column] = text
    return edit


#: how the suspect file differs from the marked relation's text
CASES = {
    "clean": lambda scan_id, cells: None,
    "bad_quantity": _edit_cell(650, 4, "abc"),
    "foreign_store": _edit_cell(650, 2, "ST999"),
    "key_100_as_0100": _edit_cell(210, 0, "0100"),
    "padded_key": _edit_cell(650, 0, " 650 "),
}


def _outcome(path, schema, infer, workers, backend):
    source = CSVChunkSource(
        path, schema, chunk_size=300, infer_domains=infer
    )
    try:
        result = stream_verify(
            source, KEY, SPEC, WATERMARK,
            domain=schema.attribute("Item_Nbr").domain,
            workers=workers, backend=backend,
        )
    except Exception as exc:  # compared type and message, not swallowed
        return "raised", type(exc), str(exc)
    return (
        "verdict", result.verification, result.votes, result.rows,
        result.chunks, result.reliability.to_dict(),
    )


@pytest.mark.parametrize("infer", [True, False])
@pytest.mark.parametrize("case", sorted(CASES))
def test_column_path_matches_the_table_reference(
    marked, tmp_path, case, infer
):
    path = tmp_path / "suspect.csv.gz"
    with gzip.open(path, "wt", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(marked.schema.names)
        for row in marked:
            cells = [str(value) for value in row]
            CASES[case](row[0], cells)
            writer.writerow(cells)
    reference = _outcome(path, marked.schema, infer, None, SCALAR)
    for workers in (None, 2):
        assert _outcome(path, marked.schema, infer, workers, None) == (
            reference
        ), workers
    if case in ("clean", "padded_key") or (case, infer) == (
        "foreign_store", True
    ):
        assert reference[0] == "verdict" and reference[1].detected
    else:
        assert reference[0] == "raised"
