#!/usr/bin/env python3
"""Fingerprint the outputs of a fixed matrix of streamed marks and detects.

Runs one fixed matrix through the public ``repro.stream`` API and prints
one JSON object that maps every artifact to its sha256: marked files,
checkpoints, their ``.prev`` copies and chunk-hash journals, the
counters of every ``StreamMarkResult``, votes and verdicts, the type,
message and row of every error, and reliability reports.  Each run
works in a new temporary directory, removed afterwards, and every
message has that directory replaced by ``<work>``, so the output depends
on neither the run nor the path.  Two source trees that print the same
bytes produce the same streamed outputs:

    PYTHONPATH=src python3 tools/stream_fingerprint.py > new.json
    PYTHONPATH=/path/to/other/src python3 tools/stream_fingerprint.py > old.json
    cmp old.json new.json

The matrix: a 12,000-row Sales relation in 1,500-row chunks, written as
a ``\\r\\n`` gzip CSV, an LF plain CSV, an all-quoted gzip CSV and a
SQLite database, each run at ``workers=None`` and ``workers=2``:

* marks, each checkpointed: a fresh run; a run stopped by a
  ``pipeline.chunk`` fault after chunk 3, then resumed; the same stop
  followed by a verified resume; a run under a retry policy with
  transient ``source.read``, ``sink.write`` and ``checkpoint.save``
  faults.  Every file a stopped run leaves is fingerprinted before its
  resume, so what a stop leaves durable is pinned too;
* detects, over the marked relation written in the same four formats:
  VECTOR and SCALAR ``stream_verify`` and a 3-key
  ``stream_verify_multipass``;
* errors of mark and detect over a gzip CSV with a torn row, a repeated
  key, an out-of-domain mark value, and a gzip CSV cut short, and every
  file each failed mark leaves behind.

The matrix takes about ten seconds on a 2-vCPU host.
"""

from __future__ import annotations

import argparse
import csv
import gzip
import hashlib
import io
import json
import shutil
import tempfile
from pathlib import Path

from repro import MarkKey, Watermark
from repro.core import EmbeddingSpec
from repro.crypto import SCALAR, VECTOR
from repro.datagen import generate_sales
from repro.relational import Table
from repro.reliability import IO_ERROR, FaultPlan, RetryPolicy
from repro.stream import (
    CSVChunkSource,
    SQLiteChunkSource,
    open_sink,
    shutdown_stream_pool,
    stream_mark,
    stream_verify,
    stream_verify_multipass,
)

ROWS = 12_000
CHUNK = 1_500
WORKERS = (None, 2)
KEY = MarkKey.from_seed("stream-fingerprint")
KEYS = [KEY, MarkKey.from_seed("stream-fingerprint:1"),
        MarkKey.from_seed("stream-fingerprint:2")]
WATERMARK = Watermark.from_int(0x2D5, 10)
SPEC = EmbeddingSpec("Scan_Id", "Item_Nbr", 40, 10, 120)
RETRY = RetryPolicy(max_attempts=4, base_delay=0.0)
#: the chunk a stopped mark's last durable chunk is
STOP_AFTER = 3
#: the data row (1-based) each broken input breaks
BAD_ROW = 5_000


def sha256(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


class Fingerprint:
    """The artifacts of one matrix run, keyed by name."""

    def __init__(self, work: Path):
        self.work = work
        self.artifacts: dict[str, str] = {}

    def text(self, name: str, text: str) -> None:
        self.artifacts[name] = sha256(text.replace(str(self.work), "<work>"))

    def value(self, name: str, value) -> None:
        self.text(name, json.dumps(value, sort_keys=True))

    def files(self, name: str, directory: Path) -> None:
        """Every file ``directory`` holds: output, checkpoint, ``.prev``,
        journal, and anything a run leaves behind."""
        for path in sorted(directory.iterdir()):
            self.artifacts[f"{name}/{path.name}"] = sha256(path.read_bytes())

    def error(self, name: str, run) -> None:
        try:
            run()
        except Exception as exc:  # the error is the artifact
            self.value(name, {
                "type": type(exc).__name__,
                "message": str(exc),
                "row": getattr(exc, "number", None),
            })
        else:
            self.value(name, None)


def write(rows: list, schema, path: Path, quoting=csv.QUOTE_MINIMAL,
          line_end: str = "\r\n") -> Path:
    """``rows`` under ``schema`` as the file ``path`` names: SQLite, or a
    CSV (gzipped when its name ends in ``.gz``)."""
    if path.suffix == ".sqlite":
        sink = open_sink(path)
        sink.open(schema)
        sink.write_chunk(Table(schema, rows))
        sink.close()
        return path
    buffer = io.StringIO()
    writer = csv.writer(buffer, quoting=quoting, lineterminator=line_end)
    writer.writerow(schema.names)
    writer.writerows(rows)
    data = buffer.getvalue().encode("utf-8")
    path.write_bytes(gzip.compress(data, mtime=0) if path.suffix == ".gz"
                     else data)
    return path


def write_formats(rows: list, schema, directory: Path) -> dict[str, Path]:
    """``rows`` in every format of the matrix."""
    directory.mkdir(parents=True)
    return {
        "crlf.csv.gz": write(rows, schema, directory / "crlf.csv.gz"),
        "lf.csv": write(rows, schema, directory / "lf.csv", line_end="\n"),
        "quoted.csv.gz": write(rows, schema, directory / "quoted.csv.gz",
                               quoting=csv.QUOTE_ALL),
        "db.sqlite": write(rows, schema, directory / "db.sqlite"),
    }


def source(path: Path, schema):
    if path.suffix == ".sqlite":
        return SQLiteChunkSource(path, schema, chunk_size=CHUNK)
    return CSVChunkSource(path, schema, chunk_size=CHUNK)


def counters(result) -> dict:
    """What a ``StreamMarkResult`` counts (not the pool's worker pids)."""
    parallel = result.parallel
    return {
        "chunks": result.chunks,
        "rows": result.rows,
        "fit_count": result.fit_count,
        "applied": result.applied,
        "vetoed": result.vetoed,
        "unchanged": result.unchanged,
        "slots_written": sorted(result.slots_written),
        "guard": [
            result.guard_report.applied, result.guard_report.vetoed,
            result.guard_report.noop,
            dict(result.guard_report.vetoes_by_constraint),
        ],
        "resumed_at_chunk": result.resumed_at_chunk,
        "reliability": result.reliability.to_dict(),
        "parallel": None if parallel is None else [
            parallel.workers, parallel.chunks_parallel,
            parallel.chunks_serial, parallel.redispatches,
        ],
    }


def mark(path: Path, schema, directory: Path, workers, **options):
    """A checkpointed mark of ``path`` into ``directory``, written as
    SQLite, gzip CSV or plain CSV as ``path`` is."""
    output = {".sqlite": "marked.sqlite", ".gz": "marked.csv.gz"}.get(
        path.suffix, "marked.csv"
    )
    directory.mkdir(parents=True, exist_ok=True)
    return stream_mark(
        source(path, schema), WATERMARK, KEY, SPEC,
        open_sink(directory / output),
        checkpoint_path=directory / "mark.ckpt", workers=workers, **options,
    )


def stop_after_chunk(fp, name, path, schema, directory, workers) -> None:
    plan = FaultPlan().add("pipeline.chunk", IO_ERROR, at=STOP_AFTER)
    with plan.armed():
        fp.error(f"{name}/stop", lambda: mark(path, schema, directory,
                                              workers))
    fp.files(f"{name}/stop", directory)


def mark_matrix(fp, name, path, schema, work, workers) -> None:
    fresh = mark(path, schema, work / "fresh", workers)
    fp.value(f"{name}/fresh/counters", counters(fresh))
    fp.files(f"{name}/fresh", work / "fresh")

    stop_after_chunk(fp, f"{name}/resumed", path, schema, work / "resumed",
                     workers)
    resumed = mark(path, schema, work / "resumed", workers, resume=True)
    fp.value(f"{name}/resumed/counters", counters(resumed))
    fp.files(f"{name}/resumed", work / "resumed")

    stop_after_chunk(fp, f"{name}/verified", path, schema, work / "verified",
                     workers)
    verified = mark(path, schema, work / "verified", workers, resume=True,
                    verify_resume=True)
    fp.value(f"{name}/verified/counters", counters(verified))
    fp.files(f"{name}/verified", work / "verified")

    plan = (
        FaultPlan()
        .add("source.read", IO_ERROR, at=2)
        .add("sink.write", IO_ERROR, at=4)
        .add("checkpoint.save", IO_ERROR, at=6)
    )
    with plan.armed():
        retried = mark(path, schema, work / "retried", workers, retry=RETRY)
    fp.value(f"{name}/retried/reliability", retried.reliability.to_dict())
    fp.files(f"{name}/retried", work / "retried")


def detect_matrix(fp, name, path, schema, workers) -> None:
    for backend in (VECTOR, SCALAR):
        streamed = stream_verify(
            source(path, schema), KEY, SPEC, WATERMARK, backend=backend,
            workers=workers,
        )
        fp.text(f"{name}/verify-{backend}/votes", repr(streamed.votes))
        fp.text(f"{name}/verify-{backend}/verdict",
                repr(streamed.verification))
        fp.value(f"{name}/verify-{backend}/counts",
                 [streamed.chunks, streamed.rows])
    fp.text(f"{name}/multipass", repr(stream_verify_multipass(
        source(path, schema), KEYS, SPEC, [WATERMARK] * len(KEYS),
        workers=workers,
    )))


def broken_inputs(rows: list, schema, directory: Path) -> dict[str, Path]:
    """Gzip CSVs, each broken at data row :data:`BAD_ROW`."""
    directory.mkdir(parents=True)
    at = BAD_ROW - 1
    torn = rows[:at] + [rows[at][:-1]] + rows[at + 1:]
    repeated = rows[:at] + [(rows[at - 1][0], *rows[at][1:])] + rows[at + 1:]
    foreign = rows[:at] + [(rows[at][0], -1, *rows[at][2:])] + rows[at + 1:]
    whole = write(rows, schema, directory / "whole.csv.gz").read_bytes()
    cut = directory / "cut.csv.gz"
    cut.write_bytes(whole[: len(whole) * 2 // 3])
    return {
        "torn-row": write(torn, schema, directory / "torn.csv.gz"),
        "repeated-key": write(repeated, schema, directory / "repeated.csv.gz"),
        "out-of-domain": write(foreign, schema, directory / "foreign.csv.gz"),
        "truncated-gzip": cut,
    }


def run_matrix(work: Path) -> dict[str, str]:
    fp = Fingerprint(work)
    relation = generate_sales(ROWS, seed=5)
    schema = relation.schema
    rows = list(relation)
    inputs = write_formats(rows, schema, work / "inputs")
    for workers in WORKERS:
        for fmt, path in inputs.items():
            mark_matrix(fp, f"mark/{fmt}/w{workers}", path, schema,
                        work / "mark" / fmt / f"w{workers}", workers)

    marked = [
        row for chunk in source(
            work / "mark" / "crlf.csv.gz" / "wNone" / "fresh"
            / "marked.csv.gz", schema,
        ) for row in chunk
    ]
    suspects = write_formats(marked, schema, work / "suspects")
    broken = broken_inputs(rows, schema, work / "broken")
    for workers in WORKERS:
        for fmt, path in suspects.items():
            detect_matrix(fp, f"detect/{fmt}/w{workers}", path, schema,
                          workers)
        for case, path in broken.items():
            out = work / "broken-marks" / case / f"w{workers}"
            fp.error(f"error/{case}/w{workers}/mark",
                     lambda: mark(path, schema, out, workers))
            fp.files(f"error/{case}/w{workers}/mark", out)
            fp.error(f"error/{case}/w{workers}/detect",
                     lambda: stream_verify(source(path, schema), KEY, SPEC,
                                           WATERMARK, workers=workers))
    return fp.artifacts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.parse_args(argv)  # no options: --help only
    work = Path(tempfile.mkdtemp(prefix="stream-fingerprint-"))
    try:
        artifacts = run_matrix(work.resolve())
    finally:
        shutdown_stream_pool()
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(artifacts, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
