#!/usr/bin/env python3
"""Out-of-core watermarking: mark and detect a relation that never fits
in memory.

The scheme decides every embedding/detection action from a keyed hash of
the tuple's key value alone, so both directions chunk perfectly:

1. stream a synthetic million-row-class relation to a gzip CSV, marking
   chunk by chunk with a checkpoint file (kill the process mid-run and
   re-run with ``resume=True`` — the output is byte-identical);
2. blindly verify the marked file with O(chunk + channel) memory: each
   chunk contributes one vote tally to an accumulator, bit-identical to
   the in-memory detector on the same rows;
3. stall-safety: re-run the same embed under an impossibly tight
   wall-clock ``Deadline`` — the run stops *resumably* with
   ``DeadlineExceededError`` (the CLI's ``--deadline SECONDS`` / exit
   code 7), and a fresh-budget resume completes byte-identical to the
   uninterrupted output;
4. multicore detect: the same verification with ``workers="auto"`` — a
   read-ahead decoder ships raw chunk payloads to a process pool,
   kernels run worker-side, and tallies merge in chunk order, so the
   verdict is **bit-identical** to the single-process scan (the CLI's
   ``--workers N|auto``).

Run:  python examples/streaming_pipeline.py
"""

import tempfile
import time
from pathlib import Path

from repro import MarkKey, Watermark
from repro.core import EmbeddingSpec, default_channel_length
from repro.reliability import Deadline, DeadlineExceededError
from repro.stream import (
    CSVChunkSink,
    CSVChunkSource,
    item_scan_source,
    resolve_workers,
    shutdown_stream_pool,
    stream_mark,
    stream_verify,
)

ROWS = 200_000          # raise to millions — memory stays O(CHUNK)
CHUNK = 16_384
E = 60


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-stream-") as workdir:
        run(Path(workdir))


def run(workdir: Path) -> None:
    marked_path = workdir / "marked.csv.gz"
    checkpoint = workdir / "mark.ckpt.json"

    # -- 1. the data: a lazy ItemScan stream (never whole in memory) --------
    source = item_scan_source(ROWS, chunk_size=CHUNK, item_count=500, seed=7)
    key = MarkKey.generate()
    watermark = Watermark.from_text("(c) ACME")
    spec = EmbeddingSpec(
        key_attribute="Visit_Nbr",
        mark_attribute="Item_Nbr",
        e=E,
        watermark_length=len(watermark),
        channel_length=default_channel_length(ROWS, E, len(watermark)),
    )

    # -- 2. streamed, checkpointed embed ------------------------------------
    result = stream_mark(
        source, watermark, key, spec, CSVChunkSink(marked_path),
        checkpoint_path=checkpoint,
    )
    print(
        f"marked {result.rows} rows in {result.chunks} chunks: "
        f"{result.applied} carriers rewritten, "
        f"{result.slot_coverage:.0%} of {spec.channel_length} slots covered"
    )
    print(f"marked file: {marked_path} "
          f"({marked_path.stat().st_size / 1e6:.1f} MB gzip)")

    # -- 3. streamed blind verification --------------------------------------
    suspect = CSVChunkSource(
        marked_path, source.schema, chunk_size=CHUNK, infer_domains=True
    )
    verdict = stream_verify(
        suspect, key, spec, watermark,
        domain=source.schema.attribute("Item_Nbr").domain,
    )
    print(f"verdict ({verdict.rows} rows, {verdict.chunks} chunks): "
          f"{verdict.summary()}")
    assert verdict.detected

    # -- 4. stall-safety: deadline-bounded, resumable embed ------------------
    # The same embed under an impossibly tight wall-clock budget: each
    # attempt stops resumably at a chunk boundary (the CLI maps this to
    # --deadline SECONDS / exit code 7), and re-running with a fresh
    # budget picks up from the last durable chunk.  However many times
    # the deadline fires, the final bytes equal the uninterrupted run's.
    budgeted_path = workdir / "budgeted.csv.gz"
    budgeted_ckpt = workdir / "budgeted.ckpt.json"
    attempts = 0
    while True:
        attempts += 1
        try:
            stream_mark(
                item_scan_source(
                    ROWS, chunk_size=CHUNK, item_count=500, seed=7
                ),
                watermark, key, spec, CSVChunkSink(budgeted_path),
                checkpoint_path=budgeted_ckpt,
                resume=budgeted_ckpt.exists(),
                deadline=Deadline(0.5),  # far too tight on purpose
            )
            break
        except DeadlineExceededError as exc:
            print(f"  attempt {attempts}: deadline expired at "
                  f"{exc.label}[{exc.position}] — resuming")
            assert attempts < 100, "no forward progress under deadline"
    print(f"deadline-bounded embed finished after {attempts} attempt(s)")
    assert budgeted_path.read_bytes() == marked_path.read_bytes(), \
        "deadline-interrupted resume must be byte-identical"
    print("byte-identical to the uninterrupted output")

    # -- 5. multicore detect: same verdict, N cores --------------------------
    # ``workers="auto"`` sizes a persistent process pool from cpu_count
    # (1 on a single-core box — the exact serial path).  Workers parse
    # and tally chunks; the coordinator merges tallies in chunk order,
    # so the verdict below is pinned bit-identical to step 3's.
    workers = resolve_workers("auto")
    started = time.perf_counter()
    parallel = stream_verify(
        CSVChunkSource(
            marked_path, source.schema, chunk_size=CHUNK, infer_domains=True
        ),
        key, spec, watermark,
        domain=source.schema.attribute("Item_Nbr").domain,
        workers="auto",
    )
    elapsed = time.perf_counter() - started
    shutdown_stream_pool()
    assert parallel.detected
    assert parallel.votes.resolve() == verdict.votes.resolve(), \
        "parallel verdict must be bit-identical to the serial scan"
    print(
        f"parallel re-verify ({workers} worker(s)): "
        f"{parallel.rows / elapsed:,.0f} rows/s — bit-identical verdict"
    )


if __name__ == "__main__":
    main()
