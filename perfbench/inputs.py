"""Generate one seed's stream inputs and their reference outputs.

Run as its own process (``python3 perfbench/inputs.py --seed N``) so the
generator's memory never shows in a workload's peak RSS.  It writes, into
``common.input_dir(seed, sizes)``:

* ``sales.csv.gz`` — the unmarked Sales relation;
* ``marked.csv.gz`` — the output of the mark workload's exact
  ``stream_mark`` call, which is also the detect workloads' input;
* ``ref.json`` — reference outputs from an independent path: the
  in-memory ``embed`` of the whole relation (whose CSV text must equal the
  decompressed stream output) and the in-memory ``verify`` and
  ``extract_slot_votes`` of the concatenated marked rows.

The directory appears atomically (temp dir + rename), so a cached input
set is always complete.
"""

from __future__ import annotations

import argparse
import csv
import gzip
import hashlib
import io
import json
import os
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import common  # noqa: E402


def write_gzip_csv(path: Path, names, rows) -> None:
    with open(path, "wb") as raw:
        with gzip.GzipFile(filename="", fileobj=raw, mode="wb", mtime=0) as member:
            with io.TextIOWrapper(member, encoding="utf-8", newline="") as text:
                writer = csv.writer(text)
                writer.writerow(names)
                writer.writerows(rows)


def generate(seed: int, sizes: common.Sizes, out: Path) -> dict:
    from repro.core import embed, extract_slot_votes, verify
    from repro.relational import Table, dumps_csv
    from repro.stream import CSVChunkSink, CSVChunkSource, stream_mark

    schema = common.sales_schema()
    key = common.mark_key(seed)
    mark = common.watermark(seed)
    spec = common.sales_spec(sizes.rows)
    domain = schema.attribute(spec.mark_attribute).domain

    tmp = out.with_name(f"{out.name}.tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    rows = list(common.sales_rows(seed, sizes.rows))
    write_gzip_csv(tmp / "sales.csv.gz", schema.names, rows)

    # The independent mark: one in-memory embed of the whole relation.
    table = Table(schema, rows, name="Sales")
    del rows
    embed(table, mark, key, spec)
    text_sha = hashlib.sha256(dumps_csv(table).encode("utf-8")).hexdigest()

    # The mark workload's call, once: its bytes are the reference every
    # mark job must reproduce, and the detect workloads' input.
    marked = tmp / "marked.csv.gz"
    checkpoint = tmp / "mark.ckpt"
    stream_mark(
        CSVChunkSource(tmp / "sales.csv.gz", schema, chunk_size=sizes.mark_chunk),
        mark, key, spec, CSVChunkSink(marked), checkpoint_path=checkpoint,
    )
    with gzip.open(marked, "rb") as handle:
        stream_text_sha = hashlib.sha256(handle.read()).hexdigest()
    if stream_text_sha != text_sha:
        raise SystemExit(
            "stream_mark output differs from the in-memory embed of the "
            "same relation"
        )
    for leftover in tmp.glob("mark.ckpt*"):
        leftover.unlink()

    verification = verify(table, key, spec, mark, domain=domain)
    votes = extract_slot_votes(table, key, spec, domain=domain)
    ref = {
        "seed": seed,
        "rows": sizes.rows,
        "mark_chunk": sizes.mark_chunk,
        "marked_sha256": common.file_sha256(marked),
        "marked_bytes": marked.stat().st_size,
        "marked_text_sha256": text_sha,
        "detected": verification.detected,
        "verification": common.digest(verification),
        "votes": common.digest(votes),
    }
    (tmp / "ref.json").write_text(json.dumps(ref, indent=1, sort_keys=True))
    try:
        tmp.rename(out)
    except OSError:
        # another process finished the same seed first; its copy is equal
        shutil.rmtree(tmp, ignore_errors=True)
    return ref


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    sizes = common.TINY if args.tiny else common.FULL
    out = common.input_dir(args.seed, sizes)
    if (out / "ref.json").exists():
        return 0
    started = time.perf_counter()
    generate(args.seed, sizes, out)
    print(f"generated seed {args.seed} in {time.perf_counter() - started:.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
