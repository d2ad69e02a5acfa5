"""Constants, seeded inputs and the on-disk input cache of the benchmark.

Everything a workload needs is a pure function of the ``--seed`` argument:
the Sales relation (``repro.datagen.walmart.iter_sales_rows``), the mark
key, the watermark and the embedding spec.  The program under test only
ever receives the generated files and these objects.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
#: every file the benchmark writes lives under this checkout-local directory
CACHE = ROOT / ".perfbench_cache"

#: paper parameters of the stream workloads: one tuple in e carries a bit
E = 60
WM_BITS = 10
SALES_ITEMS = 300
SWEEP_ITEMS = 500
FLIP_PROBABILITY = 0.7
#: worker count of ``detect_gzip_w2``
PARALLEL_WORKERS = 2


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one benchmark configuration."""

    rows: int
    detect_chunk: int
    mark_chunk: int
    sweep_tuples: int
    sweep_passes: int
    sweep_points: tuple[float, ...]


FULL = Sizes(
    rows=65_536,
    detect_chunk=16_384,
    mark_chunk=4_096,
    sweep_tuples=8_000,
    sweep_passes=15,
    sweep_points=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8),
)

#: the self-test's sizes: chunks stay at the vector kernels' 4,096-row
#: minimum so every code path of FULL runs, in seconds
TINY = Sizes(
    rows=16_384,
    detect_chunk=8_192,
    mark_chunk=4_096,
    sweep_tuples=1_500,
    sweep_passes=3,
    sweep_points=(0.2, 0.6),
)


def sales_schema():
    from repro.datagen.walmart import item_catalogue, sales_schema

    return sales_schema(item_catalogue(SALES_ITEMS))


def sales_rows(seed: int, rows: int):
    from repro.datagen.walmart import iter_sales_rows

    return iter_sales_rows(rows, item_count=SALES_ITEMS, seed=seed)


def mark_key(seed: int):
    from repro.crypto import MarkKey

    return MarkKey.from_seed(f"perfbench:{seed}")


def wrong_key(seed: int):
    """The key of the probe job, which must be reported as failed."""
    from repro.crypto import MarkKey

    return MarkKey.from_seed(f"perfbench:wrong:{seed}")


def watermark(seed: int):
    from repro.core import Watermark

    return Watermark.random(WM_BITS, random.Random(f"perfbench:wm:{seed}"))


def sales_spec(rows: int):
    from repro.core import EmbeddingSpec, default_channel_length

    return EmbeddingSpec(
        key_attribute="Scan_Id",
        mark_attribute="Item_Nbr",
        e=E,
        watermark_length=WM_BITS,
        channel_length=default_channel_length(rows, E, WM_BITS),
    )


def digest(obj) -> str:
    """sha256 of ``repr(obj)``: results are frozen dataclasses of ints,
    floats and tuples, whose reprs are exact."""
    return hashlib.sha256(repr(obj).encode("utf-8")).hexdigest()


def file_sha256(path: Path) -> str:
    sha = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            sha.update(block)
    return sha.hexdigest()


def code_fingerprint() -> str:
    """Hash of the program and of the generator: a cached input set is
    reused only by the code that made it."""
    sha = hashlib.sha256()
    files = sorted((SRC / "repro").rglob("*.py"))
    files += [BENCH_DIR / "common.py", BENCH_DIR / "inputs.py"]
    for path in files:
        sha.update(str(path.relative_to(ROOT)).encode("utf-8"))
        sha.update(path.read_bytes())
    return sha.hexdigest()[:16]


def input_dir(seed: int, sizes: Sizes) -> Path:
    return (
        CACHE / "inputs"
        / f"{code_fingerprint()}-s{seed}-r{sizes.rows}-m{sizes.mark_chunk}"
    )
