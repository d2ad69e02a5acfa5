"""The four workloads: set-up, one job, the correctness check, the probe.

A job is one call of the system's public API on the seeded inputs — the
closed loop runs jobs one at a time.  ``check`` compares a job's output
with the reference outputs of :mod:`inputs` (stream workloads) or of the
per-pass sweep path (``sweep_cell``); ``probe`` runs one job with a wrong
key, which the check must reject.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

import common
import hostspeed

#: set-up repetitions whose median is reported
SETUP_REPS = 3


class Workload:
    """Defaults: no pool, no set-up, no cold jobs."""

    workers = None
    #: whether the run needs :mod:`inputs` to generate the seed's files
    needs_inputs = False
    #: jobs run cold before the timed loop, each after :meth:`restart`;
    #: their median excess over the warm median counts as set-up
    cold_jobs = 0

    def setup(self) -> float:
        """One-time in-process set-up; returns its seconds."""
        return 0.0

    def restart(self) -> None:
        pass

    def extras(self) -> dict:
        return {}

    def close(self) -> None:
        pass


class StreamWorkload(Workload):
    """Shared state of the three Sales stream workloads."""

    needs_inputs = True

    def __init__(self, seed: int, sizes: common.Sizes, inputs: Path, work: Path):
        self.seed = seed
        self.sizes = sizes
        self.inputs = inputs
        self.work = work
        self.ref = json.loads((inputs / "ref.json").read_text())
        self.schema = common.sales_schema()
        self.key = common.mark_key(seed)
        self.watermark = common.watermark(seed)
        self.spec = common.sales_spec(sizes.rows)
        self.domain = self.schema.attribute(self.spec.mark_attribute).domain
        self.rows_per_job = sizes.rows


class DetectGzip(StreamWorkload):
    """Serial ``stream_verify`` of the marked gzip CSV."""

    name = "detect_gzip"

    def source(self):
        from repro.stream import CSVChunkSource

        return CSVChunkSource(
            self.inputs / "marked.csv.gz", self.schema,
            chunk_size=self.sizes.detect_chunk, infer_domains=True,
        )

    def job(self, key=None):
        from repro.stream import stream_verify

        return stream_verify(
            self.source(), key or self.key, self.spec, self.watermark,
            domain=self.domain, workers=self.workers,
        )

    def check(self, result) -> bool:
        return (
            result.rows == self.sizes.rows
            and result.detected == self.ref["detected"]
            and common.digest(result.verification) == self.ref["verification"]
            and common.digest(result.votes) == self.ref["votes"]
        )

    def probe(self) -> bool:
        """True when a wrong-key job is rejected by :meth:`check`."""
        return not self.check(self.job(common.wrong_key(self.seed)))


class DetectGzipParallel(DetectGzip):
    """``detect_gzip`` on the persistent two-worker pool."""

    name = "detect_gzip_w2"
    workers = common.PARALLEL_WORKERS
    #: pool start plus worker warm-up is measured on cold jobs
    cold_jobs = SETUP_REPS

    def __init__(self, *args):
        super().__init__(*args)
        self.report = None

    def restart(self) -> None:
        from repro.stream import shutdown_stream_pool

        shutdown_stream_pool()

    def job(self, key=None):
        result = super().job(key)
        self.report = result.parallel
        return result

    def extras(self) -> dict:
        stats = self.report.worker_stats if self.report else {}
        return {
            "worker_chunks": sorted(s["chunks"] for s in stats.values()),
            "redispatches": self.report.redispatches if self.report else 0,
        }

    def close(self) -> None:
        self.restart()


class MarkGzip(StreamWorkload):
    """Serial checkpointed ``stream_mark`` of the unmarked gzip CSV."""

    name = "mark_gzip"

    def __init__(self, *args):
        super().__init__(*args)
        self.output = self.work / "marked.csv.gz"

    def job(self, key=None):
        """Mark into the work directory (the probe into its own file)."""
        from repro.stream import CSVChunkSink, CSVChunkSource, stream_mark

        name = "marked" if key is None else "probe"
        output = self.work / f"{name}.csv.gz"
        for stale in self.work.glob(f"{name}.ckpt*"):
            stale.unlink()
        source = CSVChunkSource(
            self.inputs / "sales.csv.gz", self.schema,
            chunk_size=self.sizes.mark_chunk,
        )
        stream_mark(
            source, self.watermark, key or self.key, self.spec,
            CSVChunkSink(output), checkpoint_path=self.work / f"{name}.ckpt",
        )
        return common.file_sha256(output)

    def check(self, sha: str) -> bool:
        return sha == self.ref["marked_sha256"]

    def probe(self) -> bool:
        return not self.check(self.job(common.wrong_key(self.seed)))

    def round_trip(self) -> bool:
        """Detect the watermark in the last job's output."""
        from repro.stream import CSVChunkSource, stream_verify

        source = CSVChunkSource(
            self.output, self.schema, chunk_size=self.sizes.detect_chunk,
            infer_domains=True,
        )
        result = stream_verify(
            source, self.key, self.spec, self.watermark, domain=self.domain
        )
        return (
            result.detected
            and common.digest(result.verification) == self.ref["verification"]
        )

    def extras(self) -> dict:
        return {
            "out_bytes_per_row": self.output.stat().st_size / self.sizes.rows
        }


class SweepCell(Workload):
    """The warm §5 alteration sweep: one fused ``run_point`` per x."""

    name = "sweep_cell"

    def __init__(self, seed: int, sizes: common.Sizes, inputs, work):
        from repro.datagen import generate_item_scan

        self.seed = seed
        self.sizes = sizes
        self.base = generate_item_scan(
            sizes.sweep_tuples, item_count=common.SWEEP_ITEMS, seed=seed
        )
        self.passes = []
        self.rows_per_job = (
            len(sizes.sweep_points) * sizes.sweep_passes * sizes.sweep_tuples
        )
        self.cells_per_job = len(sizes.sweep_points) * sizes.sweep_passes
        self.reference = None

    def _embed_passes(self):
        from repro.crypto import clear_engine_registry
        from repro.experiments import EmbeddedPass, SweepProtocol
        from repro.experiments.sweepengine import reset_sweep_engine

        clear_engine_registry()
        reset_sweep_engine()
        protocol = SweepProtocol(mark_attribute="Item_Nbr", e=common.E)
        return [
            EmbeddedPass.build(self.base, protocol, 1000 * self.seed + number)
            for number in range(self.sizes.sweep_passes)
        ]

    def setup(self) -> float:
        """The passes' embeds, cold hash caches each time (scaled
        seconds, :mod:`hostspeed`)."""
        times = []
        for _ in range(SETUP_REPS):
            self.passes, _, scaled = hostspeed.timed(self._embed_passes)
            times.append(scaled)
        return statistics.median(times)

    def attack(self, x):
        from repro.attacks import SubsetAlterationAttack

        return SubsetAlterationAttack("Item_Nbr", x, common.FLIP_PROBABILITY)

    def job(self, passes=None, fused=True):
        from repro.experiments import run_point

        passes = passes or self.passes
        return [
            run_point(passes, self.attack(x), x, fused=fused)
            for x in self.sizes.sweep_points
        ]

    def reference_results(self):
        """The per-pass (unfused) path's results: the independent check."""
        if self.reference is None:
            self.reference = common.digest(self.job(fused=False))
        return self.reference

    def check(self, results) -> bool:
        return common.digest(results) == self.reference_results()

    def probe(self) -> bool:
        from repro.core import Watermarker
        from repro.experiments import EmbeddedPass

        first = self.passes[0]
        impostor = Watermarker(
            common.wrong_key(self.seed), e=common.E,
            engine=first.marker.engine,
        )
        swapped = [
            EmbeddedPass(first.seed, impostor, first.table, first.record)
        ] + list(self.passes[1:])
        return not self.check(self.job(swapped))


WORKLOADS = {
    cls.name: cls for cls in (DetectGzip, MarkGzip, DetectGzipParallel, SweepCell)
}
