"""Run one workload of the mark/detect benchmark and print its metrics.

    python3 perfbench/run.py --workload detect_gzip --seed 1 --seconds 10 --trace 0

Workloads: ``detect_gzip``, ``mark_gzip``, ``detect_gzip_w2``,
``sweep_cell`` (see ``perfbench/README.md``).  Inputs are generated from
``--seed`` by ``perfbench/inputs.py`` and cached under
``.perfbench_cache/``.  Jobs run one at a time (a closed loop) for
``--seconds``; every job's output is checked against reference outputs
from an independent path, and one extra job with a wrong key must be
rejected by the same check.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced replay (see ``perfbench/tracing.py``).  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  A stamp of the hardware and software the
numbers were measured on is printed before it and written, with the job
times (and the spans of a traced run), to ``.perfbench_cache/results/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import common
import hostspeed
import tracing
import workloads

#: fresh interpreters timed importing the program; the median is reported.
#: Each calibrates itself around the import: a child may run on another
#: vCPU than the parent, at another speed.
IMPORT_REPS = 5
IMPORT_SNIPPET = (
    "import time, sys, hostspeed\n"
    "before = hostspeed.calibrate()\n"
    "started = time.perf_counter()\n"
    "import repro.stream, repro.experiments, repro.attacks\n"
    "elapsed = time.perf_counter() - started\n"
    "sys.stdout.write(repr(\n"
    "    hostspeed.scale(elapsed, before, hostspeed.calibrate())\n"
    "))\n"
)
#: a traced run spends this share of --seconds on real (untimed) jobs
#: that give the end-to-end median, and the rest on traced replays
TRACE_REAL_SHARE = 0.4

END_TO_END = (
    ("rows_per_s", "rows/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="self-test sizes (perfbench/selftest.py)",
    )
    return parser.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(common.SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def ensure_inputs(seed: int, tiny: bool) -> float:
    """Generate (or reuse) the seed's stream inputs; returns seconds."""
    sizes = common.TINY if tiny else common.FULL
    if (common.input_dir(seed, sizes) / "ref.json").exists():
        return 0.0
    started = time.perf_counter()
    command = [
        sys.executable, str(common.BENCH_DIR / "inputs.py"),
        "--seed", str(seed),
    ] + (["--tiny"] if tiny else [])
    subprocess.run(
        command, check=True, env=child_env(), stdout=subprocess.DEVNULL,
        timeout=600,
    )
    return time.perf_counter() - started


def import_seconds() -> float:
    """Median time a fresh interpreter takes to import the program,
    scaled to the reference host speed."""
    env = child_env()
    env["PYTHONPATH"] += os.pathsep + str(common.BENCH_DIR)
    times = []
    for _ in range(IMPORT_REPS):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_SNIPPET], check=True,
            env=env, capture_output=True, text=True, timeout=120,
        )
        times.append(float(done.stdout))
    return statistics.median(times)


def stamp(args, workload, generate_s: float, loadavg) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "sizes": (common.TINY if args.tiny else common.FULL).__dict__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workers": workload.workers or 1,
        "loadavg_start": loadavg,
        "generate_s": generate_s,
    }


class Loop:
    """Closed-loop job runner: times each job, checks each output."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0

    def job(self) -> tuple[float, float]:
        """Run and check one job; return its raw and its scaled seconds
        (:mod:`hostspeed`)."""
        gc.collect()
        before = hostspeed.calibrate()
        started = time.perf_counter()
        raised = False
        try:
            output = self.workload.job()
        except Exception:  # a raising job is a failed job, not a crash
            traceback.print_exc()
            raised = True
        elapsed = time.perf_counter() - started
        scaled = hostspeed.scale(elapsed, before, hostspeed.calibrate())
        ok = not raised and self.workload.check(output)
        self.attempted += 1
        self.failed += not ok
        return elapsed, scaled

    def run(self, seconds: float, at_least: int = 3) -> list[tuple[float, float]]:
        times = []
        deadline = time.perf_counter() + seconds
        while len(times) < at_least or time.perf_counter() < deadline:
            times.append(self.job())
        return times


def measure(workload, loop: Loop, seconds: float, import_s: float):
    """The end-to-end metrics, with tracing off and times scaled to the
    reference host speed."""
    prepare_s = workload.setup()
    cold = []
    for _ in range(workload.cold_jobs):
        workload.restart()
        cold.append(loop.job()[1])
    if not cold:
        loop.job()  # let lazy set-up and allocator growth finish untimed
    raw, scaled = zip(*loop.run(seconds))
    job_s = statistics.median(scaled)
    pool_s = statistics.median(cold) - job_s if cold else 0.0
    metrics = {
        "rows_per_s": workload.rows_per_job / job_s,
        "setup_s": import_s + prepare_s + pool_s,
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ),
    }
    notes = {
        "jobs": len(scaled),
        "job_s": scaled,
        "job_raw_s": raw,
        "job_median_s": job_s,
        "job_raw_median_s": statistics.median(raw),
        "host_slowdown": statistics.median(raw) / job_s,
        "import_s": import_s,
        "prepare_s": prepare_s,
        "pool_start_s": pool_s,
    }
    if hasattr(workload, "cells_per_job"):
        notes["cells_per_s"] = workload.cells_per_job / job_s
    notes.update(workload.extras())
    return metrics, notes


def traced(workload, loop: Loop, seconds: float):
    """The per-layer metrics of a traced replay."""
    workload.setup()
    loop.job()
    # raw times: the replay's layer self times are raw too
    times = [raw for raw, _ in loop.run(seconds * TRACE_REAL_SHARE)]
    job_s = statistics.median(times)
    result = tracing.traced_run(
        workload, seconds * (1 - TRACE_REAL_SHARE), job_s
    )
    notes = {
        "jobs": len(times),
        "job_s": times,
        "job_median_s": job_s,
        "replays": result["replays"],
        "replay_matches_real": result["replay_matches_real"],
        "layers": tracing.layer_summary(result["metrics"]),
    }
    return result["metrics"], notes, result


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (common.SRC / "repro" / "__init__.py").is_file():
        print(
            f"error: the program's sources are missing ({common.SRC}/repro); "
            f"run from the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(common.SRC))
    # Everything the run writes (inputs, pool heartbeats, outputs) stays
    # inside the checkout.
    tmp = common.CACHE / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    import tempfile

    tempfile.tempdir = None

    if args.workload not in workloads.WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; choose from "
            f"{', '.join(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    loadavg = os.getloadavg()
    sizes = common.TINY if args.tiny else common.FULL
    kind = workloads.WORKLOADS[args.workload]
    generate_s = (
        ensure_inputs(args.seed, args.tiny) if kind.needs_inputs else 0.0
    )
    work = common.CACHE / "work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    workload = kind(
        args.seed, sizes, common.input_dir(args.seed, sizes), work
    )
    loop = Loop(workload)
    info = stamp(args, workload, generate_s, loadavg)
    try:
        if args.trace:
            metrics, notes, result = traced(workload, loop, args.seconds)
            units = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
            checks = {"replay_matches_real": result["replay_matches_real"]}
        else:
            metrics, notes = measure(
                workload, loop, args.seconds, import_seconds()
            )
            units = dict(END_TO_END)
            result = None
            checks = {}
        checks["probe_rejected"] = workload.probe()
        if hasattr(workload, "round_trip"):
            checks["round_trip_detected"] = workload.round_trip()
    finally:
        workload.close()
        shutil.rmtree(work, ignore_errors=True)

    correct = loop.failed == 0 and all(checks.values())
    print(f"# perfbench {args.workload} stamp {json.dumps(info)}")
    for name, value in metrics.items():
        print(f"{name:<34} {value:>16.6g} {units[name]}")
    if "cells_per_s" in notes:
        print(f"{'cells_per_s':<34} {notes['cells_per_s']:>16.6g} cells/s")
    if "out_bytes_per_row" in notes:
        print(
            f"{'out_bytes_per_row':<34} "
            f"{notes['out_bytes_per_row']:>16.6g} B/row"
        )
    print(
        f"{'failed_ratio':<34} {loop.failed / loop.attempted:>16.6g} ratio "
        f"({loop.failed}/{loop.attempted} jobs)"
    )
    print(f"# jobs {notes['jobs']}, median {notes['job_median_s']:.4f} s; "
          f"checks {json.dumps(checks)}")
    if args.trace:
        print(f"# layer self times per job (s): {notes['layers']}")

    results = common.CACHE / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {
        "stamp": info, "metrics": metrics, "notes": notes, "checks": checks,
        "attempted": loop.attempted, "failed": loop.failed,
    }
    base = f"{args.workload}-s{args.seed}-t{args.trace}"
    (results / f"{base}.json").write_text(json.dumps(record, indent=1))
    if result is not None:
        (results / f"{base}.spans.json").write_text(
            json.dumps(result["spans"])
        )
    print(json.dumps({
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
