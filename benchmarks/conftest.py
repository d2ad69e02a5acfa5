"""Shared helpers for the benchmark suite.

Every bench regenerates one of the paper's figures (or an ablation) and

* prints the series (visible with ``pytest -s``),
* writes it to ``benchmarks/results/<name>.txt`` so EXPERIMENTS.md can
  reference stable artefacts,
* appends a structured run entry to ``<results>/<name>.json`` via the
  shared ``record_json`` fixture (``--bench-json`` selects the directory),
  so every bench — not just throughput — accumulates a trajectory across
  runs, and
* asserts the paper's *shape* claims (who wins, rough factors, crossover
  direction) — never absolute percentages (different data/ECC constants).

Workload sizing follows §5 (N = 6000 ItemScan tuples, |wm| = 10) with the
pass count reduced from 15 to 5 to keep the suite fast; the
``REPRO_BENCH_PASSES`` environment variable restores full averaging.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.experiments import FigureConfig

RESULTS_DIR = Path(__file__).parent / "results"

BENCH_PASSES = int(os.environ.get("REPRO_BENCH_PASSES", "5"))

#: the paper's workload shape at bench-friendly pass count
PAPER_CONFIG = FigureConfig(
    tuple_count=6000, item_count=500, passes=BENCH_PASSES
)


def pytest_addoption(parser):
    parser.addoption(
        "--bench-json",
        action="store",
        default=str(RESULTS_DIR),
        help=(
            "directory receiving the per-bench JSON trajectory files "
            "(one <bench>.json per bench, a run entry appended per run)"
        ),
    )


@pytest.fixture(scope="session")
def record():
    """Persist a bench's series text under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _record(name: str, text: str) -> None:
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
        print(f"\n{text}\n")

    return _record


@pytest.fixture(scope="session")
def record_json(request):
    """Append one structured run entry to ``<bench-json-dir>/<name>.json``.

    The file holds ``{"runs": [...]}``; every bench appends
    ``{"timestamp": ..., **payload}`` so trajectories (throughput, sweep
    speedups, detection rates) accumulate across runs in one uniform
    format.  Every entry is additionally stamped with ``cpu_count`` and
    ``backend`` (the default ``vector``, overridable through the payload)
    so throughput trajectories stay comparable across hosts and execution
    backends.
    """
    base = Path(request.config.getoption("--bench-json"))
    base.mkdir(parents=True, exist_ok=True)

    def _record(name: str, payload: dict) -> None:
        path = base / f"{name}.json"
        history = []
        if path.exists():
            history = json.loads(path.read_text(encoding="utf-8")).get(
                "runs", []
            )
        history.append(
            {
                "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
                "cpu_count": os.cpu_count(),
                "backend": "vector",
                **payload,
            }
        )
        path.write_text(
            json.dumps({"runs": history}, indent=2) + "\n", encoding="utf-8"
        )

    return _record


def once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing.

    The figure sweeps are multi-second workloads; statistical repetition
    belongs to the experiment runner (multi-pass averaging), not the timer.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def series_payload(points) -> list[dict]:
    """JSON-friendly view of a list of ExperimentPoints."""
    return [
        {
            "x": point.x,
            "mean_alteration": round(point.mean_alteration, 6),
            "detection_rate": round(point.detection_rate, 6),
        }
        for point in points
    ]
