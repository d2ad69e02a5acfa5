"""Throughput — embed/detect tuples per second vs relation size.

The paper's pitch includes "massive data" (840 M-tuple relations, marked in
subsamples); this bench records the scalability of the implementation
across the two execution backends:

* **scalar** — the row-at-a-time reference path;
* **vector** — the NumPy kernel backend (column codes + plan arrays over
  the memoized :class:`~repro.crypto.HashEngine` + ``bincount`` tallies),
  the default at every size.

The vector backend is reported in two regimes:

* **cold** — first contact with the relation: digests must actually be
  computed, so the win over scalar comes from batching, columnar scans and
  the copy-on-write clone;
* **steady** — the relation has been seen before (the attack-sweep and
  re-verification regime): the vector path re-detects on cached codes and
  plan arrays without touching per-row Python at all.

Besides the usual text table, the series is appended to
``benchmarks/results/throughput.json`` (via the shared ``record_json``
fixture / ``--bench-json`` flag) — stamped with ``cpu_count`` and backend
labels — so the speedup trajectory is recorded across runs.
"""

import os
import time

from conftest import once

from repro.core import Watermark, Watermarker
from repro.crypto import (
    SCALAR,
    VECTOR,
    MarkKey,
    clear_engine_registry,
    get_engine,
)
from repro.datagen import generate_item_scan
from repro.experiments import format_table

#: ``REPRO_BENCH_SIZES=2000,8000`` restricts the tiers (the CI
#: bench-smoke job runs the 8k tier only); acceptance assertions engage
#: per tier, so a restricted run still records its trajectory.
SIZES = tuple(
    int(part)
    for part in os.environ.get(
        "REPRO_BENCH_SIZES", "2000,8000,32000,128000"
    ).split(",")
    if part.strip()
)
ASSERT_SIZE = 32_000   # acceptance tier for the vector-vs-scalar speedup
STEADY_ROUNDS = 3

BACKENDS = (SCALAR, VECTOR)

WATERMARK = Watermark.from_int(0x2AB, 10)


def _measure(make_marker, table):
    """(embed_cold, embed_steady, detect_cold, detect_steady) in seconds.

    "Cold" is a first pass with empty caches; "steady" the best subsequent
    pass — for the scalar back end the two only differ by machine noise,
    for the vector back end the steady pass runs entirely from the
    plan-array caches.  Detection gets its own fresh marker (registry
    cleared) so the cold number is genuinely cold rather than pre-warmed
    by embedding.
    """
    clear_engine_registry()
    marker = make_marker()
    embed_times = []
    outcome = None
    for _ in range(1 + STEADY_ROUNDS):
        started = time.perf_counter()
        outcome = marker.embed(table, WATERMARK, "Item_Nbr")
        embed_times.append(time.perf_counter() - started)
    clear_engine_registry()
    marker = make_marker()
    detect_times = []
    for _ in range(1 + STEADY_ROUNDS):
        started = time.perf_counter()
        verdict = marker.verify(outcome.table, outcome.record)
        detect_times.append(time.perf_counter() - started)
    # Sanity only (this bench measures speed): the keyed variant's
    # expected ~half-bit erasure loss at small sizes is tolerated.
    assert verdict.association.matching_bits >= 9
    return (
        embed_times[0],
        min(embed_times[1:]),
        detect_times[0],
        min(detect_times[1:]),
    )


def run_scaling():
    key = MarkKey.from_seed("throughput")
    rows = []
    series = {}
    telemetry = {}
    table = None
    for size in SIZES:
        table = generate_item_scan(size, item_count=500, seed=3)

        point = {}
        for backend in BACKENDS:
            timings = _measure(
                lambda: Watermarker(key, e=60, engine=backend), table
            )
            point[f"{backend}_embed_cold"] = size / timings[0]
            point[f"{backend}_embed_steady"] = size / timings[1]
            point[f"{backend}_detect_cold"] = size / timings[2]
            point[f"{backend}_detect_steady"] = size / timings[3]
        # The scalar path has no caches: keep its historical single-column
        # names (best-of-rounds == steady for it).
        point["scalar_embed"] = point.pop("scalar_embed_steady")
        point["scalar_detect"] = point.pop("scalar_detect_steady")
        del point["scalar_embed_cold"], point["scalar_detect_cold"]
        series[size] = point
        rows.append(
            (
                size,
                f"{point['scalar_embed']:,.0f}",
                f"{point['vector_embed_cold']:,.0f}",
                f"{point['vector_embed_steady']:,.0f}",
                f"{point['scalar_detect']:,.0f}",
                f"{point['vector_detect_cold']:,.0f}",
                f"{point['vector_detect_steady']:,.0f}",
            )
        )
    # Cache telemetry for the largest tier's vector run — how the warm
    # numbers above are actually achieved.
    telemetry = {
        "engine": get_engine(key).cache_info(),
        "table": table.cache_info() if table is not None else {},
    }
    return rows, series, telemetry


def test_throughput(benchmark, record, record_json):
    rows, series, telemetry = once(benchmark, run_scaling)
    record(
        "throughput",
        format_table(
            (
                "tuples",
                "embed scalar t/s",
                "embed vector cold",
                "embed vector steady",
                "detect scalar t/s",
                "detect vector cold",
                "detect vector steady",
            ),
            rows,
        ),
    )
    record_json(
        "throughput",
        {
            "backend": "scalar+vector",
            "tuples_per_second": {
                str(size): {
                    metric: round(rate) for metric, rate in point.items()
                }
                for size, point in series.items()
            },
            "cache_info": telemetry,
        },
    )
    if ASSERT_SIZE in series:
        tier = series[ASSERT_SIZE]
        benchmark.extra_info.update(
            {
                f"{metric}_{ASSERT_SIZE}": round(rate)
                for metric, rate in tier.items()
            }
        )

        # Acceptance: the vector backend's steady state (attack-sweep
        # regime) beats the row-at-a-time scalar reference >= 5x on both
        # paths at the 32k tier.
        assert tier["vector_embed_steady"] >= 5 * tier["scalar_embed"], tier
        assert tier["vector_detect_steady"] >= 5 * tier["scalar_detect"], tier

    # Single-scan algorithms: vector cold rates at the largest size stay
    # within 4x of the smallest (no superlinear blowup)...
    largest, smallest = series[SIZES[-1]], series[SIZES[0]]
    assert largest["vector_embed_cold"] > smallest["vector_embed_cold"] / 4
    assert largest["vector_detect_cold"] > smallest["vector_detect_cold"] / 4
    # ...and the absolute floor is comfortably above the seed's 20k t/s.
    assert largest["vector_embed_cold"] > 20_000
    assert largest["vector_detect_cold"] > 20_000
