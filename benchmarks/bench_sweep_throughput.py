"""Sweep-engine throughput — serial vs engine, and fused vs per-pass.

Two comparisons over a figure-4-shaped workload (attack-size points x 15
keyed passes over an 8k-tuple relation):

1. **Sweep modes** — the pre-engine ``serial`` runner's cost model
   (re-embed once per pass *per point*) against the engine's auto mode
   (15 embeds total, cells pooled/hoisted), each the best of
   ``SWEEP_REPS`` alternating repetitions.  Acceptance tiers scale with
   the hardware: >= 3x with >= 4 cores for the pool, >= 1.8x at 2-3
   cores, >= 1.1x embed-hoist-only on 1 core.
2. **Warm sweep cells (PR 4)** — with embedding hoisted and every cache
   warm, one sweep point timed under the PR-3 per-pass path (row-level
   attacks + one vector detection kernel per pass) against the fused
   path (code-level attacks + one ``detect_multipass`` kernel for all 15
   passes).  Both are pinned bit-identical here; acceptance is a >= 2x
   wall-time ratio at the 8k x 15-pass tier.

Measured numbers — every sweep repetition, and engine/table/stack cache
telemetry — are appended to ``benchmarks/results/sweep_throughput.json``
either way.
"""

import os
import time

from conftest import once

from repro.attacks import ATTACK_CODES, ATTACK_ROWS, SubsetAlterationAttack
from repro.crypto import MarkKey, clear_engine_registry, get_engine, stack_cache_info
from repro.datagen import generate_item_scan
from repro.experiments import (
    MODE_AUTO,
    MODE_HOISTED,
    MODE_SERIAL,
    SweepEngine,
    SweepProtocol,
    format_table,
    reset_sweep_engine,
    run_point,
)

TUPLES = 8_000
ITEMS = 500
E = 65
PASSES = 15
ATTACK_SIZES = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)
FLIP_PROBABILITY = 0.7

#: sweep repetitions per mode, serial and auto alternating, so both
#: sample the host's scheduling noise alike; each mode keeps its best
SWEEP_REPS = 3

#: warm-cell comparison: points measured and repetitions kept (best-of)
WARM_POINTS = (0.2, 0.5, 0.8)
WARM_REPS = 6


def _attack_factory(size):
    return SubsetAlterationAttack("Item_Nbr", size, FLIP_PROBABILITY)


def _timed_sweep(table, mode, max_workers=None):
    """(wall seconds, points) for one full figure-4-shaped sweep.

    Every run starts from cold hash caches and a fresh engine, so the
    serial baseline and the engine pay the same first-contact costs; what
    differs is purely how the sweep re-uses work after that.
    """
    clear_engine_registry()
    reset_sweep_engine()
    engine = SweepEngine(mode=mode, max_workers=max_workers)
    started = time.perf_counter()
    points = engine.sweep(
        table, "Item_Nbr", E, _attack_factory, list(ATTACK_SIZES),
        passes=PASSES,
    )
    return time.perf_counter() - started, points


def run_comparison():
    """The seconds of every serial and auto sweep repetition, and the
    points of the last of each."""
    table = generate_item_scan(TUPLES, item_count=ITEMS, seed=9)
    serial_times, engine_times = [], []
    for _ in range(SWEEP_REPS):
        seconds, serial_points = _timed_sweep(table, MODE_SERIAL)
        serial_times.append(seconds)
        seconds, engine_points = _timed_sweep(table, MODE_AUTO)
        engine_times.append(seconds)
    reset_sweep_engine()
    return serial_times, serial_points, engine_times, engine_points


def run_warm_cell_comparison():
    """Warm-cell wall time: PR-3 per-pass path vs PR-4 fused path.

    Embeds the 15 keyed passes once, warms both paths, then times
    ``len(WARM_POINTS)`` sweep points per configuration (best of
    ``WARM_REPS``).  Returns per-point seconds, the two result sets (for
    the equivalence assertion) and cache telemetry snapshots.
    """
    table = generate_item_scan(TUPLES, item_count=ITEMS, seed=9)
    clear_engine_registry()
    reset_sweep_engine()
    engine = SweepEngine(mode=MODE_HOISTED)
    protocol = SweepProtocol(mark_attribute="Item_Nbr", e=E)
    passes = [
        engine.embedded_pass(table, protocol, seed) for seed in range(PASSES)
    ]

    def attack(size, backend):
        built = _attack_factory(size)
        built.backend = backend
        return built

    configurations = {
        "legacy": (ATTACK_ROWS, False),
        "fused": (ATTACK_CODES, True),
    }
    best = {label: float("inf") for label in configurations}
    results: dict = {}
    for backend, fused in configurations.values():  # warm both paths
        run_point(passes, attack(0.45, backend), 0.45, fused=fused)
    # Interleaved best-of under the default GC regime (the regime real
    # sweeps run in): machine-noise phases (a busy CI neighbour, a
    # frequency step) hit both configurations alike instead of skewing
    # whichever happened to run during the quiet window.
    for _ in range(WARM_REPS):
        for label, (backend, fused) in configurations.items():
            started = time.perf_counter()
            batch = [
                run_point(passes, attack(size, backend), size, fused=fused)
                for size in WARM_POINTS
            ]
            best[label] = min(best[label], time.perf_counter() - started)
            results[label] = batch
    legacy_time = best["legacy"] / len(WARM_POINTS)
    fused_time = best["fused"] / len(WARM_POINTS)
    legacy_results = results["legacy"]
    fused_results = results["fused"]
    telemetry = {
        "engine": get_engine(MarkKey.from_seed(0)).cache_info(),
        "base_table": table.cache_info(),
        "plan_stacks": stack_cache_info(),
    }
    reset_sweep_engine()
    return legacy_time, legacy_results, fused_time, fused_results, telemetry


def test_sweep_throughput(benchmark, record, record_json):
    serial_times, serial_points, engine_times, engine_points = once(
        benchmark, run_comparison
    )
    serial_time, engine_time = min(serial_times), min(engine_times)
    (
        legacy_cell_time,
        legacy_results,
        fused_cell_time,
        fused_results,
        telemetry,
    ) = run_warm_cell_comparison()
    cores = os.cpu_count() or 1
    speedup = serial_time / engine_time
    warm_speedup = legacy_cell_time / fused_cell_time
    cells = len(ATTACK_SIZES) * PASSES

    rows = [
        ("cores", cores),
        ("cells (points x passes)", cells),
        (f"serial sweep s (best of {SWEEP_REPS})", f"{serial_time:.2f}"),
        (f"engine sweep s (best of {SWEEP_REPS})", f"{engine_time:.2f}"),
        ("speedup", f"{speedup:.2f}x"),
        ("serial cells/s", f"{cells / serial_time:,.1f}"),
        ("engine cells/s", f"{cells / engine_time:,.1f}"),
        ("warm point per-pass ms", f"{legacy_cell_time * 1000:.1f}"),
        ("warm point fused ms", f"{fused_cell_time * 1000:.1f}"),
        ("warm-cell speedup", f"{warm_speedup:.2f}x"),
    ]
    record(
        "sweep_throughput", format_table(("metric", "value"), rows)
    )
    record_json(
        "sweep_throughput",
        {
            "cores": cores,
            "tuples": TUPLES,
            "points": len(ATTACK_SIZES),
            "passes": PASSES,
            "serial_seconds": round(serial_time, 3),
            "engine_seconds": round(engine_time, 3),
            "serial_seconds_reps": [
                round(seconds, 3) for seconds in serial_times
            ],
            "engine_seconds_reps": [
                round(seconds, 3) for seconds in engine_times
            ],
            "speedup": round(speedup, 3),
            "warm_cell_legacy_seconds": round(legacy_cell_time, 4),
            "warm_cell_fused_seconds": round(fused_cell_time, 4),
            "warm_cell_speedup": round(warm_speedup, 3),
            "cache_info": telemetry,
        },
    )
    benchmark.extra_info.update(
        {
            "speedup": round(speedup, 3),
            "warm_cell_speedup": round(warm_speedup, 3),
        }
    )

    # Equivalence first: the engine must reproduce the serial runner's
    # results bit-for-bit — a speedup that changes the science is a bug.
    assert [(p.x, p.passes) for p in engine_points] == [
        (p.x, p.passes) for p in serial_points
    ]
    # Same bar for the fused warm cells vs the per-pass path.
    assert fused_results == legacy_results

    # Acceptance tiers (see module docstring): the pooled >= 3x bound
    # needs cores for the cell fan-out; below that, embed hoisting alone
    # carries a smaller but still mandatory margin.
    if cores >= 4:
        floor = 3.0
    elif cores >= 2:
        floor = 1.8
    else:
        floor = 1.1
    assert speedup >= floor, (
        f"sweep engine speedup {speedup:.2f}x below the {floor:g}x floor "
        f"for a {cores}-core box"
    )

    # Acceptance (PR 4): fused multi-pass detection + code-level attacks
    # must at least halve the warm sweep-cell wall time against the PR-3
    # per-pass vector path at the 8k x 15-pass tier (measured ~2.4x on
    # the 1-core dev box).
    assert warm_speedup >= 2.0, (
        f"warm sweep-cell speedup {warm_speedup:.2f}x below the 2x floor "
        f"(per-pass {legacy_cell_time * 1000:.1f} ms vs fused "
        f"{fused_cell_time * 1000:.1f} ms per point)"
    )
