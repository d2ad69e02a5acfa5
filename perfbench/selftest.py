"""Self-test of the benchmark at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Runs every workload of ``BENCHMARK.json`` with ``--tiny`` in both trace
modes and checks that the last output line is the result object, that
every job was correct, and that exactly the metrics ``BENCHMARK.json``
names are emitted, with its units.  Then checks that the benchmark fails
(non-zero exit, no result line) in a directory holding only
``BENCHMARK.json`` and ``perfbench/``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import common

SECONDS = "0.5"


def run(cwd, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "7", "--seconds", SECONDS, "--trace", str(trace),
            "--tiny",
        ],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def check_workload(bench: dict, workload: str, trace: int) -> list[str]:
    done = run(common.ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if done.returncode != 0:
        return [f"{where}: exit {done.returncode}\n{done.stderr}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        errors.append(f"{where}: not correct\n{done.stdout}")
    declared = {
        metric["name"]: metric["unit"]
        for metric in bench["per_layer" if trace else "end_to_end"]
    }
    emitted = {
        name: entry["unit"] for name, entry in result["metrics"].items()
    }
    if emitted != declared:
        errors.append(f"{where}: metrics {emitted} != declared {declared}")
    for name, entry in result["metrics"].items():
        if not isinstance(entry["value"], (int, float)):
            errors.append(f"{where}: {name} is not a number")
    return errors


def check_without_program() -> list[str]:
    """Only BENCHMARK.json and perfbench/: must fail, printing no result."""
    bare = common.CACHE / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(common.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(
            common.BENCH_DIR, bare / "perfbench",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        done = run(bare, "detect_gzip", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        return [f"bare directory: exit {done.returncode}, stdout {done.stdout!r}"]
    return []


def main() -> int:
    bench = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    errors = []
    for workload in (entry["name"] for entry in bench["workloads"]):
        for trace in (0, 1):
            errors += check_workload(bench, workload, trace)
            print(f"{workload} --trace {trace}: done", flush=True)
    errors += check_without_program()
    for error in errors:
        print(f"FAIL {error}")
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
