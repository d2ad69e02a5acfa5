#!/usr/bin/env python3
"""Fingerprint the outputs of a fixed matrix of attacks and sweep points.

Runs one fixed matrix through the public ``repro.attacks`` and
``repro.experiments`` API and prints one JSON object that maps every
artifact to its sha256.  Two source trees that print the same bytes
give the same attacked relations, leave every attack generator in the
same state and compute the same sweep results:

    PYTHONPATH=src python3 tools/sweep_fingerprint.py > new.json
    PYTHONPATH=/path/to/other/src python3 tools/sweep_fingerprint.py > old.json
    cmp old.json new.json

The matrix: a 2,000-row ItemScan relation over 120 items (some of them
never drawn, so an alteration also writes values the column did not
hold), marked by three keyed passes on each detection backend (VECTOR
and SCALAR):

* attacks, every family with a code-level path — A1 keep and loss, A2
  addition, A3 alteration (at p = 0.7 and p = 1.0, up to x = 1.0), A6
  bijective and permutation remaps, and one composite (alteration, then
  horizontal partition) — each on two passes, on the attack's row path
  and on its code path, over the marked relation as a sweep holds it
  (for VECTOR, with its column codes warm) and over a cold rebuild of
  it.  For each: the attacked rows in physical order (and the
  relation's name), the mark column's codes and uniques, and the
  generator's ``getstate()`` after the attack;
* sweep points: ``run_point`` over the three passes at a few alteration
  strengths and data losses, fused and unfused.

The strengths put ``random.Random.sample``'s row draw in both of its
branches: the set of seen picks (A1 keep 0.05, A3 x = 0.1) and the pool
swap (every larger sample).  The matrix takes a few seconds on a 2-vCPU host.
"""

from __future__ import annotations

import argparse
import hashlib
import json

from repro.attacks import (
    ATTACK_CODES,
    ATTACK_ROWS,
    BijectiveRemapAttack,
    CompositeAttack,
    DataLossAttack,
    HorizontalPartitionAttack,
    PermutationRemapAttack,
    SubsetAdditionAttack,
    SubsetAlterationAttack,
)
from repro.crypto import SCALAR, VECTOR
from repro.datagen import generate_item_scan
from repro.experiments import EmbeddedPass, SweepProtocol, run_point
from repro.experiments.sweepengine import cell_rng
from repro.relational import Table

ROWS = 2_000
ITEMS = 120
MARK = "Item_Nbr"
SEEDS = (71, 72, 73)
#: how many of the passes every attack runs on (the sweep points use all)
ATTACK_PASSES = 2
BACKENDS = (VECTOR, SCALAR)
#: attack label -> (x of the cell's generator label, attack factory)
ATTACKS = {
    "A1:keep(0.05)": (0.05, lambda: HorizontalPartitionAttack(0.05)),
    "A1:keep(0.3)": (0.3, lambda: HorizontalPartitionAttack(0.3)),
    "A1:keep(1.0)": (1.0, lambda: HorizontalPartitionAttack(1.0)),
    "A1:loss(0.6)": (0.6, lambda: DataLossAttack(0.6)),
    "A2:addition(0.4)": (0.4, lambda: SubsetAdditionAttack(0.4)),
    "A3:alteration(0.1,0.7)": (
        0.1, lambda: SubsetAlterationAttack(MARK, 0.1, 0.7)),
    "A3:alteration(0.5,0.7)": (
        0.5, lambda: SubsetAlterationAttack(MARK, 0.5, 0.7)),
    "A3:alteration(0.5,1.0)": (
        0.5, lambda: SubsetAlterationAttack(MARK, 0.5, 1.0)),
    "A3:alteration(1.0,0.7)": (
        1.0, lambda: SubsetAlterationAttack(MARK, 1.0, 0.7)),
    "A3:alteration(1.0,1.0)": (
        1.0, lambda: SubsetAlterationAttack(MARK, 1.0, 1.0)),
    "A6:bijective": (None, lambda: BijectiveRemapAttack(MARK)),
    "A6:permutation": (None, lambda: PermutationRemapAttack(MARK)),
    "composite(A3+A1)": (0.4, lambda: CompositeAttack([
        SubsetAlterationAttack(MARK, 0.4, 0.7),
        HorizontalPartitionAttack(0.5),
    ])),
}
#: sweep point label -> (x, attack factory)
POINTS = {
    f"alteration({x})": (x, lambda x=x: SubsetAlterationAttack(MARK, x, 0.7))
    for x in (0.1, 0.5, 0.9)
} | {
    f"loss({x})": (x, lambda x=x: DataLossAttack(x)) for x in (0.2, 0.7)
}


def sha256(value) -> str:
    """sha256 of ``repr(value)``: rows, codes lists, generator states
    and the sweep's frozen result dataclasses all have exact reprs."""
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()


def cold(table: Table) -> Table:
    """``table`` rebuilt from its rows: no cached column codes."""
    return Table(table.schema, list(table), name=table.name)


def attack_matrix(artifacts: dict, backend: str, passes) -> None:
    for embedded in passes[:ATTACK_PASSES]:
        inputs = {"warm": embedded.table, "cold": cold(embedded.table)}
        for label, (x, factory) in ATTACKS.items():
            for path in (ATTACK_ROWS, ATTACK_CODES):
                for state, table in inputs.items():
                    attack = factory()
                    attack.backend = path
                    if isinstance(attack, CompositeAttack):
                        for stage in attack.stages:
                            stage.backend = path
                    rng = cell_rng(embedded.seed, x)
                    attacked = attack.apply(table, rng)
                    name = (f"attack/{backend}/seed{embedded.seed}/{label}/"
                            f"{path}/{state}")
                    codes = attacked.column_codes(MARK)
                    artifacts[f"{name}/codes"] = sha256(
                        (codes.codes.tolist(), codes.uniques)
                    )
                    artifacts[f"{name}/rows"] = sha256(
                        (attacked.name, list(attacked))
                    )
                    artifacts[f"{name}/rng"] = sha256(rng.getstate())


def point_matrix(artifacts: dict, backend: str, passes) -> None:
    for label, (x, factory) in POINTS.items():
        for fused in (True, False):
            results = run_point(passes, factory(), x, fused=fused)
            artifacts[f"point/{backend}/{label}/fused={fused}"] = sha256(
                results
            )


def run_matrix() -> dict[str, str]:
    artifacts: dict[str, str] = {}
    base = generate_item_scan(ROWS, item_count=ITEMS, seed=29)
    for backend in BACKENDS:
        protocol = SweepProtocol(mark_attribute=MARK, e=20, backend=backend)
        passes = [EmbeddedPass.build(base, protocol, seed) for seed in SEEDS]
        attack_matrix(artifacts, backend, passes)
        point_matrix(artifacts, backend, passes)
    return artifacts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.parse_args(argv)  # no options: --help only
    print(json.dumps(run_matrix(), indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
