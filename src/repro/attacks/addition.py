"""A2 — subset addition.

Mallory dilutes the watermarked relation with fresh tuples that do not
"significantly alter the useful properties" of the set.  The paper flags
this as the hardest attack to reason about for categorical data — the
attacker prefers cheap additions over value-destroying alterations — and
the keyed slot selection is what absorbs it: added tuples are fit with
probability only ``1/e``, and even fit ones inject *random* (uncorrelated)
bit votes that the majority decode outvotes.
"""

from __future__ import annotations

import random
from typing import Hashable

import numpy as np

from ..relational import Table, empirical_distribution
from .base import Attack


class SubsetAdditionAttack(Attack):
    """Add ``add_fraction * N`` synthetic tuples mimicking the data.

    Non-key attributes are sampled from the marginal empirical distribution
    of the existing data (a smart attacker keeps the statistics plausible);
    primary keys are fresh values outside the existing key set.
    """

    def __init__(self, add_fraction: float):
        if add_fraction < 0.0:
            raise ValueError(
                f"add_fraction must be non-negative, got {add_fraction}"
            )
        self.add_fraction = add_fraction
        self.name = f"A2:addition({add_fraction:g})"

    def apply_rows(self, table: Table, rng: random.Random) -> Table:
        attacked = table.clone(name=f"{table.name}_diluted")
        goal = round(self.add_fraction * len(table))
        if goal == 0:
            return attacked

        samplers = {}
        for attribute in table.schema.names:
            if attribute == table.primary_key:
                continue
            distribution = empirical_distribution(table.column(attribute))
            values = [value for value, _ in distribution]
            weights = [weight for _, weight in distribution]
            samplers[attribute] = (values, weights)

        for row in _synthesize_rows(table, samplers, goal, rng):
            attacked.insert(row)
        return attacked

    def apply_codes(self, table: Table, rng: random.Random) -> Table:
        """Code-level fast path: same draws, batched landing.

        The marginal distributions come from a ``bincount`` over cached
        column codes when a fresh factorization exists (the counts — and
        therefore the sorted value/weight lists the rng consumes — are
        identical to a ``Counter`` scan), and the synthetic tuples land
        through one :meth:`~repro.relational.table.Table.append_rows`
        batch, which *extends* the attacked clone's factorizations instead
        of invalidating them — the diluted relation re-detects without a
        re-factorization pass.
        """
        attacked = table.clone(name=f"{table.name}_diluted")
        goal = round(self.add_fraction * len(table))
        if goal == 0:
            return attacked

        total = len(table)
        samplers = {}
        for attribute in table.schema.names:
            if attribute == table.primary_key:
                continue
            codes = table.column_codes(attribute, build=False)
            if codes is None:
                distribution = empirical_distribution(
                    table.column_view(attribute)
                )
            else:
                counts = np.bincount(
                    codes.codes, minlength=len(codes.uniques)
                ).tolist()
                distribution = [
                    (value, count / total)
                    for value, count in sorted(
                        zip(codes.uniques, counts),
                        key=lambda item: (type(item[0]).__name__, item[0]),
                    )
                ]
            values = [value for value, _ in distribution]
            weights = [weight for _, weight in distribution]
            samplers[attribute] = (values, weights)

        attacked.append_rows(_synthesize_rows(table, samplers, goal, rng))
        return attacked


def _synthesize_rows(
    table: Table,
    samplers: dict,
    goal: int,
    rng: random.Random,
) -> list[list[Hashable]]:
    """Draw ``goal`` synthetic tuples: fresh keys, marginal-sampled cells.

    The single source of the A2 draw sequence — both attack backends
    consume it verbatim, so the per-row and batched landings stay
    bit-identical by construction.
    """
    names = table.schema.names
    primary_key = table.primary_key
    rows: list[list[Hashable]] = []
    for key in _fresh_keys(table, goal, rng):
        row: list[Hashable] = []
        for attribute in names:
            if attribute == primary_key:
                row.append(key)
            else:
                values, weights = samplers[attribute]
                row.append(rng.choices(values, weights=weights, k=1)[0])
        rows.append(row)
    return rows


def _fresh_keys(table: Table, count: int, rng: random.Random) -> list[Hashable]:
    """Generate ``count`` primary keys absent from ``table``.

    Reads the key column through :meth:`Table.column_view` (no row-tuple
    materialization); the produced set — and therefore every rng draw —
    is identical to a full-row scan.
    """
    existing = set(table.column_view(table.primary_key))
    sample = next(iter(existing)) if existing else 0
    keys: list[Hashable] = []
    if isinstance(sample, int):
        cursor = max(existing) + 1 if existing else 1
        window = max(10 * (len(existing) + count), 1000)
        while len(keys) < count:
            candidate = rng.randrange(cursor, cursor + window)
            if candidate not in existing:
                existing.add(candidate)
                keys.append(candidate)
    else:
        serial = 0
        while len(keys) < count:
            candidate = f"added-{rng.randrange(10 ** 9)}-{serial}"
            serial += 1
            if candidate not in existing:
                existing.add(candidate)
                keys.append(candidate)
    return keys
