"""A1 — horizontal data partitioning (subset selection).

Mallory keeps a random subset of the tuples that "might still provide value
for its intended purpose".  This is also what benign downstream use looks
like (a buyer resells a region's worth of rows), so surviving it is table
stakes.  Figure 7 of the paper sweeps exactly this attack: data loss 10–80%.
"""

from __future__ import annotations

import random

from ..relational import Table, drop_fraction, horizontal_sample
from .base import Attack, sample_range


def _sample_positions_codes(
    table: Table, fraction: float, rng: random.Random
) -> Table:
    """Code-level :func:`~repro.relational.horizontal_sample`.

    ``rng.sample`` draws from the population *length* only, so sampling
    ``range(n)`` — through :func:`~.base.sample_range`, which inlines the
    draws for an exact ``random.Random`` — picks exactly the rows, in
    exactly the order, that sampling the materialized tuple list does;
    :meth:`Table.take` then shares those row lists copy-on-write and
    gathers the cached factorizations instead of re-validating every
    tuple.  Count clamping mirrors :func:`horizontal_sample` exactly.
    """
    size = len(table)
    name = f"{table.name}_sample"
    if fraction == 0.0 or size == 0:
        return Table(table.schema, (), name=name)
    count = max(1, round(fraction * size))
    return table.take(sample_range(rng, size, min(count, size)), name=name)


class HorizontalPartitionAttack(Attack):
    """Keep a uniformly random fraction of the tuples."""

    def __init__(self, keep_fraction: float):
        if not 0.0 < keep_fraction <= 1.0:
            raise ValueError(
                f"keep_fraction must be in (0, 1], got {keep_fraction}"
            )
        self.keep_fraction = keep_fraction
        self.name = f"A1:horizontal(keep={keep_fraction:g})"

    def apply_rows(self, table: Table, rng: random.Random) -> Table:
        return horizontal_sample(table, self.keep_fraction, rng)

    def apply_codes(self, table: Table, rng: random.Random) -> Table:
        return _sample_positions_codes(table, self.keep_fraction, rng)


class DataLossAttack(Attack):
    """Figure-7 phrasing of A1: *lose* a fraction of the data."""

    def __init__(self, loss_fraction: float):
        if not 0.0 <= loss_fraction < 1.0:
            raise ValueError(
                f"loss_fraction must be in [0, 1), got {loss_fraction}"
            )
        self.loss_fraction = loss_fraction
        self.name = f"A1:data-loss({loss_fraction:g})"

    def apply_rows(self, table: Table, rng: random.Random) -> Table:
        return drop_fraction(table, self.loss_fraction, rng)

    def apply_codes(self, table: Table, rng: random.Random) -> Table:
        return _sample_positions_codes(table, 1.0 - self.loss_fraction, rng)


class KeyRangePartitionAttack(Attack):
    """Keep a *contiguous* primary-key range (non-uniform loss).

    Not in the paper's sweeps, but the realistic "I only bought Q3" cut;
    used by the ECC ablation to show why the interleaved majority layout
    beats block repetition under contiguous loss.
    """

    def __init__(self, keep_fraction: float):
        if not 0.0 < keep_fraction <= 1.0:
            raise ValueError(
                f"keep_fraction must be in (0, 1], got {keep_fraction}"
            )
        self.keep_fraction = keep_fraction
        self.name = f"A1:key-range(keep={keep_fraction:g})"

    def apply(self, table: Table, rng: random.Random) -> Table:
        rows = sorted(
            table,
            key=lambda row: _orderable(
                row[table.schema.position(table.primary_key)]
            ),
        )
        count = max(1, round(self.keep_fraction * len(rows)))
        if count >= len(rows):
            start = 0
        else:
            start = rng.randrange(len(rows) - count + 1)
        return Table(
            table.schema, rows[start:start + count],
            name=f"{table.name}_keyrange",
        )


def _orderable(value):
    return (type(value).__name__, value)
