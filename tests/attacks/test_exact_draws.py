"""The code-level attacks' inlined draws are the stdlib's, to the bit.

For an exact ``random.Random`` the code path runs CPython's ``sample``
and ``randrange(stop)`` on ``getrandbits`` itself
(:func:`repro.attacks.base.sample_range` and the alteration attack's
replacement draws).  These tests pin that the lists, the attacked cells
and the generator's ``getstate()`` afterwards all equal what the stdlib
calls give, across both branches of ``sample`` and every power-of-two
edge of the rejection loops, on each Python the suite runs on.
"""

from __future__ import annotations

import random
from math import ceil, log

import pytest

from repro.attacks import (
    ATTACK_CODES,
    ATTACK_ROWS,
    SubsetAlterationAttack,
)
from repro.attacks.base import sample_range
from repro.relational import Table, make_categorical_attribute
from repro.relational.schema import Attribute, Schema
from repro.relational.types import AttributeType

SIZES = (1, 2, 5, 6, 7, 100, 4096, 4097, 8000, 20000)


def _uses_pool(n: int, k: int) -> bool:
    """Does ``random.Random.sample`` take its pool branch for (n, k)?"""
    setsize = 21
    if k > 5:
        setsize += 4 ** ceil(log(k * 3, 4))
    return n <= setsize


def _sample_sizes(n: int) -> list[int]:
    """Every k in [0, n] for small n; for large n, the ends, the branch
    switch and the pool's power-of-two band edges, plus a stride."""
    if n <= 100:
        return list(range(n + 1))
    ks = {0, 1, 2, 5, 6, 7, n // 3, n // 2, n - 2, n - 1, n}
    ks.update(range(0, n + 1, max(1, n // 16)))
    switch = next(k for k in range(n + 1) if _uses_pool(n, k))
    ks.update({switch - 1, switch, switch + 1})
    bits = n.bit_length()
    while bits > 1:
        # the pool's bound n - i drops below 2**(bits - 1) at this i
        edge = n - (1 << (bits - 1)) + 1
        ks.update({edge - 1, edge, edge + 1})
        bits -= 1
    return sorted(k for k in ks if 0 <= k <= n)


class TestSampleRange:
    @pytest.mark.parametrize("n", SIZES)
    def test_equals_stdlib_sample_and_end_state(self, n):
        for k in _sample_sizes(n):
            ours = random.Random(f"sample:{n}:{k}")
            theirs = random.Random(f"sample:{n}:{k}")
            assert sample_range(ours, n, k) == theirs.sample(range(n), k), (
                n, k,
            )
            assert ours.getstate() == theirs.getstate(), (n, k)

    def test_both_branches_run(self):
        branches = {
            _uses_pool(n, k) for n in SIZES for k in _sample_sizes(n) if k
        }
        assert branches == {True, False}

    @pytest.mark.parametrize("n, k", [(0, 1), (5, 6), (5, -1), (0, -1)])
    def test_out_of_range_k_raises_the_stdlib_error(self, n, k):
        with pytest.raises(ValueError) as stdlib:
            random.Random(1).sample(range(n), k)
        ours = random.Random(1)
        with pytest.raises(ValueError) as raised:
            sample_range(ours, n, k)
        assert str(raised.value) == str(stdlib.value)
        assert ours.getstate() == random.Random(1).getstate()


def _relation(domain_size: int, rows: int = 240) -> Table:
    """``rows`` tuples over a categorical column of ``domain_size``
    values, a few of which the column never holds."""
    values = [f"v{i}" for i in range(domain_size)]
    schema = Schema(
        (
            Attribute("id", AttributeType.INTEGER),
            make_categorical_attribute("value", values),
        ),
        primary_key="id",
    )
    held = values[: max(1, domain_size - 2)]
    draw = random.Random(f"relation:{domain_size}")
    return Table(
        schema, [(i, draw.choice(held)) for i in range(rows)], name="r"
    )


#: domain sizes whose cutoff (size - 1) sits at and around powers of two
DOMAIN_SIZES = (2, 3, 4, 5, 8, 9, 10, 17, 33, 64, 65, 66, 257, 500)


@pytest.mark.parametrize("domain_size", DOMAIN_SIZES)
def test_replacement_draws_match_randrange(domain_size):
    """The inlined ``randrange(cutoff)`` loop: same cells, same end
    state, over cutoffs at each side of a power of two."""
    table = _relation(domain_size)
    for x in (0.3, 1.0):
        for p in (0.7, 1.0):
            attack = SubsetAlterationAttack("value", x, p)
            attack.backend = ATTACK_ROWS
            rows_rng = random.Random(f"attack:{domain_size}:{x}:{p}")
            via_rows = attack.apply(table, rows_rng)
            attack.backend = ATTACK_CODES
            codes_rng = random.Random(f"attack:{domain_size}:{x}:{p}")
            via_codes = attack.apply(table, codes_rng)
            assert list(via_codes) == list(via_rows)
            assert codes_rng.getstate() == rows_rng.getstate()
