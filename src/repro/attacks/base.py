"""Attack interface (adversary model, §2.3).

Every attack is a transformation Mallory might apply to a watermarked
relation while trying to keep it valuable.  Attacks never mutate their
input — they return a fresh relation — so experiments can compare the
original, marked and attacked versions side by side.

Execution backends
------------------

The high-volume attacks (A1 horizontal, A2 addition, A3 alteration, A6
re-mapping) implement two bit-identical execution paths:

* ``rows`` — the historical per-cell reference implementation
  (:meth:`Attack.apply_rows`);
* ``codes`` — the vectorized fast path (:meth:`Attack.apply_codes`):
  mutations land directly on the relation's ``int32`` column codes through
  the batched :class:`~repro.relational.table.Table` write primitives
  (``apply_codes`` / ``take`` / ``append_rows`` / ``with_mapped_column``),
  so the attacked clone keeps a warm factorization and the following
  re-detection runs as pure array code.

Both paths draw from the *same* ``random.Random`` sequence (the sweep
engine's ``f"attack:{seed}:{x}"`` contract), so selecting a backend can
never change an experiment's outputs — pinned by
``tests/attacks/test_attack_codes_equivalence.py``.  :attr:`Attack.backend`
selects the path: ``auto`` (default) takes ``codes`` whenever the attack
implements it.

The rng contract
----------------

An attack takes its randomness from the ``rng`` it is handed and leaves
it exactly where the row path would: same draws, same order, same
``rng.getstate()`` afterwards, because :class:`~.composite.CompositeAttack`
hands the generator on to its next stage.  The row path calls the
stdlib (``rng.sample``, ``rng.randrange``, ``rng.random``) and is the
reference.  For an exact ``random.Random`` the code path inlines the
stdlib's integer draws instead — :func:`sample_range` and the
alteration attack's replacement draws run CPython's own rejection loop
on ``rng.getrandbits``, with no Python frame per draw.  Any other type,
a subclass included, keeps the stdlib calls: a subclass may override
``random()``, ``getrandbits()`` or ``_randbelow`` and so draw
integers another way.
"""

from __future__ import annotations

import abc
import random
from math import ceil, log

from ..relational import Table

#: backend sentinels accepted by :attr:`Attack.backend`
ATTACK_AUTO = "auto"
ATTACK_ROWS = "rows"
ATTACK_CODES = "codes"
ATTACK_BACKENDS = (ATTACK_AUTO, ATTACK_ROWS, ATTACK_CODES)


def sample_range(rng: random.Random, n: int, k: int) -> list[int]:
    """Exactly ``rng.sample(range(n), k)`` for ``n >= 0``, list and end
    state alike.

    For an exact ``random.Random`` this is CPython's ``sample`` over
    ``range(n)`` with ``_randbelow`` inlined as its ``getrandbits``
    rejection loop: the pool swap when an ``n``-list is smaller than a
    ``k``-set, the set of seen picks otherwise.  The pool's bound
    ``n - i`` keeps one bit length across each power-of-two band, so the
    length is taken once per band.  Any other type calls ``rng.sample``.
    """
    if type(rng) is not random.Random:
        return rng.sample(range(n), k)
    if not 0 <= k <= n:
        raise ValueError("Sample larger than population or is negative")
    getrandbits = rng.getrandbits
    result: list[int] = []
    pick = result.append
    setsize = 21  # the size test of random.Random.sample
    if k > 5:
        setsize += 4 ** ceil(log(k * 3, 4))
    if n <= setsize:
        pool = list(range(n))
        start = 0
        while start < k:
            bits = (n - start).bit_length()
            stop = min(k, n - (1 << (bits - 1)) + 1)
            # last = n - i - 1: the pool's last unselected entry
            for last in range(n - start - 1, n - stop - 1, -1):
                j = getrandbits(bits)
                while j > last:
                    j = getrandbits(bits)
                pick(pool[j])
                pool[j] = pool[last]
            start = stop
        return result
    selected: set[int] = set()
    select = selected.add
    bits = n.bit_length()
    for _ in range(k):
        j = getrandbits(bits)
        while j >= n or j in selected:
            j = getrandbits(bits)
        select(j)
        pick(j)
    return result


class Attack(abc.ABC):
    """A value-preserving (from Mallory's perspective) transformation."""

    #: identifier used in experiment reports (e.g. ``"A1:horizontal"``)
    name: str = "attack"

    #: execution path: ``auto`` / ``rows`` / ``codes`` (class-level
    #: default; assign on an instance to pin one attack's path)
    backend: str = ATTACK_AUTO

    def __init_subclass__(cls, **kwargs) -> None:
        """Construction-time enforcement in place of the old abstract
        ``apply``: a concrete attack must implement ``apply`` or
        ``apply_rows`` (``apply_codes`` alone has no reference path)."""
        super().__init_subclass__(**kwargs)
        if (
            cls.apply is Attack.apply
            and cls.apply_rows is Attack.apply_rows
        ):
            raise TypeError(
                f"{cls.__name__} must implement apply() or apply_rows()"
            )

    def apply(self, table: Table, rng: random.Random) -> Table:
        """Return the attacked copy of ``table``.

        Dispatches to :meth:`apply_codes` or :meth:`apply_rows` per
        :attr:`backend`; attacks without a fast path simply override
        this method directly.
        """
        backend = self.backend
        if backend == ATTACK_AUTO:
            if self._has_codes_path():
                return self.apply_codes(table, rng)
            return self.apply_rows(table, rng)
        if backend == ATTACK_CODES:
            if not self._has_codes_path():
                raise NotImplementedError(
                    f"{type(self).__name__} has no code-level fast path"
                )
            return self.apply_codes(table, rng)
        if backend == ATTACK_ROWS:
            return self.apply_rows(table, rng)
        raise ValueError(
            f"backend must be one of {ATTACK_BACKENDS}, got {backend!r}"
        )

    def _has_codes_path(self) -> bool:
        return type(self).apply_codes is not Attack.apply_codes

    def apply_rows(self, table: Table, rng: random.Random) -> Table:
        """Row-at-a-time reference implementation."""
        raise NotImplementedError(
            f"{type(self).__name__} implements neither apply() nor "
            f"apply_rows()"
        )

    def apply_codes(self, table: Table, rng: random.Random) -> Table:
        """Code-level fast path; bit-identical to :meth:`apply_rows`."""
        return self.apply_rows(table, rng)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class IdentityAttack(Attack):
    """No-op control: the 'attack' of simply redistributing the data."""

    name = "identity"

    def apply(self, table: Table, rng: random.Random) -> Table:
        return table.clone(name=f"{table.name}_copy")
