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
"""

from __future__ import annotations

import abc
import random

from ..relational import Table

#: backend sentinels accepted by :attr:`Attack.backend`
ATTACK_AUTO = "auto"
ATTACK_ROWS = "rows"
ATTACK_CODES = "codes"
ATTACK_BACKENDS = (ATTACK_AUTO, ATTACK_ROWS, ATTACK_CODES)


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
