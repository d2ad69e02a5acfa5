"""Finite, ordered categorical value domains.

The paper (§2.1) assumes the values of a categorical attribute ``A`` are
``{a_1, ..., a_nA}`` — *distinct* and *sortable* (e.g. by ASCII value).  The
embedding algorithm manipulates values through their index ``t`` in this
canonical ordering (``T_j(A) <- a_t``), so the ordering must be identical at
embedding and detection time.  :class:`CategoricalDomain` pins that ordering
down: values are kept in sorted order and mapped to dense indices.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from typing import Any, Hashable

from .errors import DomainError, SchemaError


def _sort_key(value: Hashable) -> tuple[str, Any]:
    """Total order over mixed-type hashable values.

    Values of the same Python type compare natively (ints numerically,
    strings lexicographically — the paper's "by ASCII value"); different
    types are segregated by type name so the order is still total.
    """
    return (type(value).__name__, value)


class CategoricalDomain:
    """An immutable, canonically ordered finite set of categorical values.

    Parameters
    ----------
    values:
        The distinct values of the domain, in any order.  They are stored
        sorted (see :func:`_sort_key`) so that a domain reconstructed from
        the same value set — for instance by the blind detector scanning the
        suspect data — yields identical value/index associations.
    """

    __slots__ = ("_values", "_index")

    def __init__(self, values: Iterable[Hashable]):
        ordered = sorted(set(values), key=_sort_key)
        if not ordered:
            raise SchemaError("a categorical domain must contain at least one value")
        self._values: tuple[Hashable, ...] = tuple(ordered)
        self._index: dict[Hashable, int] = {
            value: position for position, value in enumerate(self._values)
        }

    # -- basic protocol ----------------------------------------------------
    @property
    def size(self) -> int:
        """``nA`` — the number of possible values of the attribute."""
        return len(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._values)

    def __contains__(self, value: Hashable) -> bool:
        return value in self._index

    def contains_all(self, values: Iterable[Hashable]) -> bool:
        """``all(value in self for value in values)`` in one C-level scan
        (an unhashable value raises ``TypeError``, as ``in`` does)."""
        return all(map(self._index.__contains__, values))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CategoricalDomain):
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        preview = ", ".join(repr(v) for v in self._values[:4])
        suffix = ", ..." if self.size > 4 else ""
        return f"CategoricalDomain([{preview}{suffix}], size={self.size})"

    # -- index mapping used by the embedding channel ------------------------
    @property
    def values(self) -> tuple[Hashable, ...]:
        """The values in canonical (sorted) order: ``(a_1, ..., a_nA)``."""
        return self._values

    def index_of(self, value: Hashable) -> int:
        """Return ``t`` such that the value equals ``a_t`` (0-based)."""
        try:
            return self._index[value]
        except KeyError:
            raise DomainError(value) from None

    def value_at(self, index: int) -> Hashable:
        """Return ``a_index`` (0-based canonical index)."""
        if not 0 <= index < len(self._values):
            raise DomainError(index)
        return self._values[index]

    # -- derived domains -----------------------------------------------------
    def remapped(self, mapping: dict[Hashable, Hashable]) -> "CategoricalDomain":
        """Return the domain produced by applying a value ``mapping``.

        Used by the A6 (bijective attribute re-mapping) attack and by the
        recovery procedure of §4.5.  The mapping must cover every domain
        value and be injective, otherwise the result would not be a bijection.
        """
        missing = [v for v in self._values if v not in mapping]
        if missing:
            raise DomainError(missing[0], "remapping is not total")
        images = [mapping[v] for v in self._values]
        if len(set(images)) != len(images):
            raise SchemaError("remapping is not injective")
        return CategoricalDomain(images)

    @classmethod
    def from_column(cls, values: Iterable[Hashable]) -> "CategoricalDomain":
        """Build the domain observed in a data column (distinct values)."""
        return cls(values)
