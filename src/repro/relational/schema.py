"""Relation schemas: named, typed attributes plus a primary key.

This mirrors the paper's data model (§2): a schema ``(K, A, B)`` where ``K``
is the primary key and the remaining attributes may be categorical (finite
value set), integer, real or string.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from operator import itemgetter
from typing import Any

from .domain import CategoricalDomain
from .errors import (
    DomainError,
    SchemaError,
    TypeMismatchError,
    UnknownAttributeError,
)
from .types import AttributeType

#: value types :meth:`Attribute.admits` takes per non-categorical type:
#: exact types only, a subset of what ``AttributeType.accepts`` takes (it
#: also takes subclasses, and refuses ``bool``), so a column check over
#: them never admits a value :meth:`Attribute.validate` would refuse
_EXACT_TYPES = {
    AttributeType.INTEGER: frozenset({int}),
    AttributeType.REAL: frozenset({int, float}),
    AttributeType.STRING: frozenset({str}),
}


@dataclass(frozen=True)
class Attribute:
    """A single relation attribute.

    Parameters
    ----------
    name:
        Attribute name, unique within a schema.
    atype:
        Declared :class:`AttributeType`.
    domain:
        Required for (and only for) ``CATEGORICAL`` attributes: the finite
        set of values the attribute may take.
    """

    name: str
    atype: AttributeType
    domain: CategoricalDomain | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("attribute name must be non-empty")
        if self.atype is AttributeType.CATEGORICAL and self.domain is None:
            raise SchemaError(
                f"categorical attribute {self.name!r} requires a domain"
            )
        if self.atype is not AttributeType.CATEGORICAL and self.domain is not None:
            raise SchemaError(
                f"non-categorical attribute {self.name!r} must not carry a domain"
            )

    @property
    def is_categorical(self) -> bool:
        return self.atype is AttributeType.CATEGORICAL

    def validate(self, value: Any) -> None:
        """Raise unless ``value`` is legal for this attribute."""
        domain = self.domain
        if domain is not None:
            # Categorical fast path (the write-heavy case: every embed and
            # attack write lands on a categorical cell): membership in the
            # finite domain subsumes the type check — any domain member is
            # hashable — so the happy path is a single hash lookup.
            try:
                if value in domain:
                    return
            except TypeError:  # unhashable, i.e. not a legal categorical
                raise TypeMismatchError(
                    value, self.atype.value, self.name
                ) from None
            raise DomainError(value, self.name)
        if not self.atype.accepts(value):
            raise TypeMismatchError(value, self.atype.value, self.name)

    def admits(self, values: Iterable[Any]) -> bool:
        """Conservative :meth:`validate` of a whole column, at C speed.

        ``True`` only when every value is legal.  It may be ``False`` for
        legal values — a subclass of the declared type, such as an
        ``IntEnum`` in an integer column — so a refused column is
        re-checked value by value for the exact error.
        """
        if self.domain is not None:
            try:
                return self.domain.contains_all(values)
            except TypeError:  # unhashable, i.e. not a legal categorical
                return False
        return set(map(type, values)) <= _EXACT_TYPES[self.atype]

    def with_domain(self, domain: CategoricalDomain) -> "Attribute":
        """Return a copy of this attribute with a replacement domain."""
        if not self.is_categorical:
            raise SchemaError(
                f"cannot attach a domain to non-categorical {self.name!r}"
            )
        return Attribute(self.name, self.atype, domain)


class Schema:
    """An ordered collection of attributes with a designated primary key.

    The schema knows each attribute's position, so tables can store tuples
    as plain lists and still address cells by attribute name in O(1).
    """

    __slots__ = ("_attributes", "_positions", "_primary_key")

    def __init__(self, attributes: Iterable[Attribute], primary_key: str):
        attrs = tuple(attributes)
        if not attrs:
            raise SchemaError("a schema needs at least one attribute")
        names = [a.name for a in attrs]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate attribute names in schema: {names}")
        if primary_key not in names:
            raise SchemaError(
                f"primary key {primary_key!r} is not an attribute of the schema"
            )
        self._attributes = attrs
        self._positions = {a.name: i for i, a in enumerate(attrs)}
        self._primary_key = primary_key

    # -- lookups -------------------------------------------------------------
    @property
    def attributes(self) -> tuple[Attribute, ...]:
        return self._attributes

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self._attributes)

    @property
    def primary_key(self) -> str:
        return self._primary_key

    @property
    def arity(self) -> int:
        return len(self._attributes)

    def __len__(self) -> int:
        return len(self._attributes)

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self._attributes)

    def __contains__(self, name: str) -> bool:
        return name in self._positions

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return (
            self._attributes == other._attributes
            and self._primary_key == other._primary_key
        )

    def __repr__(self) -> str:
        cols = ", ".join(
            f"{a.name}:{a.atype.value}" + ("*" if a.name == self._primary_key else "")
            for a in self._attributes
        )
        return f"Schema({cols})"

    def position(self, name: str) -> int:
        """Column index of attribute ``name`` within stored tuples."""
        try:
            return self._positions[name]
        except KeyError:
            raise UnknownAttributeError(name, self.names) from None

    def attribute(self, name: str) -> Attribute:
        return self._attributes[self.position(name)]

    def categorical_names(self) -> tuple[str, ...]:
        """Names of all categorical attributes, in schema order."""
        return tuple(a.name for a in self._attributes if a.is_categorical)

    # -- validation ------------------------------------------------------------
    def validate_row(self, row: tuple[Any, ...] | list[Any]) -> None:
        """Raise unless ``row`` has the right arity and every cell is legal."""
        if len(row) != len(self._attributes):
            raise SchemaError(
                f"row arity {len(row)} does not match schema arity "
                f"{len(self._attributes)}"
            )
        for attribute, value in zip(self._attributes, row):
            attribute.validate(value)

    def admits_rows(self, rows: list) -> bool:
        """Conservative :meth:`validate_row` of many rows, a column at a
        time: ``True`` only when every row has this schema's arity and
        every cell passes :meth:`Attribute.admits`.  A refused batch may
        still be legal; re-check it row by row for the exact error."""
        arity = len(self._attributes)
        if any(map(arity.__ne__, map(len, rows))):
            return False
        return self.admits_columns(
            [map(itemgetter(position), rows) for position in range(arity)]
        )

    def admits_columns(self, columns: list) -> bool:
        """:meth:`admits_rows` of the rows whose columns are ``columns``
        (equal-length iterables in schema order), one
        :meth:`Attribute.admits` per column — as conservative, and with
        the same row-by-row re-check for the exact error."""
        return len(columns) == len(self._attributes) and all(
            attribute.admits(column)
            for attribute, column in zip(self._attributes, columns)
        )

    # -- derived schemas ---------------------------------------------------------
    def project(self, names: Iterable[str], primary_key: str | None = None) -> "Schema":
        """Schema of a vertical partition keeping ``names``.

        ``primary_key`` designates the key of the partition; when omitted the
        original key is kept if it survives the projection, otherwise the
        first retained attribute is (arbitrarily but deterministically)
        promoted — exactly the situation the A5 attack creates, where "one of
        the remaining attributes can act as a primary key" (§3.3).
        """
        kept = tuple(names)
        for name in kept:
            if name not in self._positions:
                raise UnknownAttributeError(name, self.names)
        if not kept:
            raise SchemaError("projection must keep at least one attribute")
        if primary_key is None:
            primary_key = (
                self._primary_key if self._primary_key in kept else kept[0]
            )
        if primary_key not in kept:
            raise SchemaError(
                f"projection primary key {primary_key!r} not among kept attributes"
            )
        return Schema(
            (self.attribute(name) for name in kept), primary_key=primary_key
        )

    def replace_attribute(self, attribute: Attribute) -> "Schema":
        """Return a schema with the same layout but ``attribute`` swapped in."""
        if attribute.name not in self._positions:
            raise UnknownAttributeError(attribute.name, self.names)
        replaced = tuple(
            attribute if a.name == attribute.name else a for a in self._attributes
        )
        return Schema(replaced, primary_key=self._primary_key)

    def with_primary_key(self, name: str) -> "Schema":
        """Return the same schema re-keyed on ``name``.

        Used by multi-attribute embedding (§3.3), which treats one attribute
        of each pair as "a primary key place-holder".
        """
        return Schema(self._attributes, primary_key=name)


def infer_domains(schema: Schema, rows: Iterable[tuple]) -> Schema:
    """Return ``schema`` with every categorical domain widened to cover ``rows``.

    Convenience used by CSV import and by the blind detector when it only
    has the (possibly attacked) data: the observed distinct values of each
    categorical column become its domain.
    """
    rows = list(rows)
    return _widened(schema, lambda position: {row[position] for row in rows})


def infer_column_domains(schema: Schema, columns: list) -> Schema:
    """:func:`infer_domains` of the rows whose typed columns are
    ``columns`` (schema order): each categorical column is read as it
    is, with no rows built."""
    return _widened(schema, lambda position: set(columns[position]))


def _widened(schema: Schema, observed) -> Schema:
    """``schema`` with each categorical domain widened by
    ``observed(position)``, the set of its column's values (built in row
    order, so the same values survive as from the rows)."""
    out = schema
    for position, attribute in enumerate(schema):
        if not attribute.is_categorical:
            continue
        values = observed(position)
        if attribute.domain is not None:
            values |= set(attribute.domain.values)
        out = out.replace_attribute(
            attribute.with_domain(CategoricalDomain(values))
        )
    return out
