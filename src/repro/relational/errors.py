"""Exceptions raised by the relational substrate.

The relational layer is deliberately strict: schema violations, duplicate
primary keys and unknown attributes raise immediately rather than silently
corrupting a relation that is about to be watermarked.

Every error that takes its own constructor arguments also pickles them
(``__reduce__``): by default an exception unpickles as ``cls(*args)``,
and ``args`` holds only the formatted message, so an error raised in a
pool worker would come back with wrong attributes, a re-wrapped message,
or not at all.
"""

from __future__ import annotations


class RelationalError(Exception):
    """Base class for all relational-substrate errors."""


class SchemaError(RelationalError):
    """A schema is malformed (duplicate names, missing primary key, ...)."""


class UnknownAttributeError(RelationalError):
    """An operation referenced an attribute not present in the schema."""

    def __init__(self, name: str, available: tuple[str, ...] = ()):
        self.name = name
        self.available = tuple(available)
        msg = f"unknown attribute {name!r}"
        if available:
            msg += f" (schema has: {', '.join(available)})"
        super().__init__(msg)

    def __reduce__(self):
        return (UnknownAttributeError, (self.name, self.available))


class DuplicateKeyError(RelationalError):
    """An insert would create a second tuple with an existing primary key."""

    def __init__(self, key):
        self.key = key
        super().__init__(f"duplicate primary key value: {key!r}")

    def __reduce__(self):
        return (DuplicateKeyError, (self.key,))


class MissingKeyError(RelationalError):
    """A lookup referenced a primary key value not present in the table."""

    def __init__(self, key):
        self.key = key
        super().__init__(f"no tuple with primary key value: {key!r}")

    def __reduce__(self):
        return (MissingKeyError, (self.key,))


class DomainError(RelationalError):
    """A value was outside the declared categorical domain of an attribute."""

    def __init__(self, value, attribute: str = ""):
        self.value = value
        self.attribute = attribute
        where = f" for attribute {attribute!r}" if attribute else ""
        super().__init__(f"value {value!r} is outside the categorical domain{where}")

    def __reduce__(self):
        return (DomainError, (self.value, self.attribute))


class TypeMismatchError(RelationalError):
    """A value did not match the declared type of its attribute."""

    def __init__(self, value, expected: str, attribute: str = ""):
        self.value = value
        self.expected = expected
        self.attribute = attribute
        where = f" for attribute {attribute!r}" if attribute else ""
        super().__init__(
            f"value {value!r} does not match declared type {expected}{where}"
        )

    def __reduce__(self):
        return (TypeMismatchError, (self.value, self.expected, self.attribute))
