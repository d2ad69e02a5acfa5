"""PK-indexed in-memory relation.

:class:`Table` is the storage substrate every other subsystem operates on.
It is intentionally simple — a list of row-lists plus a hash index on the
primary key — because the watermarking algorithms only ever need

* sequential scans over all tuples (embedding / detection loops),
* O(1) cell updates addressed by primary key (the embedding writes
  ``T_j(A) <- a_t``), and
* cheap cloning (attacks must never mutate the watermarked original).

The table validates every inserted or updated cell against the schema, so a
buggy attack or encoder fails loudly instead of producing an out-of-domain
relation.  The rows handed to the constructor are validated a column at a
time; anything that check refuses is re-checked row by row, so the errors
are those of inserting the rows one at a time.
"""

from __future__ import annotations

import gc
from collections.abc import Callable, Iterable, Iterator
from itertools import count
from operator import itemgetter
from typing import Any, Hashable

import numpy as np

from .errors import DuplicateKeyError, MissingKeyError, SchemaError
from .schema import Attribute, Schema


class ColumnCodes:
    """A factorized column: dense ``int32`` codes plus the distinct values.

    ``codes[i]`` is the index of row ``i``'s value in ``uniques``, which is
    kept in *first physical encounter* order — the same distinct-value
    order the engine's batched scans use (``dict.fromkeys(column)``), so
    per-unique quantities line up across backends.  Both fields are
    read-only: the codes array is write-protected and ``uniques`` must not
    be mutated.  Instances support weak references, which is what lets
    :class:`~repro.crypto.engine.HashEngine` cache derived plan arrays per
    factorization without keeping dead tables alive.

    Factorization keys values by Python equality, so equal-comparing
    lookalikes (``1``/``True``) within one column share a code, and that
    code's plan-array entries are those of its first-encountered value.
    """

    __slots__ = ("codes", "uniques", "__weakref__")

    def __init__(self, codes, uniques: list[Any]):
        self.codes = codes
        self.uniques = uniques

    def __len__(self) -> int:
        return len(self.codes)


def factorize(values: Iterable[Any], unique: bool) -> ColumnCodes:
    """Factorize a column of ``values`` into :class:`ColumnCodes` — the
    one factorization rule behind :meth:`Table.column_codes` and the
    streamed detector's chunk codes.

    ``unique`` marks a primary-key column: every row is its own code and
    the uniques *are* the column (``values`` must then be a list, which
    is adopted) — no dict pass at all.  Any other column gets dense
    codes in first physical encounter order.
    """
    if unique:
        uniques = values
        codes = np.arange(len(uniques), dtype=np.int32)
    else:
        index: dict[Any, int] = {}
        uniques = []
        lookup = index.get
        remember = uniques.append
        out: list[int] = []
        emit = out.append
        for value in values:
            code = lookup(value)
            if code is None:
                code = index[value] = len(uniques)
                remember(value)
            emit(code)
        codes = np.asarray(out, dtype=np.int32)
    codes.setflags(write=False)
    return ColumnCodes(codes, uniques)


def _key_index(rows: list[list[Any]], position: int) -> dict | None:
    """Primary-key index of ``rows`` (key -> slot), ``None`` when a key
    repeats."""
    index = dict(zip(map(itemgetter(position), rows), count()))
    return index if len(index) == len(rows) else None


def _canonical_codes(raw, uniques: list[Any]) -> ColumnCodes:
    """Re-canonicalize a raw code array into first-encounter form.

    ``raw`` indexes into ``uniques`` but may use the codes in any order and
    may leave some unused (a batched overwrite can erase a value's last
    occurrence).  The result is exactly what a fresh row scan would
    factorize: uniques in first physical encounter order, no unused
    entries — so every codes consumer (plan arrays, histogram bincounts)
    sees the same factorization either way.

    No sort: one ``np.minimum.at`` over the uniques finds each used
    code's first position (exact where indices repeat, unlike a fancy
    assignment, whose write order NumPy leaves unspecified), and reading
    ``raw`` at those positions, in row order, lists the used codes in
    encounter order.
    """
    rows = len(raw)
    first = np.full(len(uniques), rows, dtype=np.intp)
    np.minimum.at(first, raw, np.arange(rows, dtype=np.intp))
    starts = np.zeros(rows, dtype=bool)
    starts[first[first < rows]] = True
    encounter = raw[starts]
    translate = np.empty(len(uniques), dtype=np.int32)
    translate[encounter] = np.arange(len(encounter), dtype=np.int32)
    codes = translate[raw]
    codes.setflags(write=False)
    return ColumnCodes(codes, [uniques[i] for i in encounter.tolist()])


class Table:
    """A mutable relation instance over a fixed :class:`Schema`.

    ``Table(schema, rows)`` materializes ``rows`` whole, then checks
    arity, types and domain membership a column at a time
    (:meth:`Schema.admits_rows`) and adopts the batch in one step, with
    the :attr:`version` a loop of :meth:`insert` calls would leave.  A
    batch the column check refuses — it is conservative — or one with a
    repeated key goes through that :meth:`insert` loop instead, which
    accepts what was legal and raises the exact error otherwise (after
    ``rows`` has been consumed).  Typed columns need no rows handed in:
    :meth:`from_columns` checks them as they are and keeps them as the
    column views.
    """

    __slots__ = (
        "_schema", "_rows", "_pk_index", "_pk_position", "name",
        "_version", "_column_cache", "_owned",
        "_codes_cache", "_attr_writes", "_structural_version",
        "_view_hits", "_view_misses", "_codes_hits", "_codes_misses",
        "_pending", "__weakref__",
    )

    def __init__(
        self,
        schema: Schema,
        rows: Iterable[Iterable[Any]] = (),
        name: str = "relation",
    ):
        self._schema = schema
        self._pk_position = schema.position(schema.primary_key)
        self._rows: list[list[Any]] = []
        self._pk_index: dict[Hashable, int] = {}
        self.name = name
        self._version = 0
        self._column_cache: dict[str, tuple[int, list[Any]]] = {}
        self._codes_cache: dict[str, tuple[int, ColumnCodes]] = {}
        # Write tracking at cache granularity: cell writes invalidate only
        # the written attribute's cached views; structural changes (insert,
        # delete, replace_rows) invalidate everything.
        self._attr_writes: dict[str, int] = {}
        self._structural_version = 0
        # Copy-on-write state: ``None`` means every row list is exclusively
        # ours; a set holds the ids of rows re-acquired since the last
        # clone() made the storage shared (see _writable_row).
        self._owned: set[int] | None = None
        # Read-cache telemetry (cache_info): column-view and column-codes
        # requests answered from cache vs rebuilt.
        self._view_hits = 0
        self._view_misses = 0
        self._codes_hits = 0
        self._codes_misses = 0
        # Deferred columnar write (apply_codes): logically-applied cell
        # updates for ONE non-key attribute whose row materialization is
        # postponed until something actually reads those rows.  Shape:
        # (attribute, column position, row positions, codes, uniques),
        # positions and codes as integer arrays.
        # The attribute's cached factorization already reflects the
        # update, so codes-only consumers (the vector detection kernels)
        # never trigger the flush — a sweep's attacked clones die without
        # ever paying the per-row write loop.
        self._pending: (
            tuple[str, int, np.ndarray, np.ndarray, list[Any]] | None
        ) = None
        staged = list(map(list, rows))
        if not staged:
            return
        index = None
        if schema.admits_rows(staged):
            index = _key_index(staged, self._pk_position)
        if index is None:
            # Refused column-wise (which may be over-cautious) or a
            # repeated key: the per-row loop admits what was legal and
            # raises the exact error otherwise.
            for row in staged:
                self.insert(row)
            return
        self._rows = staged
        self._pk_index = index
        self._version = self._structural_version = len(staged)

    # -- introspection ---------------------------------------------------------
    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def primary_key(self) -> str:
        return self._schema.primary_key

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[tuple[Any, ...]]:
        """Iterate tuples in current physical order."""
        self._flush_pending()
        return (tuple(row) for row in self._rows)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._pk_index

    def __repr__(self) -> str:
        return f"Table({self.name!r}, {self._schema!r}, n={len(self)})"

    def __eq__(self, other: object) -> bool:
        """Order-insensitive equality: same schema and same set of tuples.

        Re-sorting (attack A4) must produce an "equal" relation; physical
        order is storage detail, not data content.
        """
        if not isinstance(other, Table):
            return NotImplemented
        if self._schema != other._schema or len(self) != len(other):
            return False
        return sorted(map(repr, self)) == sorted(map(repr, other))

    @property
    def version(self) -> int:
        """Monotonic write counter; bumps on any mutation.

        Lets read-side caches (column views, scan plans) validate cheaply
        instead of subscribing to change notifications.
        """
        return self._version

    def _cache_fresh(self, cached_version: int, attribute: str) -> bool:
        """Is a cache entry for ``attribute`` recorded at ``cached_version``
        still valid?

        Valid iff no structural mutation and no cell write *to this
        attribute* happened since — so marking one column does not throw
        away every other column's cached view/codes.
        """
        return (
            cached_version >= self._structural_version
            and cached_version >= self._attr_writes.get(attribute, 0)
        )

    def cache_info(self) -> dict[str, int]:
        """Read-cache telemetry: entries held and hit/miss counts.

        ``*_entries`` counts cached attributes (stale entries included —
        they are evicted lazily); hits/misses count :meth:`column_view` /
        :meth:`column_codes` requests since construction.  Surfaced in the
        bench JSON records so cache efficiency is tracked alongside
        throughput.
        """
        return {
            "view_entries": len(self._column_cache),
            "view_hits": self._view_hits,
            "view_misses": self._view_misses,
            "codes_entries": len(self._codes_cache),
            "codes_hits": self._codes_hits,
            "codes_misses": self._codes_misses,
        }

    # -- deferred columnar writes ------------------------------------------------
    def _flush_pending(self) -> None:
        """Materialize a deferred :meth:`apply_codes` batch into the rows.

        Runs before any row-shaped read or any mutation; a no-op almost
        always.  Does **not** bump :attr:`version` — the logical mutation
        (and its version bump) happened when the batch was staged.
        """
        pending = self._pending
        if pending is None:
            return
        self._pending = None
        _, position, positions, codes, uniques = pending
        positions, codes = positions.tolist(), codes.tolist()
        rows = self._rows
        owned = self._owned
        if owned is None:
            for slot, code in zip(positions, codes):
                rows[slot][position] = uniques[code]
            return
        for slot, code in zip(positions, codes):
            row = rows[slot]
            if id(row) not in owned:
                row = row.copy()
                rows[slot] = row
                owned.add(id(row))
            row[position] = uniques[code]

    def _flush_if(self, attribute: str) -> None:
        """Flush only when the deferred batch covers ``attribute``."""
        pending = self._pending
        if pending is not None and pending[0] == attribute:
            self._flush_pending()

    # -- reads -------------------------------------------------------------------
    def keys(self) -> Iterator[Hashable]:
        """Primary-key values in current physical order."""
        return (row[self._pk_position] for row in self._rows)

    def get(self, key: Hashable) -> tuple[Any, ...]:
        """Return the tuple whose primary key equals ``key``."""
        self._flush_pending()
        try:
            return tuple(self._rows[self._pk_index[key]])
        except KeyError:
            raise MissingKeyError(key) from None

    def value(self, key: Hashable, attribute: str) -> Any:
        """Return ``T_key(attribute)``."""
        self._flush_if(attribute)
        position = self._schema.position(attribute)
        try:
            return self._rows[self._pk_index[key]][position]
        except KeyError:
            raise MissingKeyError(key) from None

    def column(self, attribute: str) -> list[Any]:
        """All values of ``attribute`` in current physical order.

        Returns a fresh list the caller may mutate; hot loops that only
        read should prefer :meth:`column_view`.
        """
        self._flush_if(attribute)
        position = self._schema.position(attribute)
        return [row[position] for row in self._rows]

    def column_view(self, attribute: str) -> list[Any]:
        """Cached read-only column of ``attribute`` (physical order).

        The view is shared between callers and invalidated lazily via
        :attr:`version`, so repeated scans of an unmodified relation —
        the embed/detect hot path — materialize each column once.
        **Callers must not mutate the returned list.**
        """
        cached = self._column_cache.get(attribute)
        if cached is not None and self._cache_fresh(cached[0], attribute):
            self._view_hits += 1
            return cached[1]
        self._view_misses += 1
        self._flush_if(attribute)
        position = self._schema.position(attribute)
        values = [row[position] for row in self._rows]
        self._column_cache[attribute] = (self._version, values)
        return values

    def column_codes(
        self, attribute: str, build: bool = True
    ) -> ColumnCodes | None:
        """Factorize ``attribute`` once into :class:`ColumnCodes`.

        The vector backend's entry point: embedding/detection kernels
        operate on the dense integer codes (NumPy gathers, ``bincount``
        tallies) and resolve hashes per *unique* value only.  The
        factorization is cached and invalidated exactly like
        :meth:`column_view` — by :attr:`version`, at attribute
        granularity — and :meth:`clone` inherits it copy-on-write, so an
        attack clone that never rewrites the key column re-detects on the
        base relation's codes without re-factorizing.

        With ``build=False`` the method only consults the cache, returning
        ``None`` instead of factorizing — for opportunistic consumers that
        would rather take a plain scan than pay a cold factorization.
        """
        cached = self._codes_cache.get(attribute)
        if cached is not None and self._cache_fresh(cached[0], attribute):
            self._codes_hits += 1
            return cached[1]
        if not build:
            return None
        self._codes_misses += 1
        self._flush_if(attribute)
        if attribute == self._schema.primary_key:
            entry = factorize(self.column_view(attribute), unique=True)
        else:
            position = self._schema.position(attribute)
            entry = factorize(
                map(itemgetter(position), self._rows), unique=False
            )
        self._codes_cache[attribute] = (self._version, entry)
        return entry

    def values_for(self, keys: Iterable[Hashable], attribute: str) -> list[Any]:
        """``T_key(attribute)`` for a batch of primary keys.

        The columnar counterpart of :meth:`value` — one schema lookup for
        the whole batch instead of one per cell.
        """
        self._flush_if(attribute)
        position = self._schema.position(attribute)
        rows = self._rows
        index = self._pk_index
        try:
            return [rows[index[key]][position] for key in keys]
        except KeyError as exc:
            raise MissingKeyError(exc.args[0]) from None

    def iter_cells(self, *attributes: str) -> Iterator[Any]:
        """Iterate just the named cells, skipping full-row materialization.

        Yields bare values for a single attribute and tuples of cells for
        several — the columnar alternative to ``for row in table`` for
        loops that touch two columns of a wide relation.
        """
        pending = self._pending
        if pending is not None and pending[0] in attributes:
            self._flush_pending()
        positions = tuple(self._schema.position(a) for a in attributes)
        if len(positions) == 1:
            position = positions[0]
            return (row[position] for row in self._rows)
        if len(positions) == 2:
            first, second = positions
            return ((row[first], row[second]) for row in self._rows)
        return (
            tuple(row[p] for p in positions) for row in self._rows
        )

    def rows_where(
        self, predicate: Callable[[tuple[Any, ...]], bool]
    ) -> Iterator[tuple[Any, ...]]:
        """Yield tuples satisfying ``predicate``."""
        self._flush_pending()
        for row in self._rows:
            frozen = tuple(row)
            if predicate(frozen):
                yield frozen

    @classmethod
    def from_trusted_rows(
        cls,
        schema: Schema,
        rows: Iterable[Iterable[Any]],
        name: str = "relation",
    ) -> "Table":
        """Adopt ``rows`` wholesale, skipping cell validation.

        The chunk-pipeline constructor: a streaming source re-windows rows
        that are schema-valid *by construction* — tuples of an existing
        validated :class:`Table`, CSV cells typed by parsers whose domains
        were just inference-widened over those very rows — so even the
        constructor's column-wise checks would be a pass per column for
        nothing.  Primary-key uniqueness is still enforced (the index is
        built anyway); everything else is the caller's contract.
        """
        table = cls(schema, (), name=name)
        materialised = list(map(list, rows))
        pk_position = table._pk_position
        index = _key_index(materialised, pk_position)
        if index is None:
            seen: set[Hashable] = set()
            for row in materialised:
                key = row[pk_position]
                if key in seen:
                    raise DuplicateKeyError(key)
                seen.add(key)
        table._rows = materialised
        table._pk_index = index
        table._version = 1
        table._structural_version = 1
        return table

    @classmethod
    def from_columns(
        cls,
        schema: Schema,
        columns: list[list[Any]],
        name: str = "relation",
        trusted: bool = False,
    ) -> "Table":
        """Adopt typed ``columns`` (equal-length lists in schema order) as
        a table.

        The column-wise constructor: one dict over the key column is both
        the key check and the primary-key index, every column passes
        :meth:`Schema.admits_columns` unless ``trusted`` (the cell check
        :meth:`from_trusted_rows` skips), the row lists are built once,
        and ``columns`` become the table's cached column views — so they
        are the table's from then on and must not be mutated.  The
        :attr:`version` is the one ``Table(schema, rows)`` (or, trusted,
        :meth:`from_trusted_rows`) sets.  A batch those checks refuse — a
        repeated key, or a cell the conservative check refuses — goes to
        that row constructor as rows, which raises the exact error (or
        adopts a legal batch the check refused, without column views).
        """
        index = None
        if trusted or schema.admits_columns(columns):
            keys = columns[schema.position(schema.primary_key)]
            index = dict(zip(keys, count()))
            if len(index) != len(keys):
                index = None
        if index is None:
            if trusted:
                return cls.from_trusted_rows(schema, zip(*columns), name=name)
            return cls(schema, zip(*columns), name=name)
        table = cls(schema, (), name=name)
        # The row lists are pure allocation (no garbage can exist yet):
        # with the cyclic GC paused they set off no heap rescans.
        paused = gc.isenabled()
        if paused:
            gc.disable()
        try:
            table._rows = list(map(list, zip(*columns)))
        finally:
            if paused:
                gc.enable()
        table._pk_index = index
        version = 1 if trusted else len(keys)
        table._version = table._structural_version = version
        table._column_cache = {
            attribute: (version, column)
            for attribute, column in zip(schema.names, columns)
        }
        return table

    # -- writes -------------------------------------------------------------------
    def insert(self, row: Iterable[Any]) -> None:
        """Append a tuple; rejects arity/type/domain violations and PK reuse."""
        self._flush_pending()
        materialised = list(row)
        self._schema.validate_row(materialised)
        key = materialised[self._pk_position]
        if key in self._pk_index:
            raise DuplicateKeyError(key)
        self._pk_index[key] = len(self._rows)
        self._rows.append(materialised)
        if self._owned is not None:
            self._owned.add(id(materialised))
        self._version += 1
        self._structural_version = self._version

    def set_value(self, key: Hashable, attribute: str, value: Any) -> Any:
        """Update one cell, returning the previous value.

        This is the single write primitive used by mark encoding
        (``T_j(A) <- a_t``) and by the rollback log's undo path.
        """
        self._flush_pending()
        position = self._schema.position(attribute)
        self._schema.attribute(attribute).validate(value)
        if position == self._pk_position:
            return self._set_key(key, value)
        try:
            slot = self._pk_index[key]
        except KeyError:
            raise MissingKeyError(key) from None
        row = self._writable_row(slot)
        previous = row[position]
        row[position] = value
        self._version += 1
        self._attr_writes[attribute] = self._version
        return previous

    def set_values(
        self, attribute: str, items: Iterable[tuple[Hashable, Any]]
    ) -> int:
        """Batched cell update: ``T_key(attribute) <- value`` for many keys.

        The columnar counterpart of :meth:`set_value` for write-heavy
        callers (attack trials and the vector embedding kernel rewrite
        thousands of cells per pass): one schema/validator resolution and
        one version bump for the whole batch, with per-cell validation and
        copy-on-write privatization identical to the scalar path.

        Unlike a loop of :meth:`set_value` calls, the batch is **atomic**:
        every value is validated and every key resolved *before* the first
        cell is touched, so a schema-violating, unknown-key or (for
        primary-key batches) duplicate-key batch is rejected without
        applying any write and without bumping :attr:`version`.  Duplicate
        keys within a non-key batch follow sequential semantics (last value
        wins).  Returns the number of cells written.
        """
        self._flush_pending()
        position = self._schema.position(attribute)
        # Materialize first: a lazy iterable that reads this table (e.g.
        # through column_view) must observe the pre-batch state, never a
        # half-written column cached at the final version.
        staged = list(items)
        if not staged:
            return 0
        if position == self._pk_position:
            return self._set_keys_batched(attribute, staged)
        meta = self._schema.attribute(attribute)
        index = self._pk_index
        slots: list[int] = []
        for key, value in staged:
            meta.validate(value)
            try:
                slots.append(index[key])
            except KeyError:
                raise MissingKeyError(key) from None
        rows = self._rows
        owned = self._owned
        for slot, (_, value) in zip(slots, staged):
            row = rows[slot]
            if owned is not None and id(row) not in owned:
                private = row.copy()
                rows[slot] = private
                owned.add(id(private))
                row = private
            row[position] = value
        self._version += 1
        self._attr_writes[attribute] = self._version
        return len(staged)

    def _set_keys_batched(
        self, attribute: str, staged: list[tuple[Hashable, Any]]
    ) -> int:
        """Atomic batched primary-key renames.

        The whole rename sequence is simulated on a copy of the index
        first (sequential semantics: rename chains like ``a -> b`` then
        ``b -> c`` are legal), so duplicate or missing keys reject the
        batch before any row is touched.
        """
        meta = self._schema.attribute(attribute)
        for _, new_key in staged:
            meta.validate(new_key)
        simulated = dict(self._pk_index)
        renames: list[tuple[int, Hashable]] = []
        for key, new_key in staged:
            if new_key == key:
                if key not in simulated:
                    raise MissingKeyError(key)
                continue
            if new_key in simulated:
                raise DuplicateKeyError(new_key)
            try:
                slot = simulated.pop(key)
            except KeyError:
                raise MissingKeyError(key) from None
            simulated[new_key] = slot
            renames.append((slot, new_key))
        if not renames:
            return len(staged)
        for slot, new_key in renames:
            self._writable_row(slot)[self._pk_position] = new_key
        self._pk_index = simulated
        self._version += 1
        self._attr_writes[attribute] = self._version
        return len(staged)

    def apply_codes(
        self,
        attribute: str,
        positions: Iterable[int],
        codes: Iterable[int],
        base: ColumnCodes,
        extra_uniques: Iterable[Any] = (),
    ) -> int:
        """Batched positional cell update in code space — the attack fast
        path.

        Writes ``uniques[codes[i]]`` into row ``positions[i]`` of
        ``attribute``, where ``uniques`` is ``base.uniques`` extended by
        ``extra_uniques``.  Like :meth:`set_values` the batch is atomic
        (everything validated before the first write) and costs a single
        version bump; unlike it, the row addressing is positional (no
        primary-key lookups) and the column's cached factorization is
        *maintained* instead of invalidated: the updated
        :class:`ColumnCodes` — re-canonicalized to first-encounter form,
        exactly what a fresh scan would factorize — is installed at the
        new version, so a following vector detection of the attacked
        column re-factorizes nothing.

        ``positions`` and ``codes`` may be integer NumPy arrays (what the
        code-level attacks hand in) or any iterables of ints — lists,
        generators — and give the same cells, factorization and errors
        either way.  ``base`` must be this table's current fresh
        ``column_codes(attribute)`` (anything else would desynchronize
        codes and rows and is rejected).  Positions should be distinct;
        duplicates follow last-value-wins sequential semantics.  The
        primary key is not supported (renames need index maintenance, and
        code-level attacks never rewrite keys).

        The row materialization itself is *deferred*: the batch is staged
        (and the version bumped) immediately, but the per-row cell writes
        run lazily on the first row-shaped read.  Codes-only consumers —
        the vector detection kernels — never trigger them, which is what
        makes a code-level attack O(batch) instead of O(batch · row
        bookkeeping).
        """
        position = self._schema.position(attribute)
        if position == self._pk_position:
            raise SchemaError(
                "apply_codes does not support the primary-key column"
            )
        self._flush_pending()
        current = self._codes_cache.get(attribute)
        if (
            current is None
            or current[1] is not base
            or not self._cache_fresh(current[0], attribute)
        ):
            raise ValueError(
                f"base is not this table's current column_codes() "
                f"factorization of {attribute!r}"
            )
        # List anything but an array first: np.asarray of a generator is
        # a 0-d object array, not its items.
        if not isinstance(positions, np.ndarray):
            positions = np.asarray(list(positions))
        if not isinstance(codes, np.ndarray):
            codes = np.asarray(list(codes))
        if len(positions) != len(codes):
            raise ValueError("positions and codes must have equal length")
        if not len(positions):
            return 0
        uniques = base.uniques
        base_length = len(uniques)
        if extra_uniques:
            uniques = list(uniques) + list(extra_uniques)
        lowest, highest = codes.min(), codes.max()
        if lowest < 0 or highest >= len(uniques):
            bad = lowest if lowest < 0 else highest
            raise IndexError(f"code {bad} outside [0, {len(uniques)})")
        if highest >= base_length:
            # Only appended values need validation: every code below
            # base_length names a value already present in the column,
            # which passed schema validation when it entered the table.
            meta = self._schema.attribute(attribute)
            for code in np.unique(codes[codes >= base_length]).tolist():
                meta.validate(uniques[code])
        row_count = len(self._rows)
        lowest, highest = positions.min(), positions.max()
        if lowest < 0 or highest >= row_count:
            bad = lowest if lowest < 0 else highest
            raise IndexError(
                f"row position {bad} outside [0, {row_count})"
            )
        # Private copies: the staged batch must not see later writes to
        # the caller's arrays.
        positions = positions.astype(np.intp)
        codes = codes.astype(np.int32)
        self._pending = (attribute, position, positions, codes, uniques)
        self._version += 1
        self._attr_writes[attribute] = self._version
        raw = base.codes.copy()
        raw[positions] = codes
        self._codes_cache[attribute] = (
            self._version, _canonical_codes(raw, uniques)
        )
        return len(positions)

    def append_rows(self, rows: Iterable[Iterable[Any]]) -> int:
        """Batched :meth:`insert`: append many tuples, one version bump.

        Validation and duplicate-key rejection are atomic — the whole
        batch is checked before the first row lands.  Cached column
        factorizations that are fresh at call time are *extended* instead
        of invalidated: appending cannot change an existing row's code,
        so the new factorization is the old one plus the appended values
        (first-encounter order preserved) — the A2 attack fast path
        re-detects the diluted relation without re-factorizing it.
        """
        self._flush_pending()
        staged = [list(row) for row in rows]
        if not staged:
            return 0
        for row in staged:
            self._schema.validate_row(row)
        pk_position = self._pk_position
        index = self._pk_index
        batch: set[Hashable] = set()
        for row in staged:
            key = row[pk_position]
            if key in index or key in batch:
                raise DuplicateKeyError(key)
            batch.add(key)
        # Capture fresh factorizations before the structural bump below
        # marks them stale.
        fresh = {
            attribute: entry[1]
            for attribute, entry in self._codes_cache.items()
            if self._cache_fresh(entry[0], attribute)
        }
        start = len(self._rows)
        for offset, row in enumerate(staged):
            index[row[pk_position]] = start + offset
        self._rows.extend(staged)
        if self._owned is not None:
            self._owned.update(id(row) for row in staged)
        self._version += 1
        self._structural_version = self._version
        if fresh:
            for attribute, codes in fresh.items():
                attr_position = self._schema.position(attribute)
                appended = [row[attr_position] for row in staged]
                if attr_position == pk_position:
                    # Primary keys stay unique: the factorization remains
                    # the identity over the (extended) column.
                    uniques = codes.uniques + appended
                    extended = np.arange(len(uniques), dtype=np.int32)
                else:
                    uniques = list(codes.uniques)
                    lookup = {
                        value: slot for slot, value in enumerate(uniques)
                    }
                    out: list[int] = []
                    for value in appended:
                        slot = lookup.get(value)
                        if slot is None:
                            slot = lookup[value] = len(uniques)
                            uniques.append(value)
                        out.append(slot)
                    extended = np.concatenate(
                        [codes.codes, np.asarray(out, dtype=np.int32)]
                    )
                extended.setflags(write=False)
                self._codes_cache[attribute] = (
                    self._version, ColumnCodes(extended, uniques)
                )
        return len(staged)

    def _writable_row(self, slot: int) -> list[Any]:
        """The row at ``slot``, privatized for in-place mutation.

        After a :meth:`clone` the row lists are shared with the twin table;
        the first write to a shared row replaces it with a private copy.
        Rows this table created itself (inserts, earlier copies) are
        mutated directly.  Id-based ownership is sound because shared rows
        only ever enter ``_rows`` through ``clone()``, which resets the
        owned set on both sides.
        """
        row = self._rows[slot]
        owned = self._owned
        if owned is None or id(row) in owned:
            return row
        private = row.copy()
        self._rows[slot] = private
        owned.add(id(private))
        return private

    def _set_key(self, key: Hashable, new_key: Hashable) -> Hashable:
        if new_key == key:
            return key
        if new_key in self._pk_index:
            raise DuplicateKeyError(new_key)
        try:
            slot = self._pk_index.pop(key)
        except KeyError:
            raise MissingKeyError(key) from None
        self._writable_row(slot)[self._pk_position] = new_key
        self._pk_index[new_key] = slot
        self._version += 1
        self._attr_writes[self._schema.primary_key] = self._version
        return key

    def delete(self, key: Hashable) -> tuple[Any, ...]:
        """Remove and return the tuple with primary key ``key``.

        Uses swap-with-last so deletion is O(1); physical order is not
        guaranteed to be stable across deletions (watermark detection must
        not — and does not — rely on physical order, per attack A4).
        """
        self._flush_pending()
        try:
            slot = self._pk_index.pop(key)
        except KeyError:
            raise MissingKeyError(key) from None
        removed = self._rows[slot]
        last = self._rows.pop()
        if slot < len(self._rows):
            self._rows[slot] = last
            self._pk_index[last[self._pk_position]] = slot
        self._version += 1
        self._structural_version = self._version
        return tuple(removed)

    def replace_rows(self, rows: Iterable[Iterable[Any]]) -> None:
        """Atomically replace the table contents (used by sort/shuffle ops)."""
        self._pending = None  # superseded wholesale; nothing to keep
        staged: list[list[Any]] = []
        index: dict[Hashable, int] = {}
        for row in rows:
            materialised = list(row)
            self._schema.validate_row(materialised)
            key = materialised[self._pk_position]
            if key in index:
                raise DuplicateKeyError(key)
            index[key] = len(staged)
            staged.append(materialised)
        self._rows = staged
        self._pk_index = index
        self._owned = None  # every staged row is freshly materialised
        self._version += 1
        self._structural_version = self._version

    # -- copies ---------------------------------------------------------------------
    def clone(self, name: str | None = None) -> "Table":
        """Copy-on-write copy: safe to mutate on either side.

        Clone is on the embed and attack hot paths (every marking pass and
        every attack trial copies the relation), while typical passes then
        rewrite only ~``N/e`` rows — so the row lists are *shared* and
        privatized lazily by :meth:`_writable_row` on first write, making
        clone O(N) pointer copies instead of O(N·arity) cell copies.

        Read caches (column views, column codes) are inherited along with
        the rows: the clone starts with the same version counters and the
        same cache entries, which stay valid on each side until *that*
        side writes the attribute.  An attack clone that only rewrites the
        mark column therefore re-detects on the base relation's key-column
        codes — the factorize-once contract of the vector backend.
        """
        self._flush_pending()
        duplicate = Table(self._schema, name=name or self.name)
        duplicate._rows = self._rows.copy()
        duplicate._pk_index = self._pk_index.copy()
        # Both sides now share every row: reset ownership on both.
        self._owned = set()
        duplicate._owned = set()
        # Inherit caches in the parent's version space (the cached lists
        # and codes are shared read-only, like the rows).
        duplicate._version = self._version
        duplicate._structural_version = self._structural_version
        duplicate._attr_writes = dict(self._attr_writes)
        duplicate._column_cache = dict(self._column_cache)
        duplicate._codes_cache = dict(self._codes_cache)
        return duplicate

    def take(self, positions: Iterable[int], name: str | None = None) -> "Table":
        """Row subset by physical position, sharing storage copy-on-write.

        The relational fast path behind the A1 attacks: the selected row
        lists are *shared* with this table (privatized on first write on
        either side, exactly like :meth:`clone`) instead of re-validated
        and re-materialized tuple by tuple, and every fresh cached
        factorization comes along as a gather — re-canonicalized so the
        subset's codes are exactly what a fresh scan of it would produce.
        Output order follows ``positions``; out-of-range or duplicate-key
        positions raise before any state changes.
        """
        self._flush_pending()
        positions = list(positions)
        rows = self._rows
        row_count = len(rows)
        taken: list[list[Any]] = []
        for position in positions:
            if not 0 <= position < row_count:
                raise IndexError(
                    f"row position {position} outside [0, {row_count})"
                )
            taken.append(rows[position])
        pk_position = self._pk_position
        index: dict[Hashable, int] = {}
        for slot, row in enumerate(taken):
            key = row[pk_position]
            if key in index:
                raise DuplicateKeyError(key)
            index[key] = slot
        duplicate = Table(self._schema, name=name or f"{self.name}_take")
        duplicate._rows = taken
        duplicate._pk_index = index
        # Shared storage: every row of either side must now privatize
        # before mutating (the taken rows live in both tables).
        self._owned = set()
        duplicate._owned = set()
        if taken and self._codes_cache:
            gather = np.asarray(positions, dtype=np.intp)
            for attribute, (cached_version, codes) in self._codes_cache.items():
                if not self._cache_fresh(cached_version, attribute):
                    continue
                duplicate._codes_cache[attribute] = (
                    duplicate._version,
                    _canonical_codes(codes.codes[gather], codes.uniques),
                )
        return duplicate

    def with_mapped_column(
        self,
        attribute: str,
        mapping: dict[Any, Any],
        schema: Schema | None = None,
        name: str | None = None,
    ) -> "Table":
        """Rewrite one column through a per-value mapping into a new table.

        The code-level A6 (re-mapping) fast path: the mapping is resolved
        and validated once per *distinct* value instead of per row, rows
        are copied without per-row schema validation (every other cell is
        already valid under an identical attribute layout), and the
        column's factorization carries over with only its uniques
        re-labelled — the codes array itself is unchanged, and untouched
        columns keep their factorization objects verbatim, so detection
        of the re-mapped relation stays warm.  ``schema`` (defaults to
        this table's) must have identical attribute names and order;
        a value missing from ``mapping`` raises ``KeyError`` exactly like
        a per-row ``mapping[value]`` scan would.
        """
        target_schema = schema or self._schema
        if target_schema.names != self._schema.names:
            raise SchemaError(
                "replacement schema must have identical attribute names/order"
            )
        position = target_schema.position(attribute)
        meta = target_schema.attribute(attribute)
        codes = self.column_codes(attribute)
        images = {value: mapping[value] for value in codes.uniques}
        for value in images.values():
            meta.validate(value)
        self._flush_pending()
        mapped_rows: list[list[Any]] = []
        for row in self._rows:
            fresh = row.copy()
            fresh[position] = images[fresh[position]]
            mapped_rows.append(fresh)
        duplicate = Table(target_schema, name=name or f"{self.name}_mapped")
        duplicate._rows = mapped_rows
        if position == self._pk_position:
            index: dict[Hashable, int] = {}
            for slot, row in enumerate(mapped_rows):
                key = row[position]
                if key in index:
                    raise DuplicateKeyError(key)
                index[key] = slot
            duplicate._pk_index = index
        else:
            duplicate._pk_index = dict(self._pk_index)
        mapped_uniques = [images[v] for v in codes.uniques]
        if len(set(mapped_uniques)) == len(mapped_uniques):
            duplicate._codes_cache[attribute] = (
                duplicate._version,
                ColumnCodes(codes.codes, mapped_uniques),
            )
        # A non-injective mapping merges values: the carried-over codes
        # would hold duplicate uniques (two codes for one value), which
        # breaks the distinct-by-equality invariant every consumer
        # assumes — leave the column cold and let a fresh scan
        # canonicalize it instead.
        for other, (cached_version, shared) in self._codes_cache.items():
            if other != attribute and self._cache_fresh(
                cached_version, other
            ):
                duplicate._codes_cache[other] = (duplicate._version, shared)
        return duplicate

    def with_schema(self, schema: Schema, name: str | None = None) -> "Table":
        """Re-type this table's rows under a compatible replacement schema."""
        if schema.names != self._schema.names:
            raise SchemaError(
                "replacement schema must have identical attribute names/order"
            )
        self._flush_pending()
        return Table(schema, (tuple(row) for row in self._rows),
                     name=name or self.name)


def table_from_columns(
    schema: Schema, columns: dict[str, list[Any]], name: str = "relation"
) -> Table:
    """Build a :class:`Table` from parallel column lists keyed by name."""
    lengths = {len(values) for values in columns.values()}
    if len(lengths) > 1:
        raise SchemaError(f"ragged columns: lengths {sorted(lengths)}")
    missing = [n for n in schema.names if n not in columns]
    if missing:
        raise SchemaError(f"missing columns: {missing}")
    ordered = [list(columns[n]) for n in schema.names]
    return Table.from_columns(schema, ordered, name=name)


def make_categorical_attribute(name: str, values: Iterable[Hashable]) -> Attribute:
    """Shorthand for a categorical :class:`Attribute` over ``values``."""
    from .domain import CategoricalDomain
    from .types import AttributeType

    return Attribute(name, AttributeType.CATEGORICAL, CategoricalDomain(values))
