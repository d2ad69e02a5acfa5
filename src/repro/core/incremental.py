"""Incremental updates (§4.3).

"Our method supports incremental updates naturally.  As updates occur to
the data, the resulting tuples can be evaluated on the fly for 'fitness'
and watermarked accordingly."

:class:`IncrementalWatermarker` wraps a live, already-marked relation and
keeps the watermark consistent through inserts, primary-key changes and
mark-attribute updates — the operational mode of the paper's B2B scenario,
where the relation keeps evolving after the initial marking pass.

Only the ``keyed`` variant is supported: its slot addressing is a pure
function of the tuple's key, so a fresh tuple can join the channel without
touching any embedding state (the very property §3.2.1 credits for
surviving data addition).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable

from ..crypto import HashEngine, MarkKey, resolve_engine
from ..relational import Table
from .embedding import (
    EmbeddingSpec,
    VARIANT_KEYED,
    embedded_value_index_from_digest,
    slot_index_from_digest,
)
from .errors import SpecError
from .pipeline import MarkRecord
from .watermark import Watermark


@dataclass
class IncrementalStats:
    """Running counters of on-the-fly marking activity."""

    inserted: int = 0
    inserted_carriers: int = 0
    value_updates: int = 0
    value_updates_reverted: int = 0
    key_updates: int = 0
    remarked_after_key_update: int = 0
    log: list[tuple[str, Hashable]] = field(default_factory=list)


class IncrementalWatermarker:
    """Keeps a marked relation's watermark consistent under updates."""

    def __init__(
        self,
        table: Table,
        key: MarkKey,
        record: MarkRecord,
        engine: HashEngine | None = None,
    ):
        spec = record.spec
        if spec.variant != VARIANT_KEYED:
            raise SpecError(
                "incremental updates require the keyed variant (the map "
                "variant's slot assignment is fixed at embedding time)"
            )
        if spec.key_attribute != table.primary_key:
            raise SpecError(
                "incremental updates operate on the relation's primary key"
            )
        self.table = table
        self.key = key
        self.record = record
        self.spec: EmbeddingSpec = spec
        self.stats = IncrementalStats()
        self._domain = table.schema.attribute(spec.mark_attribute).domain
        if self._domain is None:
            raise SpecError(
                f"{spec.mark_attribute!r} is not categorical in this table"
            )
        self._wm_data = spec.ecc().encode(
            record.watermark.bits, spec.channel_length
        )
        # The engine's memoized digests make the audit/repair full scans —
        # and the steady drip of per-update fitness checks — hash each key
        # value at most once over the wrapper's whole lifetime.
        self._engine = resolve_engine(engine, key)

    # -- the fitness/encoding kernel ------------------------------------------
    def _is_fit(self, key_value: Hashable) -> bool:
        return self._engine.k1.digest(key_value) % self.spec.e == 0

    def _carrier_value(self, key_value: Hashable) -> Any:
        size = self._domain.size
        if size < 2:
            raise ValueError(
                f"domain of size {size} has no usable value pairs"
            )
        engine = self._engine
        slot = slot_index_from_digest(
            engine.k2.digest(key_value), self.spec.channel_length
        )
        index = embedded_value_index_from_digest(
            engine.k1.digest(key_value), self._wm_data[slot], self._domain
        )
        return self._domain.value_at(index)

    def expected_value(self, key_value: Hashable) -> Any | None:
        """The mark-attribute value a carrier tuple must hold (None if the
        tuple is not a carrier)."""
        if not self._is_fit(key_value):
            return None
        return self._carrier_value(key_value)

    # -- mutations ---------------------------------------------------------------
    def insert(self, row: list[Any] | tuple[Any, ...]) -> bool:
        """Insert a tuple, watermarking it on the fly when it is fit.

        Returns ``True`` when the inserted tuple became a carrier.
        """
        materialised = list(row)
        # Validated before the key is hashed: a row the schema refuses
        # raises the schema's error, whatever its key holds.
        self.table.schema.validate_row(materialised)
        pk_position = self.table.schema.position(self.table.primary_key)
        mark_position = self.table.schema.position(self.spec.mark_attribute)
        key_value = materialised[pk_position]
        carrier = self._is_fit(key_value)
        if carrier:
            materialised[mark_position] = self._carrier_value(key_value)
        self.table.insert(materialised)
        self.stats.inserted += 1
        self.stats.inserted_carriers += carrier
        self.stats.log.append(("insert", key_value))
        return carrier

    def set_value(self, key_value: Hashable, attribute: str, value: Any) -> Any:
        """Update one cell; carrier cells of the mark attribute are
        immediately re-marked (the user's write is applied, then corrected,
        so the channel never silently loses a bit)."""
        previous = self.table.set_value(key_value, attribute, value)
        if attribute == self.spec.mark_attribute:
            self.stats.value_updates += 1
            expected = self.expected_value(key_value)
            if expected is not None and value != expected:
                self.table.set_value(key_value, attribute, expected)
                self.stats.value_updates_reverted += 1
                self.stats.log.append(("remark", key_value))
        return previous

    def change_key(self, key_value: Hashable, new_key: Hashable) -> bool:
        """Re-key a tuple, re-evaluating fitness under the new key.

        A tuple that becomes fit is marked; one that stops being fit keeps
        its (now meaningless) value — detection simply no longer reads it.
        Returns ``True`` when the tuple is a carrier under its new key.
        """
        self.table.set_value(key_value, self.table.primary_key, new_key)
        self.stats.key_updates += 1
        expected = self.expected_value(new_key)
        if expected is None:
            return False
        current = self.table.value(new_key, self.spec.mark_attribute)
        if current != expected:
            self.table.set_value(new_key, self.spec.mark_attribute, expected)
            self.stats.remarked_after_key_update += 1
            self.stats.log.append(("remark", new_key))
        return True

    def delete(self, key_value: Hashable) -> tuple[Any, ...]:
        """Remove a tuple (carriers included: majority voting absorbs it)."""
        return self.table.delete(key_value)

    # -- consistency audit ----------------------------------------------------------
    def _drift(self) -> list[tuple[Hashable, Any]]:
        """``(key value, expected value)`` of every carrier whose mark value
        disagrees with the channel, in row order — with the fitness digests
        of all current keys hashed as one batch."""
        primary_key = self.table.primary_key
        keys = self.table.column_view(primary_key)
        e = self.spec.e
        expected = {
            key_value: self._carrier_value(key_value)
            for key_value, digest in zip(
                keys, self._engine.k1.digest_many(keys)
            )
            if digest % e == 0
        }
        return [
            (key_value, value)
            for key_value, current in self.table.iter_cells(
                primary_key, self.spec.mark_attribute
            )
            for value in (expected.get(key_value),)
            if value is not None and current != value
        ]

    def audit(self) -> int:
        """Count carrier tuples whose value disagrees with the channel.

        0 means the relation would decode exactly as at embedding time; a
        non-zero count localises drift introduced by writes that bypassed
        this wrapper.
        """
        return len(self._drift())

    def repair(self) -> int:
        """Re-mark every drifted carrier; returns the number repaired."""
        drifted = self._drift()
        for key_value, expected in drifted:
            self.table.set_value(
                key_value, self.spec.mark_attribute, expected
            )
        return len(drifted)


def incremental_for(
    table: Table, key: MarkKey, record: MarkRecord
) -> IncrementalWatermarker:
    """Convenience constructor mirroring the facade's naming."""
    return IncrementalWatermarker(table, key, record)


def verify_watermark_consistency(
    table: Table, key: MarkKey, watermark: Watermark, spec: EmbeddingSpec
) -> bool:
    """True iff every carrier in ``table`` holds its exact channel value."""
    record = MarkRecord(watermark=watermark, spec=spec)
    return IncrementalWatermarker(table, key, record).audit() == 0
