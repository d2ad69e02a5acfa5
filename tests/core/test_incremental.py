"""Tests for repro.core.incremental — §4.3 on-the-fly updates."""

import pytest

from repro.core import (
    IncrementalWatermarker,
    SpecError,
    verify_watermark_consistency,
)


@pytest.fixture
def live(item_scan, marker, watermark):
    outcome = marker.embed(item_scan, watermark, "Item_Nbr")
    wrapper = IncrementalWatermarker(
        outcome.table, marker.key, outcome.record
    )
    return wrapper, outcome, marker


class TestConstruction:
    def test_map_variant_rejected(self, item_scan, mark_key, watermark):
        from repro import Watermarker

        marker = Watermarker(mark_key, e=40, variant="map")
        outcome = marker.embed(item_scan, watermark, "Item_Nbr")
        with pytest.raises(SpecError):
            IncrementalWatermarker(outcome.table, mark_key, outcome.record)

    def test_freshly_marked_table_audits_clean(self, live):
        wrapper, _, _ = live
        assert wrapper.audit() == 0

    def test_consistency_helper(self, live):
        wrapper, outcome, marker = live
        assert verify_watermark_consistency(
            wrapper.table, marker.key, outcome.record.watermark,
            outcome.record.spec,
        )


class TestInsert:
    def test_inserted_carriers_marked_on_the_fly(self, live):
        wrapper, outcome, marker = live
        domain = wrapper.table.schema.attribute("Item_Nbr").domain
        carriers = 0
        for offset in range(400):
            key_value = 90_000_000 + offset
            carriers += wrapper.insert((key_value, domain.value_at(0)))
        # ~1/e of inserts are carriers
        assert 1 <= carriers <= 400 / marker.e * 3
        assert wrapper.audit() == 0

    def test_inserts_keep_detection_exact(self, live):
        wrapper, outcome, marker = live
        domain = wrapper.table.schema.attribute("Item_Nbr").domain
        for offset in range(500):
            wrapper.insert((91_000_000 + offset, domain.value_at(offset % 5)))
        verdict = marker.verify(wrapper.table, outcome.record)
        assert verdict.association.mark_alteration == 0.0

    def test_stats_counters(self, live):
        wrapper, _, _ = live
        domain = wrapper.table.schema.attribute("Item_Nbr").domain
        for offset in range(100):
            wrapper.insert((92_000_000 + offset, domain.value_at(0)))
        assert wrapper.stats.inserted == 100
        assert wrapper.stats.inserted_carriers >= 0


class TestInsertRejects:
    """A row the schema refuses raises the schema's error before its key
    is hashed, and changes nothing."""

    @pytest.fixture
    def wrapper(self):
        from repro import MarkKey, Watermark, Watermarker
        from repro.datagen import generate_item_scan

        marker = Watermarker(MarkKey.from_seed("insert-rejects"), e=40)
        outcome = marker.embed(
            generate_item_scan(500, item_count=50, seed=7),
            Watermark.from_int(0b1011001110, 10), "Item_Nbr",
        )
        return IncrementalWatermarker(
            outcome.table, marker.key, outcome.record
        )

    @staticmethod
    def rejects(wrapper, row, error):
        before = list(wrapper.table)
        with pytest.raises(error):
            wrapper.insert(row)
        assert list(wrapper.table) == before
        assert wrapper.stats.inserted == 0

    @pytest.mark.parametrize("key", [None, "90000000"])
    def test_a_key_of_the_wrong_type(self, wrapper, key):
        from repro.relational import TypeMismatchError

        item = wrapper.table.schema.attribute("Item_Nbr").domain.value_at(0)
        self.rejects(wrapper, (key, item), TypeMismatchError)

    def test_an_empty_row(self, wrapper):
        from repro.relational import SchemaError

        self.rejects(wrapper, [], SchemaError)

    def test_a_short_row_with_a_fit_key(self, wrapper):
        from repro.relational import SchemaError

        key = next(
            value for value in range(90_000_000, 90_010_000)
            if wrapper.expected_value(value) is not None
        )
        self.rejects(wrapper, (key,), SchemaError)


class TestValueUpdates:
    def test_carrier_value_update_is_remarked(self, live):
        wrapper, outcome, marker = live
        # find a carrier
        carrier = next(
            key for key in wrapper.table.keys()
            if wrapper.expected_value(key) is not None
        )
        domain = wrapper.table.schema.attribute("Item_Nbr").domain
        expected = wrapper.expected_value(carrier)
        wrong = next(v for v in domain.values if v != expected)
        wrapper.set_value(carrier, "Item_Nbr", wrong)
        assert wrapper.table.value(carrier, "Item_Nbr") == expected
        assert wrapper.stats.value_updates_reverted == 1
        assert wrapper.audit() == 0

    def test_non_carrier_update_untouched(self, live):
        wrapper, _, _ = live
        non_carrier = next(
            key for key in wrapper.table.keys()
            if wrapper.expected_value(key) is None
        )
        domain = wrapper.table.schema.attribute("Item_Nbr").domain
        wrapper.set_value(non_carrier, "Item_Nbr", domain.value_at(1))
        assert wrapper.table.value(non_carrier, "Item_Nbr") == \
            domain.value_at(1)


class TestKeyUpdates:
    def test_rekeyed_tuple_reevaluated(self, live):
        wrapper, outcome, marker = live
        some_key = next(iter(wrapper.table.keys()))
        wrapper.change_key(some_key, 95_000_001)
        assert wrapper.audit() == 0

    def test_many_rekeys_keep_detection(self, live):
        wrapper, outcome, marker = live
        keys = list(wrapper.table.keys())[:300]
        for index, key in enumerate(keys):
            wrapper.change_key(key, 96_000_000 + index)
        verdict = marker.verify(wrapper.table, outcome.record)
        assert verdict.association.mark_alteration == 0.0


class TestDriftRepair:
    def test_bypassing_writes_detected_and_repaired(self, live):
        wrapper, _, _ = live
        domain = wrapper.table.schema.attribute("Item_Nbr").domain
        drifted = 0
        for key in list(wrapper.table.keys()):
            expected = wrapper.expected_value(key)
            if expected is None:
                continue
            wrong = next(v for v in domain.values if v != expected)
            wrapper.table.set_value(key, "Item_Nbr", wrong)  # bypass!
            drifted += 1
            if drifted == 10:
                break
        assert wrapper.audit() == 10
        assert wrapper.repair() == 10
        assert wrapper.audit() == 0

    def test_delete_carrier_tolerated(self, live):
        wrapper, outcome, marker = live
        carrier = next(
            key for key in wrapper.table.keys()
            if wrapper.expected_value(key) is not None
        )
        wrapper.delete(carrier)
        verdict = marker.verify(wrapper.table, outcome.record)
        assert verdict.detected
