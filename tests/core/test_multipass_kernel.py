"""Fused multi-pass detection vs per-pass reference — bit-identical.

``detect_multipass`` tallies all P keyed passes of a sweep cell with one
carrier gather and one ``bincount``; these tests pin it (through
``verify_multipass``/``extract_slots_multipass``) against loops of the
single-pass detector on every backend, including tie resolution, the map
variant, value mappings, and the fall-back routes when passes do not
share a key-column factorization.
"""

from __future__ import annotations

import random

import pytest

from repro.attacks import (
    ATTACK_CODES,
    DataLossAttack,
    SubsetAlterationAttack,
)
from repro.core import (
    SlotVotes,
    Watermark,
    Watermarker,
    extract_slot_votes,
    extract_slots,
    extract_slots_multipass,
    kernels,
    make_spec,
    verify,
    verify_multipass,
)
from repro.core.embedding import embed, slot_index
from repro.crypto import (
    SCALAR,
    VECTOR,
    HashEngine,
    MarkKey,
    keyed_hash,
    stack_cache_info,
)
from repro.datagen import generate_item_scan
from repro.experiments import (
    MODE_HOISTED,
    MODE_SERIAL,
    SweepEngine,
    SweepProtocol,
)
from repro.relational import Table, make_categorical_attribute
from repro.relational.schema import Attribute, Schema
from repro.relational.types import AttributeType

PASSES = 6


@pytest.fixture(scope="module")
def base_table() -> Table:
    return generate_item_scan(900, item_count=70, seed=23)


def _embed_passes(base_table, e=25, variant="keyed"):
    """P keyed passes over one base, attacked clones sharing key codes."""
    kernels.warm_codes(base_table, base_table.primary_key, "Item_Nbr")
    passes = []
    for seed in range(PASSES):
        key = MarkKey.from_seed(f"mp-{seed}")
        watermark = Watermark.random(10, random.Random(f"wm:{seed}"))
        marker = Watermarker(key, e=e, variant=variant, engine=VECTOR)
        outcome = marker.embed(base_table, watermark, "Item_Nbr")
        kernels.warm_codes(outcome.table, "Item_Nbr")
        attack = SubsetAlterationAttack("Item_Nbr", 0.4, 0.7)
        attack.backend = ATTACK_CODES
        attacked = attack.apply(
            outcome.table, random.Random(f"attack:{seed}")
        )
        passes.append((key, watermark, outcome.record, attacked))
    return passes


def _verdict_tuple(result):
    return (
        result.matching_bits,
        result.false_hit_probability,
        result.detection.fit_count,
        result.detection.slots_recovered,
        result.detection.watermark.bits,
        tuple(result.detection.decode.confidence),
    )


class TestFusedEquivalence:
    def test_fused_matches_per_pass_on_every_backend(self, base_table):
        passes = _embed_passes(base_table)
        tables = [attacked for _, _, _, attacked in passes]
        keys = [key for key, _, _, _ in passes]
        spec = passes[0][2].spec
        expecteds = [watermark for _, watermark, _, _ in passes]

        assert kernels.shared_key_codes(tables, spec.key_attribute) is not None
        kernels.reset_kernel_calls()
        fused = verify_multipass(tables, keys, spec, expecteds, engine=VECTOR)
        assert kernels.KERNEL_CALLS["detect_multipass"] == 1
        assert kernels.KERNEL_CALLS["detect"] == 0

        for backend in (SCALAR, VECTOR):
            reference = [
                verify(table, key, spec, expected, engine=backend)
                for table, key, expected in zip(tables, keys, expecteds)
            ]
            assert [_verdict_tuple(r) for r in reference] == [
                _verdict_tuple(r) for r in fused
            ]

    def test_extract_slots_multipass_matches_slots_exactly(self, base_table):
        passes = _embed_passes(base_table, e=15)
        tables = [attacked for _, _, _, attacked in passes]
        keys = [key for key, _, _, _ in passes]
        spec = passes[0][2].spec
        fused = extract_slots_multipass(tables, keys, spec, engine=VECTOR)
        for (slots, fit_count), table, key in zip(fused, tables, keys):
            ref_slots, ref_fit = extract_slots(
                table, key, spec, engine=SCALAR
            )
            assert slots == ref_slots
            assert fit_count == ref_fit

    def test_fused_map_variant_matches(self, base_table):
        passes = _embed_passes(base_table, variant="map")
        tables = [attacked for _, _, _, attacked in passes]
        keys = [key for key, _, _, _ in passes]
        spec = passes[0][2].spec
        expecteds = [watermark for _, watermark, _, _ in passes]
        maps = [record.embedding_map for _, _, record, _ in passes]
        fused = verify_multipass(
            tables, keys, spec, expecteds, embedding_maps=maps, engine=VECTOR
        )
        reference = [
            verify(
                table, key, spec, expected,
                embedding_map=embedding_map, engine=SCALAR,
            )
            for table, key, expected, embedding_map in zip(
                tables, keys, expecteds, maps
            )
        ]
        assert [_verdict_tuple(r) for r in reference] == [
            _verdict_tuple(r) for r in fused
        ]

    def test_unshared_codes_fall_back_and_still_match(self, base_table):
        """Data-loss clones do not share key codes — fused must decline."""
        kernels.warm_codes(base_table, base_table.primary_key, "Item_Nbr")
        tables, keys, expecteds = [], [], []
        spec = None
        for seed in range(3):
            key = MarkKey.from_seed(f"mp-loss-{seed}")
            watermark = Watermark.random(10, random.Random(f"wm:{seed}"))
            marker = Watermarker(key, e=20, engine=VECTOR)
            outcome = marker.embed(base_table, watermark, "Item_Nbr")
            attack = DataLossAttack(0.5)
            attack.backend = ATTACK_CODES
            tables.append(
                attack.apply(outcome.table, random.Random(f"attack:{seed}"))
            )
            keys.append(key)
            expecteds.append(watermark)
            spec = outcome.record.spec
        assert kernels.shared_key_codes(tables, spec.key_attribute) is None
        kernels.reset_kernel_calls()
        fused = verify_multipass(tables, keys, spec, expecteds, engine=VECTOR)
        assert kernels.KERNEL_CALLS["detect_multipass"] == 0
        reference = [
            verify(table, key, spec, expected, engine=SCALAR)
            for table, key, expected in zip(tables, keys, expecteds)
        ]
        assert [_verdict_tuple(r) for r in reference] == [
            _verdict_tuple(r) for r in fused
        ]

    def test_stack_plans_are_cached_across_points(self, base_table):
        passes = _embed_passes(base_table, e=30)
        tables = [attacked for _, _, _, attacked in passes]
        keys = [key for key, _, _, _ in passes]
        spec = passes[0][2].spec
        expecteds = [watermark for _, watermark, _, _ in passes]
        verify_multipass(tables, keys, spec, expecteds, engine=VECTOR)
        built_once = stack_cache_info()["stacks_built"]
        verify_multipass(tables, keys, spec, expecteds, engine=VECTOR)
        info = stack_cache_info()
        assert info["stacks_built"] == built_once
        assert info["stack_hits"] >= 2


class TestTieResolution:
    def _tie_table(self):
        """Two carrier key values voting 1 then 0 into one slot — an exact
        tie that must resolve to the first vote in physical row order."""
        schema = Schema(
            (
                Attribute("K", AttributeType.INTEGER),
                make_categorical_attribute("A", ["a0", "a1", "b0", "b1"]),
            ),
            primary_key="K",
        )
        return schema

    @pytest.mark.parametrize("passes", [1, 2])
    def test_fused_tie_breaks_match_scalar(self, passes):
        """P = 1 runs the single-pass route, which tallies through the
        same kernel; P = 2 runs the fused route."""
        schema = self._tie_table()
        key = MarkKey.from_seed("tie")
        # Fit key values under e=2 grouped by their slot in a 2-slot
        # channel; both slots get an even, split vote with a different
        # first vote, so "ties go to 0" and "ties go to 1" both fail.
        by_slot = {0: [], 1: []}
        for value in range(200):
            if keyed_hash(value, key.k1) % 2 == 0:
                by_slot[slot_index(value, key.k2, 2)].append(value)
        rows = [
            (value, mark)
            for values, marks in (
                (by_slot[0][:4], ["a1", "a0", "b1", "b0"]),
                (by_slot[1][:2], ["b0", "a1"]),
            )
            for value, mark in zip(values, marks)
        ]
        table = Table(schema, rows, name="ties")
        spec = make_spec(
            table,
            Watermark.from_int(0b10, 2),
            mark_attribute="A",
            e=2,
            channel_length=2,
        )
        keys = [key, MarkKey.from_seed("tie-2")][:passes]
        assert extract_slot_votes(table, key, spec, engine=SCALAR) == (
            SlotVotes(total=[4, 2], ones=[2, 1], first=[1, 0], fit_count=6)
        )
        fused = extract_slots_multipass(
            [table] * passes, keys, spec, engine=VECTOR
        )
        assert fused[0] == ([1, 0], 6)
        for (slots, fit_count), pass_key in zip(fused, keys):
            ref_slots, ref_fit = extract_slots(
                table, pass_key, spec, engine=SCALAR
            )
            assert slots == ref_slots
            assert fit_count == ref_fit

    @pytest.mark.parametrize("passes", [1, 2])
    def test_map_variant_tie_first_vote_wins(self, passes):
        schema = self._tie_table()
        key = MarkKey.from_seed("tie-map")
        # Four keys mapped to one slot with bits 1, 0, 1, 0: exact tie,
        # first physical vote (bit 1) must win in every backend.
        table = Table(
            schema,
            [(1, "a1"), (2, "a0"), (3, "b1"), (4, "b0")],
            name="map-ties",
        )
        spec = make_spec(
            table,
            Watermark.from_int(0b1, 1),
            mark_attribute="A",
            e=1,
            channel_length=1,
            variant="map",
        )
        embedding_map = {1: 0, 2: 0, 3: 0, 4: 0}
        fused = extract_slots_multipass(
            [table] * passes,
            [key] * passes,
            spec,
            embedding_maps=[embedding_map] * passes,
            engine=VECTOR,
        )
        reference = extract_slots(
            table, key, spec, embedding_map=embedding_map, engine=SCALAR
        )
        assert reference == ([1], 4)
        assert fused == [reference] * passes

    def test_single_pass_builds_no_plan_stack(self, base_table):
        """A single pass gathers through its engine's own plan arrays
        (``(1, U)`` views): the process-wide stack cache, which holds the
        fused passes' stacks, never sees it."""
        passes = _embed_passes(base_table, e=35)
        key, watermark, record, attacked = passes[0]
        before = stack_cache_info()
        verify(attacked, key, record.spec, watermark, engine=VECTOR)
        verify_multipass(
            [attacked], [key], record.spec, [watermark], engine=VECTOR
        )
        after = stack_cache_info()
        assert after["stacks_built"] == before["stacks_built"]
        assert after["stack_hits"] == before["stack_hits"]


class TestSweepEngineFusion:
    def test_fused_and_unfused_hoisted_match_serial(self, base_table):
        protocol = SweepProtocol(
            mark_attribute="Item_Nbr", e=25, backend=VECTOR
        )
        attacks = [
            (x, SubsetAlterationAttack("Item_Nbr", x, 0.7))
            for x in (0.3, 0.6)
        ]
        seeds = range(4)

        def flatten(points):
            return [(p.x, r) for p in points for r in p.passes]

        serial = SweepEngine(mode=MODE_SERIAL).run(
            base_table, protocol, attacks, seeds
        )
        fused = SweepEngine(mode=MODE_HOISTED, fused=True).run(
            base_table, protocol, attacks, seeds
        )
        unfused = SweepEngine(mode=MODE_HOISTED, fused=False).run(
            base_table, protocol, attacks, seeds
        )
        assert flatten(serial) == flatten(fused) == flatten(unfused)

    def test_warm_point_runs_one_fused_kernel(self, base_table):
        protocol = SweepProtocol(
            mark_attribute="Item_Nbr", e=25, backend=VECTOR
        )
        engine = SweepEngine(mode=MODE_HOISTED)
        attacks = [(0.4, SubsetAlterationAttack("Item_Nbr", 0.4, 0.7))]
        engine.run(base_table, protocol, attacks, range(5))
        kernels.reset_kernel_calls()
        engine.run(
            base_table,
            protocol,
            [(0.6, SubsetAlterationAttack("Item_Nbr", 0.6, 0.7))],
            range(5),
        )
        assert kernels.KERNEL_CALLS["detect_multipass"] == 1
        assert kernels.KERNEL_CALLS["detect"] == 0
        assert kernels.KERNEL_CALLS["embed"] == 0


class TestVerifyPairsRouting:
    def test_verify_pairs_matches_per_pair_loop(self, base_table):
        from repro.core import embed_pairs, verify_pairs
        from repro.core.multiattribute import build_pair_closure

        table = generate_item_scan(400, item_count=50, seed=31)
        master = MarkKey.from_seed("pairs")
        watermark = Watermark.from_int(0x15, 5)
        working = table.clone()
        embedding = embed_pairs(working, watermark, master, e=10)
        grouped = verify_pairs(working, master, embedding, watermark)
        # the old per-pair loop, inlined
        reference = {
            label: verify(
                working,
                master.derive(label),
                spec,
                watermark,
                embedding_map=embedding.embedding_maps.get(label),
            )
            for label, spec in embedding.specs.items()
        }
        assert set(grouped.per_pair) == set(reference)
        for label, result in reference.items():
            assert _verdict_tuple(grouped.per_pair[label]) == _verdict_tuple(
                result
            )

    def test_verify_pairs_fuses_homogeneous_specs(self):
        """Synthetic same-spec witnesses run as one fused kernel."""
        from repro.core.multiattribute import (
            MultiEmbeddingResult,
            verify_pairs,
        )

        table = generate_item_scan(5000, item_count=60, seed=37)
        master = MarkKey.from_seed("pairs-fused")
        watermark = Watermark.from_int(0x2A, 6)
        working = table.clone()
        embedding = MultiEmbeddingResult()
        for label in ("w1", "w2", "w3"):
            spec = make_spec(
                working, watermark, mark_attribute="Item_Nbr", e=12
            )
            outcome = embed(working, watermark, master.derive(label), spec)
            embedding.passes[label] = outcome
            embedding.specs[label] = spec
        kernels.reset_kernel_calls()
        grouped = verify_pairs(working, master, embedding, watermark)
        assert kernels.KERNEL_CALLS["detect_multipass"] == 1
        for label in ("w1", "w2", "w3"):
            reference = verify(
                working, master.derive(label),
                embedding.specs[label], watermark, engine=SCALAR,
            )
            assert _verdict_tuple(grouped.per_pair[label]) == _verdict_tuple(
                reference
            )
