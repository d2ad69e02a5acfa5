"""Equivalence and behaviour tests for the batched hash engine.

The engine is only allowed to be *fast*: every digest and plan array must
be bit-for-bit identical to the scalar reference primitives
(``keyed_hash`` / ``slot_index`` / ``embedded_value_index``), for every
value type the canonical encoding supports.
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.core.embedding import (
    embedded_value_index,
    slot_index,
)
from repro.crypto import (
    HashEngine,
    KeyedDigestCache,
    MarkKey,
    canonical_bytes,
    clear_engine_registry,
    get_digest_cache,
    get_engine,
    keyed_hash,
)
from repro.crypto.engine import GC_PAUSE_THRESHOLD
from repro.relational import CategoricalDomain, ColumnCodes

#: a deliberately nasty mix: negative/huge ints, non-ASCII text, bytes,
#: floats, bools, and nested tuple keys (composite §3.3 place-holders)
VALUES = [
    0,
    1,
    -17,
    2**70 + 3,
    "item-42",
    "naïve café ☃\U0001F600",
    "",
    b"\x00\xffraw",
    3.14159,
    -0.0,
    True,
    False,
    ("composite", 9),
    (1, (2, "três")),
    (),
]


def codes_over(values) -> ColumnCodes:
    """A factorization whose uniques are ``values`` as given, one row each:
    no dict equality is involved, so ``1``, ``True`` and ``1.0`` stay
    separate uniques."""
    return ColumnCodes(np.arange(len(values), dtype=np.int32), list(values))


@pytest.fixture
def key() -> MarkKey:
    return MarkKey.from_seed("engine-equivalence")


@pytest.fixture
def engine(key: MarkKey) -> HashEngine:
    return HashEngine(key)


class TestDigestEquivalence:
    def test_digest_matches_keyed_hash(self, key, engine):
        for value in VALUES:
            assert engine.k1.digest(value) == keyed_hash(value, key.k1)
            assert engine.k2.digest(value) == keyed_hash(value, key.k2)

    def test_digest_many_matches_scalar_digest(self, key, engine):
        batched = engine.k1.digest_many(VALUES)
        assert batched == [keyed_hash(value, key.k1) for value in VALUES]

    def test_digest_many_handles_duplicates(self, key, engine):
        doubled = VALUES + VALUES
        assert engine.k1.digest_many(doubled) == [
            keyed_hash(value, key.k1) for value in doubled
        ]
        # a value repeated within one batch is hashed once
        assert engine.k1.computed == len(VALUES)

    def test_digests_are_raw_big_endian_bytes(self, key, engine):
        assert engine.k2.digests(VALUES) == [
            keyed_hash(value, key.k2).to_bytes(32, "big") for value in VALUES
        ]

    def test_cache_distinguishes_equal_comparing_values(self, key, engine):
        # 1 == True == 1.0 as dict keys, but their canonical encodings --
        # and hence digests -- differ; the payload-keyed cache keeps them
        # apart even when queried interleaved.
        lookalikes = [1, True, 1.0, "1", b"1"]
        digests = engine.k1.digest_many(lookalikes)
        again = [engine.k1.digest(value) for value in lookalikes]
        assert digests == again
        assert len(set(digests)) == len(lookalikes)
        assert digests == [keyed_hash(value, key.k1) for value in lookalikes]

    def test_memoization_counts_each_value_once(self, engine):
        engine.k1.digest_many(VALUES)
        computed = engine.k1.computed
        engine.k1.digest_many(VALUES)
        for value in VALUES:
            engine.k1.digest(value)
        assert engine.k1.computed == computed

    def test_rejects_bad_key(self):
        with pytest.raises(TypeError):
            KeyedDigestCache(b"")
        with pytest.raises(TypeError):
            KeyedDigestCache("not-bytes")  # type: ignore[arg-type]


class TestPlanArrays:
    @pytest.mark.parametrize(
        "e", [1, 2, 7, 60, 2**32 - 1, 2**32, 2**64 + 1]
    )
    def test_fitness_array(self, key, engine, e):
        fit = engine.fitness_array(codes_over(VALUES), e)
        assert fit.tolist() == [
            keyed_hash(value, key.k1) % e == 0 for value in VALUES
        ]

    @pytest.mark.parametrize("e", [3, 60, 2**32 - 1, 2**32, 2**64 + 1])
    def test_fitness_reduction_of_chosen_digests(self, engine, e):
        # Seed the digest cache with digests that are (or are not)
        # multiples of e, so a wrong reduction of either kind — uint64
        # limbs below 2**32, Python ints above — shows for any e.
        quotients = [1, 2**200 // e, 2**255 // e - 7]
        digests = [q * e + r for q in quotients for r in (0, 1, e - 1)]
        values = [f"chosen-{i}" for i in range(len(digests))]
        for value, digest in zip(values, digests):
            engine.k1._cache[value] = digest.to_bytes(32, "big")
        fit = engine.fitness_array(codes_over(values), e)
        assert fit.tolist() == [digest % e == 0 for digest in digests]
        assert engine.computed_digests == 0

    @pytest.mark.parametrize("channel_length", [1, 10, 100, 1023])
    def test_slot_array(self, key, engine, channel_length):
        # e = 1: every unique is fit, so every slot is resolved
        slots = engine.slot_array(codes_over(VALUES), channel_length, 1)
        assert slots.tolist() == [
            slot_index(value, key.k2, channel_length) for value in VALUES
        ]

    @pytest.mark.parametrize("size", [2, 3, 5, 500])
    def test_pair_array(self, key, engine, size):
        domain = CategoricalDomain([f"v{i}" for i in range(size)])
        pairs = engine.pair_array(codes_over(VALUES), size, 1).tolist()
        for bit in (0, 1):
            expected = [
                embedded_value_index(value, key.k1, bit, domain)
                for value in VALUES
            ]
            assert [2 * pair + bit for pair in pairs] == expected

    def test_slot_and_pair_hash_fit_uniques_only(self, key, engine):
        codes = codes_over(VALUES)
        fit = engine.fitness_array(codes, 3)
        k2_before = engine.k2.computed
        slots = engine.slot_array(codes, 64, 3)
        pairs = engine.pair_array(codes, 10, 3)
        assert engine.k2.computed - k2_before == int(fit.sum())
        for position, value in enumerate(VALUES):
            if fit[position]:
                assert slots[position] == slot_index(value, key.k2, 64)
            else:
                assert slots[position] == pairs[position] == 0

    def test_parameter_validation(self, engine):
        codes = codes_over(VALUES)
        with pytest.raises(ValueError, match="e must be positive"):
            engine.fitness_array(codes, 0)
        with pytest.raises(ValueError, match="channel length"):
            engine.slot_array(codes, 0, 7)
        with pytest.raises(ValueError, match="no usable value pairs"):
            engine.pair_array(codes, 1, 7)  # single-value domain: no pairs


class TestExactKeys:
    """Values that compare equal but hash differently (``1``, ``1.0``,
    ``True``) never share a cache entry, whatever order they arrive in."""

    def test_fitness_after_an_equal_comparing_value(self):
        key = MarkKey.from_seed(3)
        engine = HashEngine(key)
        for value in (1.0, True, 1):
            fit = engine.fitness_array(codes_over([value]), 2)
            assert bool(fit[0]) == (keyed_hash(value, key.k1) % 2 == 0)

    def test_int_and_str_subclasses_key_by_canonical_bytes(self, key):
        class Label(str):
            pass

        class Count(int):
            pass

        cache = KeyedDigestCache(key.k1)
        values = ["7", Label("7"), 7, Count(7), 7.0, b"7"]
        assert cache.digest_many(values) == [
            keyed_hash(value, key.k1) for value in values
        ]
        # a subclass hashes like its base type, under its own entry
        assert len(cache) == len(values)
        assert len(set(cache.digest_many(values))) == 4

    def test_str_keys_are_never_compared_with_canonical_bytes(self):
        # A str whose text is another value's canonical encoding has the
        # same hash as those bytes; under ``python -bb`` a str/bytes
        # comparison raises, so the two keys must never meet.
        probe = (
            "from repro.crypto import KeyedDigestCache, keyed_hash\n"
            "cache = KeyedDigestCache(b'k')\n"
            "values = ['y:a', b'a', 'f:1.0', 1.0, 'b:1', True, 's:x', ('x',)]\n"
            "for batch in (values, values[::-1]):\n"
            "    assert cache.digest_many(batch) == [\n"
            "        keyed_hash(value, b'k') for value in batch\n"
            "    ]\n"
        )
        result = subprocess.run(
            [sys.executable, "-bb", "-c", probe],
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=__file__.rsplit("/tests/", 1)[0],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr


class TestRegistry:
    def test_get_engine_is_shared_per_key(self):
        clear_engine_registry()
        key = MarkKey.from_seed("registry")
        assert get_engine(key) is get_engine(key)
        assert get_engine(key) is get_engine(MarkKey.from_seed("registry"))
        assert get_engine(key) is not get_engine(MarkKey.from_seed("other"))

    def test_registry_is_bounded(self):
        clear_engine_registry()
        first = MarkKey.from_seed("evict-0")
        get_engine(first)
        for index in range(1, 40):
            get_engine(MarkKey.from_seed(f"evict-{index}"))
        from repro.crypto.engine import _engines

        assert len(_engines) <= 32
        assert first not in _engines  # oldest got evicted

    def test_raw_key_cache_registry(self):
        clear_engine_registry()
        key = b"ak-secret"
        assert get_digest_cache(key) is get_digest_cache(key)
        assert get_digest_cache(key).digest("pk") == keyed_hash("pk", key)


class TestCanonicalInlineFastPath:
    def test_inline_encodings_match_canonical_bytes(self, key):
        # digest_many inlines the int/str encodings; cross-check against
        # the canonical function through the digest values themselves.
        cache = KeyedDigestCache(key.k1)
        tricky = [0, -1, 10**40, "", "a", "ünïcode", "1", 1, True, 1.0]
        assert cache.digest_many(tricky) == [
            keyed_hash(value, key.k1) for value in tricky
        ]
        for value in tricky:
            assert canonical_bytes(value)  # still encodable


class TestDigestBatch:
    """One batch's misses are hashed together: each distinct value once,
    from its kind's pre-image, and a warm batch hashes nothing."""

    def test_keys_holding_percent_bytes(self):
        # The int pre-image is one ``%`` template around the key bytes:
        # a key holding ``%d``, ``%%`` or a lone ``%`` must not be read
        # as a format directive.
        key = MarkKey(b"k1%d%%%s%", b"%k2%b%")
        engine = HashEngine(key)
        values = [0, 7, -12, 2**80, "7", "%d", 7.0, True, (7,)]
        for cache, raw in ((engine.k1, key.k1), (engine.k2, key.k2)):
            assert cache.digest_many(values) == [
                keyed_hash(value, raw) for value in values
            ]

    def test_seeded_keys_with_percent_bytes(self):
        keys = [MarkKey.from_seed(seed) for seed in range(40)]
        marked = [
            raw for key in keys for raw in (key.k1, key.k2) if b"%" in raw
        ]
        assert marked  # about one key in five holds the byte
        values = list(range(-3, 40)) + ["x", 1.5]
        for raw in marked:
            assert KeyedDigestCache(raw).digest_many(values) == [
                keyed_hash(value, raw) for value in values
            ]

    def test_mixed_kinds_with_repeats_hash_each_value_once(self, key):
        cache = KeyedDigestCache(key.k1)
        kinds = [1, True, 1.0, "1", b"1", (1,)]
        batch = kinds + kinds[::-1] + [1, "1", (1,)]
        digests = cache.digests(batch)
        assert digests == [
            keyed_hash(value, key.k1).to_bytes(32, "big") for value in batch
        ]
        # six distinct pre-images, however often each repeats
        assert cache.computed == len(kinds)
        assert len(set(digests)) == len(kinds)
        assert len(cache) == len(kinds)

    def test_warm_batch_computes_nothing(self, key, monkeypatch):
        from repro.crypto import engine as engine_module

        cache = KeyedDigestCache(key.k1)
        batch = [5, "five", 5.0, False, (5,), 5, "five"]
        cold = cache.digests(batch)
        computed = cache.computed

        def forbidden(*args):
            raise AssertionError("a warm batch hashed a value")

        monkeypatch.setattr(engine_module, "sha256", forbidden)
        assert cache.digests(batch) == cold
        assert cache.digests(batch[::-1]) == cold[::-1]
        assert cache.computed == computed

    def test_misses_among_hits(self, key):
        cache = KeyedDigestCache(key.k1)
        cache.digests(list(range(0, 100, 2)))
        mixed = list(range(100)) + list(range(100))
        assert cache.digest_many(mixed) == [
            keyed_hash(value, key.k1) for value in mixed
        ]
        assert cache.computed == 100


class TestGcPause:
    """Batches of at least ``GC_PAUSE_THRESHOLD`` values hash in-process
    with the cyclic GC paused — and only those batches."""

    @pytest.fixture
    def pauses(self, monkeypatch):
        calls = []
        disable = gc.disable

        def recording_disable():
            calls.append("disable")
            disable()

        monkeypatch.setattr(gc, "disable", recording_disable)
        return calls

    def test_large_batch_matches_keyed_hash_and_resumes_gc(
        self, key, pauses
    ):
        cache = KeyedDigestCache(key.k1)
        cold = [f"cold-{i}" for i in range(GC_PAUSE_THRESHOLD)]
        assert cache.digest_many(cold) == [
            keyed_hash(value, key.k1) for value in cold
        ]
        # a warm batch mixes cache hits with misses
        warm = cold[::2] + list(range(GC_PAUSE_THRESHOLD // 2))
        assert cache.digest_many(warm) == [
            keyed_hash(value, key.k1) for value in warm
        ]
        assert pauses == ["disable", "disable"]
        assert gc.isenabled()
        assert cache.computed == GC_PAUSE_THRESHOLD + GC_PAUSE_THRESHOLD // 2

    def test_small_or_unsized_batches_leave_gc_alone(self, key, pauses):
        cache = KeyedDigestCache(key.k1)
        cache.digest_many([f"v{i}" for i in range(GC_PAUSE_THRESHOLD - 1)])
        cache.digest_many(f"g{i}" for i in range(GC_PAUSE_THRESHOLD))
        assert pauses == []

    def test_gc_resumes_when_a_large_batch_fails(self, key):
        cache = KeyedDigestCache(key.k1)
        values = list(range(GC_PAUSE_THRESHOLD)) + [object()]
        with pytest.raises(TypeError):
            cache.digest_many(values)
        assert gc.isenabled()

    def test_caller_paused_gc_stays_paused(self, key):
        cache = KeyedDigestCache(key.k1)
        gc.disable()
        try:
            cache.digest_many(list(range(GC_PAUSE_THRESHOLD)))
            assert not gc.isenabled()
        finally:
            gc.enable()


class TestCacheBounds:
    def test_digest_cache_clears_at_cap(self):
        cache = KeyedDigestCache(b"cap-key", max_entries=8)
        cache.digest_many(list(range(9)))       # over the cap in one batch
        assert len(cache) == 9                  # cap is checked pre-batch
        cache.digest_many([100])                # next batch trips the valve
        assert len(cache) <= 2
        # correctness survives the reset
        assert cache.digest(3) == keyed_hash(3, b"cap-key")

    def test_cap_counts_int_and_canonical_bytes_keys_together(self):
        engine = HashEngine(MarkKey.from_seed("cap"), max_entries=8)
        values = list(range(6)) + [1.5, True, "six", b"7", (8,), 9.0]
        engine.fitness_array(codes_over(values), 7)
        assert len(engine.k1) == 12             # cap is checked pre-batch
        engine.fitness_array(codes_over([99]), 7)   # trips the valve
        assert len(engine.k1) == 1
        # correctness survives the reset
        fit = engine.fitness_array(codes_over(values), 7)
        assert fit.tolist() == [
            keyed_hash(value, engine.key.k1) % 7 == 0 for value in values
        ]


class TestResolveEngine:
    def test_mismatched_engine_is_rejected(self):
        from repro.crypto import resolve_engine

        key_a = MarkKey.from_seed("resolve-a")
        key_b = MarkKey.from_seed("resolve-b")
        engine_b = HashEngine(key_b)
        with pytest.raises(ValueError):
            resolve_engine(engine_b, key_a)
        assert resolve_engine(engine_b, key_b) is engine_b
        assert resolve_engine(None, key_a).key == key_a

    def test_mismatch_caught_at_detection_surface(self):
        from repro.core import Watermark, Watermarker

        from repro.datagen import generate_item_scan

        table = generate_item_scan(300, item_count=20, seed=1)
        key_a = MarkKey.from_seed("surface-a")
        key_b = MarkKey.from_seed("surface-b")
        with pytest.raises(ValueError):
            Watermarker(key_a, e=10, engine=HashEngine(key_b))
        marker = Watermarker(key_a, e=10)
        outcome = marker.embed(
            table, Watermark.from_int(0b1011001110, 10), "Item_Nbr"
        )
        from repro.core.detection import extract_slots

        with pytest.raises(ValueError):
            extract_slots(
                outcome.table, key_a, outcome.record.spec,
                engine=HashEngine(key_b),
            )
