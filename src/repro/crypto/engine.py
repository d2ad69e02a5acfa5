"""Batched keyed-hash engine behind the VECTOR backend's plan arrays.

The scheme spends almost all of its CPU time in ``H(V, k)`` evaluations
(§2.2): fitness selection hashes every distinct key value under ``k1``,
slot addressing hashes every carrier under ``k2``, and the value choice
re-derives the ``k1`` digest.  The row-at-a-time reference implementation
pays the full SHA-256 + Python-call cost for each of those, several times
per carrier, and again on every re-detection of the same relation — which
attack sweeps and benchmarks do hundreds of times.

:class:`HashEngine` removes that redundancy without changing a single
output bit:

* **one exact digest per (key, value)** — :class:`KeyedDigestCache` keeps
  each digest's 32 raw bytes, keyed so that it is exactly as
  discriminating as :func:`~repro.crypto.hashing.keyed_hash` itself
  (``1``, ``True``, ``1.0`` and ``"1"`` all stay distinct);
* **batched evaluation** — whole columns of distinct values are looked up
  and hashed in one tight loop (:meth:`KeyedDigestCache.digests`);
* **plan arrays straight from the digests** — fitness reduces the joined
  digest buffer ``mod e`` in ``uint64`` limbs, slot and pair indices take
  the exact per-value ``msb`` of fit values only, and the arrays are
  cached per column factorization, so a repeated detection of the same
  relation performs **zero** hash computations and zero per-value
  lookups.

Cache-safety invariants (why memoization cannot go stale):

* every cached quantity is a pure function of ``(value, secret key)`` plus
  an integer parameter — never of table state, row order, or position;
* :class:`~repro.crypto.keys.MarkKey` and
  :class:`~repro.core.embedding.EmbeddingSpec` are frozen dataclasses, and
  attacks always operate on :meth:`~repro.relational.table.Table.clone`
  copies, so no mutation can invalidate an entry.

Engines are shared process-wide through :func:`get_engine`, a bounded
registry keyed by :class:`MarkKey`, which is what lets an attack sweep's
hundredth re-detection skip re-hashing entirely.
"""

from __future__ import annotations

import gc
import weakref
from collections import OrderedDict
from collections.abc import Iterable
from hashlib import sha256
from itertools import compress
from operator import not_
from typing import Any

import numpy as np

from .bits import bit_length, msb
from .hashing import _SEPARATOR, canonical_bytes
from .keys import MarkKey

#: sentinel accepted by engine-aware entry points to force the
#: row-at-a-time reference path (used by equivalence tests and benches)
SCALAR = "scalar"

#: the NumPy vector-kernel backend (column codes + plan arrays) — the one
#: fast path, bit-identical to SCALAR; ``None`` means VECTOR
VECTOR = "vector"

#: every string a ``backend=``/``engine=`` parameter accepts
BACKENDS = (SCALAR, VECTOR)

#: batches at least this large pause the cyclic GC while they hash: the
#: batch allocates several retained objects per value, and every threshold
#: crossing would otherwise rescan the whole heap (including the relation
#: being scanned) for garbage that cannot exist yet — a measured ~8x
#: slowdown on 128k-row cold scans
GC_PAUSE_THRESHOLD = 10_000

#: value types that key a digest cache as themselves; every other value
#: keys it by a 1-tuple of its canonical bytes, which never equals these
_SELF_KEYED = frozenset({int, str})

#: safety valve for long-lived processes: when a digest cache exceeds this
#: many entries it is dropped wholesale before the next batch (workloads
#: that keep injecting fresh keys — e.g. A2 dilution sweeps — would
#: otherwise grow the cache without bound).  Losing the warm state once in
#: a few million lookups costs one re-hash pass; the bound keeps worst-case
#: memory at ~hundreds of MB, not unbounded.
DEFAULT_MAX_ENTRIES = 2_000_000

#: per-engine bound on the number of column factorizations whose plan
#: arrays are kept warm.  The arrays are weak-keyed (they die with their
#: ColumnCodes), but workloads that churn *live* factorizations — an A1
#: sweep creates a fresh subset factorization per cell — would otherwise
#: accumulate arrays for as long as the attacked tables stay referenced;
#: the LRU keeps the working set at "the few relations under study".
DEFAULT_MAX_PLAN_CODES = 32

#: process-wide bound on factorizations with cached multi-pass stacks
_MAX_STACK_CODES = 16


def _weak_lru_store(plans: "OrderedDict[weakref.ref, dict]", codes, bound: int) -> dict:
    """The per-factorization sub-store of a weak-keyed, LRU-bounded cache.

    Keyed by a weak reference so entries die with their
    :class:`~repro.relational.table.ColumnCodes`; the reference's death
    callback removes the slot eagerly, and the LRU bound evicts the
    coldest *live* factorizations beyond ``bound``.  Shared by the
    per-engine plan-array stores and the module-level stack-plan cache.
    """
    reference = weakref.ref(
        codes, lambda ref, _plans=plans: _plans.pop(ref, None)
    )
    store = plans.get(reference)
    if store is None:
        store = plans[reference] = {}
        while len(plans) > bound:
            plans.popitem(last=False)
    else:
        plans.move_to_end(reference)
    return store


class KeyedDigestCache:
    """Memoized, batchable ``H(V, k)`` evaluation for one secret key.

    Each entry holds one digest's 32 raw bytes.  A value whose type is
    exactly ``int`` or ``str`` keys the cache as itself; every other value
    (``bool``, ``float``, ``bytes``, ``tuple``, subclasses of ``int`` or
    ``str``) keys it by a 1-tuple of its :func:`canonical_bytes`, the exact
    SHA-256 pre-image.  An ``int`` or ``str`` never compares equal to a
    tuple, so no stored key matches a lookup of another kind and
    memoization cannot conflate values the hash distinguishes — while a
    warm lookup of an int or str key skips the encoding altogether.  (A
    bare ``bytes`` key shares its hash with the ``str`` of the same text,
    so the two would be compared, which ``python -bb`` makes an error.)
    """

    __slots__ = (
        "key", "computed", "_cache", "_prefix", "_suffix", "_ints",
        "_max_entries",
    )

    def __init__(self, key: bytes, max_entries: int = DEFAULT_MAX_ENTRIES):
        if not isinstance(key, bytes) or not key:
            raise TypeError("key must be non-empty bytes")
        self.key = key
        self._prefix = key + _SEPARATOR
        self._suffix = _SEPARATOR + key
        # An exact int's whole pre-image in one ``%``: the key bytes are
        # escaped, as a key may hold ``%`` (about one key in five does).
        self._ints = (
            self._prefix.replace(b"%", b"%%") + b"i:%d"
            + self._suffix.replace(b"%", b"%%")
        )
        self._cache: dict[int | str | tuple[bytes], bytes] = {}
        self._max_entries = max_entries
        #: digests actually computed (cache misses) — perf-smoke telemetry
        self.computed = 0

    def __len__(self) -> int:
        return len(self._cache)

    def digest(self, value: Any) -> int:
        """``H(value, key)`` as a 256-bit integer (memoized)."""
        return int.from_bytes(self.digests((value,))[0], "big")

    def digest_many(self, values: Iterable[Any]) -> list[int]:
        """``H(V, key)`` as 256-bit integers for a whole batch."""
        from_bytes = int.from_bytes
        return [from_bytes(digest, "big") for digest in self.digests(values)]

    def digests(self, values: Iterable[Any]) -> list[bytes]:
        """``H(V, key)`` as 32 big-endian bytes per value, in order.

        Only cache misses are hashed: the batch's distinct misses are
        pre-imaged in one pass, hashed once each and inserted with one
        update, so a value repeated within the batch is hashed once.
        """
        large = (
            hasattr(values, "__len__")
            and len(values) >= GC_PAUSE_THRESHOLD  # type: ignore[arg-type]
            and gc.isenabled()
        )
        if not large:
            return self._digests(values)
        gc.disable()
        try:
            return self._digests(values)
        finally:
            gc.enable()

    def _digests(self, values: Iterable[Any]) -> list[bytes]:
        cache = self._cache
        if len(cache) > self._max_entries:
            cache.clear()
        canon = canonical_bytes
        keys = [
            value if type(value) in _SELF_KEYED else (canon(value),)
            for value in values
        ]
        out = list(map(cache.get, keys))
        if all(out):  # a digest is non-empty bytes, a miss is None
            return out
        # The batch's distinct misses, each hashed once from its kind's
        # pre-image; then one insert and one re-read of the batch.
        misses = dict.fromkeys(compress(keys, map(not_, out)))
        prefix, suffix, ints = self._prefix, self._suffix, self._ints
        cache.update(zip(misses, [
            sha256(
                ints % key if type(key) is int
                else prefix + b"s:" + key.encode("utf-8") + suffix
                if type(key) is str
                else prefix + key[0] + suffix
            ).digest()
            for key in misses
        ]))
        self.computed += len(misses)
        return list(map(cache.__getitem__, keys))


class HashEngine:
    """Columnar ``H(V, k1)``/``H(V, k2)`` evaluation for one key pair.

    One :class:`KeyedDigestCache` per key is the only per-value layer; the
    plan arrays are built from its digests once per column factorization
    and are read-only and shared, safe forever because every entry is a
    pure function of the (immutable) secret keys and the value.
    """

    __slots__ = (
        "key", "k1", "k2", "_array_plans", "plan_arrays_built",
        "plan_array_hits",
    )

    def __init__(self, key: MarkKey, max_entries: int = DEFAULT_MAX_ENTRIES):
        self.key = key
        self.k1 = KeyedDigestCache(key.k1, max_entries)
        self.k2 = KeyedDigestCache(key.k2, max_entries)
        # Vector-backend plan arrays, cached per ColumnCodes *object*: a
        # factorization is immutable for the table version it was built
        # at, so identity-keyed entries can never go stale, and the weak
        # keys let arrays die with their table instead of pinning it.
        # LRU-bounded (DEFAULT_MAX_PLAN_CODES live factorizations) so that
        # workloads churning live codes objects cannot grow it unbounded.
        self._array_plans: "OrderedDict[weakref.ref, dict]" = OrderedDict()
        #: telemetry: plan arrays actually materialized (perf smoke
        #: asserts a warm vector re-detection builds zero of them)
        self.plan_arrays_built = 0
        #: telemetry: plan-array requests answered from cache
        self.plan_array_hits = 0

    # -- telemetry --------------------------------------------------------
    @property
    def computed_digests(self) -> int:
        """Total SHA-256 evaluations this engine has actually performed."""
        return self.k1.computed + self.k2.computed

    # -- vector plan arrays (cached per column factorization) ---------------
    def _plan_store(self, codes) -> dict:
        """The (LRU-tracked) plan-array store for one factorization."""
        return _weak_lru_store(
            self._array_plans, codes, DEFAULT_MAX_PLAN_CODES
        )

    def fitness_array(self, codes, e: int):
        """Read-only bool array: per-unique fitness verdicts
        ``H(V, k1) mod e == 0`` for a
        :class:`~repro.relational.table.ColumnCodes` factorization.

        Aligned with ``codes.uniques`` — gather per-row verdicts as
        ``fitness_array(codes, e)[codes.codes]``.  The ``k1`` digests are
        joined into one buffer of big-endian ``uint64`` limbs and reduced
        ``mod e`` limb by limb (every intermediate stays below
        ``e² < 2^64`` while ``e < 2^32``; larger ``e`` reduce as Python
        ints).  Cached until the factorization dies.
        """
        store = self._plan_store(codes)
        entry = store.get(("fit", e))
        if entry is not None:
            self.plan_array_hits += 1
            return entry
        if e <= 0:
            raise ValueError(f"e must be positive, got {e}")
        digests = self.k1.digests(codes.uniques)
        if e < 1 << 32:
            limbs = np.frombuffer(b"".join(digests), ">u8").reshape(-1, 4)
            radix = (1 << 64) % e
            residue = limbs[:, 0] % e
            for column in range(1, 4):
                residue = (residue * radix + limbs[:, column] % e) % e
            entry = residue == 0
        else:
            entry = np.fromiter(
                (int.from_bytes(digest, "big") % e == 0 for digest in digests),
                dtype=np.bool_,
                count=len(digests),
            )
        entry.setflags(write=False)
        store[("fit", e)] = entry
        self.plan_arrays_built += 1
        return entry

    def _fit_masked_array(
        self, codes, cache_key: tuple, e: int, cache: KeyedDigestCache,
        size: int, modulus: int, error: str,
    ):
        """Shared fit-masked plan-array builder for slot/pair indices:
        ``msb(H(V, k), b(size)) mod modulus`` per unique.

        Only *fit* uniques (under ``e``) are hashed — exactly the values
        the scalar reference hashes — so digest counts match across
        backends; unfit entries hold 0 and must be masked by
        :meth:`fitness_array` before use.
        """
        store = self._plan_store(codes)
        entry = store.get(cache_key)
        if entry is not None:
            self.plan_array_hits += 1
            return entry
        fit_positions = np.flatnonzero(self.fitness_array(codes, e))
        if modulus <= 0:
            raise ValueError(error)
        width = bit_length(size)
        uniques = codes.uniques
        from_bytes = int.from_bytes
        entry = np.zeros(len(uniques), dtype=np.int32)
        entry[fit_positions] = [
            msb(from_bytes(digest, "big"), width) % modulus
            for digest in cache.digests(
                [uniques[i] for i in fit_positions.tolist()]
            )
        ]
        entry.setflags(write=False)
        store[cache_key] = entry
        self.plan_arrays_built += 1
        return entry

    def slot_array(self, codes, channel_length: int, e: int):
        """Read-only int32 array: per-unique ``wm_data`` slot indices
        ``msb(H(V, k2), b(L)) mod L`` (fit-masked — see
        :meth:`_fit_masked_array`)."""
        return self._fit_masked_array(
            codes, ("slot", channel_length, e), e, self.k2,
            channel_length, channel_length,
            f"channel length must be positive, got {channel_length}",
        )

    def pair_array(self, codes, domain_size: int, e: int):
        """Read-only int32 array: per-unique pair indices
        ``msb(H(V, k1), b(nA)) mod (nA // 2)`` — the pair-coding secret of
        :func:`~repro.core.embedding.embedded_value_index` (fit-masked —
        only carriers are ever pair-coded)."""
        return self._fit_masked_array(
            codes, ("pair", domain_size, e), e, self.k1,
            domain_size, domain_size // 2,
            f"domain of size {domain_size} has no usable value pairs",
        )

    # -- stacked plan projections (multi-pass detection) ---------------------
    #
    # The §5 protocol detects P keyed passes over relations sharing one
    # key-column factorization.  The stacks below bundle P engines'
    # single-pass plan arrays into one (P, U) array so the fused kernel
    # (repro.core.kernels.detect_multipass) gathers all passes at once.
    # Cached weak-keyed per ColumnCodes like the single-pass arrays —
    # keyed by the engines' MarkKeys, which fully determine the content —
    # and LRU-bounded process-wide.

    @staticmethod
    def _stack(engines, codes, cache_key: tuple, build_row):
        global plan_stacks_built, plan_stack_hits
        store = _weak_lru_store(_stack_plans, codes, _MAX_STACK_CODES)
        full_key = (cache_key, tuple(engine.key for engine in engines))
        entry = store.get(full_key)
        if entry is not None:
            plan_stack_hits += 1
            return entry
        entry = np.stack([build_row(engine) for engine in engines])
        entry.setflags(write=False)
        store[full_key] = entry
        plan_stacks_built += 1
        return entry

    @staticmethod
    def fitness_stack(engines, codes, e: int):
        """Read-only ``(P, U)`` bool array: per-pass per-unique fitness
        verdicts, one row per engine (pass), aligned with
        ``codes.uniques``."""
        return HashEngine._stack(
            engines,
            codes,
            ("fit", e),
            lambda engine: engine.fitness_array(codes, e),
        )

    @staticmethod
    def slot_stack(engines, codes, channel_length: int, e: int):
        """Read-only ``(P, U)`` int32 array: per-pass per-unique slot
        indices (fit-masked like :meth:`slot_array`)."""
        return HashEngine._stack(
            engines,
            codes,
            ("slot", channel_length, e),
            lambda engine: engine.slot_array(codes, channel_length, e),
        )

    @staticmethod
    def pair_stack(engines, codes, domain_size: int, e: int):
        """Read-only ``(P, U)`` int32 array: per-pass per-unique pair
        indices (fit-masked like :meth:`pair_array`)."""
        return HashEngine._stack(
            engines,
            codes,
            ("pair", domain_size, e),
            lambda engine: engine.pair_array(codes, domain_size, e),
        )

    # -- introspection ------------------------------------------------------
    def cache_info(self) -> dict[str, Any]:
        """Hit/miss/entry telemetry across both cache layers.

        Digest misses are SHA-256 evaluations actually performed;
        plan-array numbers cover the weak-keyed vector-backend caches
        (bounded by :data:`DEFAULT_MAX_PLAN_CODES`).  Surfaced in the bench
        JSON records.
        """
        return {
            "digest_entries": len(self.k1) + len(self.k2),
            "digests_computed": self.computed_digests,
            "plan_codes_tracked": len(self._array_plans),
            "plan_arrays": sum(
                len(store) for store in self._array_plans.values()
            ),
            "plan_arrays_built": self.plan_arrays_built,
            "plan_array_hits": self.plan_array_hits,
        }


# -- multi-pass stack-plan cache -------------------------------------------
#
# Stacked (P, U) plan arrays span several engines, so they live at module
# level rather than on any single engine: weak-keyed per ColumnCodes (the
# arrays die with the factorization), LRU-bounded, inner-keyed by the
# participating MarkKeys + parameters.

_stack_plans: "OrderedDict[weakref.ref, dict]" = OrderedDict()

#: telemetry: (P, U) plan stacks actually materialized / served warm
plan_stacks_built = 0
plan_stack_hits = 0


def stack_cache_info() -> dict[str, int]:
    """Entry/built/hit telemetry for the multi-pass stack-plan cache."""
    return {
        "codes_tracked": len(_stack_plans),
        "stacks": sum(len(store) for store in _stack_plans.values()),
        "stacks_built": plan_stacks_built,
        "stack_hits": plan_stack_hits,
    }


# -- process-wide engine registry ------------------------------------------

_MAX_ENGINES = 32
_engines: "OrderedDict[MarkKey, HashEngine]" = OrderedDict()

_MAX_RAW_CACHES = 16
_raw_caches: "OrderedDict[bytes, KeyedDigestCache]" = OrderedDict()


def get_engine(key: MarkKey) -> HashEngine:
    """The shared :class:`HashEngine` for ``key`` (LRU-bounded registry).

    Sharing is what turns the engine's memoization into cross-call wins:
    ``Watermarker.embed`` warms the digests that ``Watermarker.verify`` and
    every subsequent attack-sweep re-detection then read for free.
    """
    engine = _engines.get(key)
    if engine is None:
        engine = _engines[key] = HashEngine(key)
        while len(_engines) > _MAX_ENGINES:
            _engines.popitem(last=False)
    else:
        _engines.move_to_end(key)
    return engine


def resolve_engine(
    engine: HashEngine | None, key: MarkKey
) -> HashEngine:
    """The engine to use for ``key``: the shared registry engine when
    ``engine`` is ``None``, otherwise ``engine`` itself — after checking
    it was built for the *same* key pair.  An unchecked mismatch would
    silently hash under the engine's keys while the result is attributed
    to ``key``.
    """
    if engine is None:
        return get_engine(key)
    if engine.key != key:
        raise ValueError(
            "engine was built for a different MarkKey than the one passed "
            "alongside it"
        )
    return engine


def resolve_backend(
    engine: "HashEngine | str | None", key: MarkKey
) -> HashEngine:
    """Normalize an ``engine=``/``backend=`` parameter to a
    :class:`HashEngine` for ``key``.

    The :data:`VECTOR` sentinel (the caller dispatches :data:`SCALAR`
    before ever needing an engine) resolves to the shared registry
    engine; unknown strings raise instead of silently running on a
    default backend, so a typo like ``engine="vectr"`` fails loudly.
    ``None`` and explicit instances behave as in :func:`resolve_engine`.
    """
    if isinstance(engine, str):
        if engine not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS}, got {engine!r}"
            )
        return get_engine(key)
    return resolve_engine(engine, key)


def get_digest_cache(key: bytes) -> KeyedDigestCache:
    """Shared :class:`KeyedDigestCache` for a raw byte key (LRU-bounded).

    Used by schemes outside the (k1, k2) pair model — e.g. the
    Agrawal–Kiernan baseline, which hashes under a single secret key.
    """
    cache = _raw_caches.get(key)
    if cache is None:
        cache = _raw_caches[key] = KeyedDigestCache(key)
        while len(_raw_caches) > _MAX_RAW_CACHES:
            _raw_caches.popitem(last=False)
    else:
        _raw_caches.move_to_end(key)
    return cache


def clear_engine_registry() -> None:
    """Drop every shared engine/cache (test isolation, memory pressure)."""
    _engines.clear()
    _raw_caches.clear()
    _stack_plans.clear()
