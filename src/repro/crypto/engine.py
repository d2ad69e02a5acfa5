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

* **one digest per (key, value)** — digests are memoized per secret key,
  keyed by the *canonical byte encoding* of the value, so the cache is
  exactly as discriminating as :func:`~repro.crypto.hashing.keyed_hash`
  itself (``1``, ``True``, ``1.0`` and ``"1"`` all stay distinct);
* **batched evaluation** — whole columns of distinct values are hashed in
  one tight loop (:meth:`KeyedDigestCache.digest_many`);
* **derived-primitive caches** — the quantities hot loops actually need
  (``fitness``, ``slot index``, ``pair index``) are memoized per parameter
  (``e``, ``|wm_data|``, ``nA``) on top of the digest cache, so a repeated
  detection of the same relation performs **zero** hash computations.

Cache-safety invariants (why memoization cannot go stale):

* every cached quantity is a pure function of ``(value, secret key)`` plus
  an integer parameter — never of table state, row order, or position;
* :class:`~repro.crypto.keys.MarkKey` and
  :class:`~repro.core.embedding.EmbeddingSpec` are frozen dataclasses, and
  attacks always operate on :meth:`~repro.relational.table.Table.clone`
  copies, so no mutation can invalidate an entry;
* the derived caches (:meth:`HashEngine.fitness_map` and friends) are
  keyed by the Python *value* for per-row lookup speed, mirroring the
  per-scan caches of the reference implementation — so, like any Python
  ``dict``, they treat ``1``/``True``/``1.0`` as one key.  Relations mixing
  equal-comparing values of different types in one key column are outside
  the paper's data model; the underlying digest cache remains exact.

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
from typing import Any, Hashable

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

#: safety valve for long-lived processes: when a digest cache or derived
#: map exceeds this many entries it is dropped wholesale before the next
#: batch (workloads that keep injecting fresh keys — e.g. A2 dilution
#: sweeps — would otherwise grow the caches without bound).  Losing the
#: warm state once in a few million lookups costs one re-hash pass; the
#: bound keeps worst-case memory at cache ~hundreds of MB, not unbounded.
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

    The cache key is :func:`canonical_bytes` of the value — the exact
    pre-image fed to SHA-256 — so memoization can never conflate values the
    hash itself distinguishes.
    """

    __slots__ = (
        "key", "computed", "_cache", "_prefix", "_suffix", "_max_entries",
    )

    def __init__(self, key: bytes, max_entries: int = DEFAULT_MAX_ENTRIES):
        if not isinstance(key, bytes) or not key:
            raise TypeError("key must be non-empty bytes")
        self.key = key
        self._prefix = key + _SEPARATOR
        self._suffix = _SEPARATOR + key
        self._cache: dict[bytes, int] = {}
        self._max_entries = max_entries
        #: digests actually computed (cache misses) — perf-smoke telemetry
        self.computed = 0

    def __len__(self) -> int:
        return len(self._cache)

    def digest(self, value: Any) -> int:
        """``H(value, key)`` as a 256-bit integer (memoized)."""
        body = canonical_bytes(value)
        cached = self._cache.get(body)
        if cached is not None:
            return cached
        result = int.from_bytes(
            sha256(self._prefix + body + self._suffix).digest(), "big"
        )
        if len(self._cache) > self._max_entries:
            self._cache.clear()
        self._cache[body] = result
        self.computed += 1
        return result

    def digest_many(self, values: Iterable[Any]) -> list[int]:
        """``H(V, key)`` for a whole batch, canonical-encoding each value
        once and hashing only the cache misses.

        Duplicate values within one batch cost one redundant SHA-256 each
        (callers pass distinct values on the hot paths); the cache stays
        consistent either way because equal bodies hash equally.
        """
        large = (
            hasattr(values, "__len__")
            and len(values) >= GC_PAUSE_THRESHOLD  # type: ignore[arg-type]
            and gc.isenabled()
        )
        if not large:
            return self._digest_many(values)
        gc.disable()
        try:
            return self._digest_many(values)
        finally:
            gc.enable()

    def _digest_many(self, values: Iterable[Any]) -> list[int]:
        cache = self._cache
        if len(cache) > self._max_entries:
            cache.clear()
        canon = canonical_bytes
        if not cache:
            # Fully-cold batch (first contact with this key): every value
            # is a miss, so skip the per-value lookup bookkeeping entirely.
            bodies = [
                b"i:%d" % value if type(value) is int
                else b"s:" + value.encode("utf-8") if type(value) is str
                else canon(value)
                for value in values
            ]
            digests = self._compute(bodies)
            cache.update(zip(bodies, digests))
            self.computed += len(bodies)
            return digests
        out: list[int] = []
        append = out.append
        bodies: list[bytes] = []          # cache-miss pre-images, in order
        positions: list[int] = []         # their slots in `out`
        miss_body = bodies.append
        miss_position = positions.append
        cache_get = cache.get
        index = 0
        for value in values:
            # Inline the two dominant canonical encodings; exact type
            # checks keep bool/int and everything else on the exact
            # canonical_bytes path.
            kind = type(value)
            if kind is int:
                body = b"i:%d" % value
            elif kind is str:
                body = b"s:" + value.encode("utf-8")
            else:
                body = canon(value)
            cached = cache_get(body)
            if cached is None:
                miss_body(body)
                miss_position(index)
                append(0)
            else:
                append(cached)
            index += 1
        if not bodies:
            return out
        digests = self._compute(bodies)
        for body, position, result in zip(bodies, positions, digests):
            cache[body] = result
            out[position] = result
        self.computed += len(bodies)
        return out

    def _compute(self, bodies: list[bytes]) -> list[int]:
        prefix = self._prefix
        suffix = self._suffix
        from_bytes = int.from_bytes
        return [
            from_bytes(sha256(prefix + body + suffix).digest(), "big")
            for body in bodies
        ]


class HashEngine:
    """Columnar ``H(V, k1)``/``H(V, k2)`` evaluation for one key pair.

    The derived maps returned by :meth:`fitness_map`, :meth:`slot_map` and
    :meth:`pair_map` are *live, shared* dicts — callers must treat them as
    read-only.  They grow monotonically and are safe forever because every
    entry is a pure function of the (immutable) secret keys and the value.
    """

    __slots__ = (
        "key", "k1", "k2", "_fit", "_slots", "_pairs", "_max_entries",
        "_array_plans", "_max_plan_codes", "plan_arrays_built",
        "plan_array_hits",
    )

    def __init__(
        self,
        key: MarkKey,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        max_plan_codes: int = DEFAULT_MAX_PLAN_CODES,
    ):
        self.key = key
        self.k1 = KeyedDigestCache(key.k1, max_entries)
        self.k2 = KeyedDigestCache(key.k2, max_entries)
        self._fit: dict[int, dict[Hashable, bool]] = {}
        self._slots: dict[int, dict[Hashable, int]] = {}
        self._pairs: dict[int, dict[Hashable, int]] = {}
        self._max_entries = max_entries
        # Vector-backend plan arrays, cached per ColumnCodes *object*: a
        # factorization is immutable for the table version it was built
        # at, so identity-keyed entries can never go stale, and the weak
        # keys let arrays die with their table instead of pinning it.
        # LRU-bounded (max_plan_codes live factorizations) so that
        # workloads churning live codes objects cannot grow it unbounded.
        self._array_plans: "OrderedDict[weakref.ref, dict]" = OrderedDict()
        self._max_plan_codes = max_plan_codes
        #: telemetry: plan arrays actually materialized (perf smoke
        #: asserts a warm vector re-detection builds zero of them)
        self.plan_arrays_built = 0
        #: telemetry: plan-array requests answered from cache
        self.plan_array_hits = 0

    def _derived(
        self, store: dict[int, dict], parameter: int
    ) -> dict:
        """The derived map for ``parameter``, bounded by the entry cap."""
        derived = store.get(parameter)
        if derived is None:
            derived = store[parameter] = {}
        elif len(derived) > self._max_entries:
            derived.clear()
        return derived

    # -- telemetry --------------------------------------------------------
    @property
    def computed_digests(self) -> int:
        """Total SHA-256 evaluations this engine has actually performed."""
        return self.k1.computed + self.k2.computed

    # -- derived primitive maps (shared, persistent) -----------------------
    def fitness_map(
        self, values: Iterable[Hashable], e: int
    ) -> dict[Hashable, bool]:
        """``value -> (H(V, k1) mod e == 0)`` covering ``values``."""
        if e <= 0:
            raise ValueError(f"e must be positive, got {e}")
        derived = self._derived(self._fit, e)
        missing = [v for v in values if v not in derived]
        if missing:
            # setdefault: if a batch contains equal-comparing values of
            # different types (1/True), the first occurrence wins — the
            # same semantics as the reference implementation's scan caches.
            for value, digest in zip(missing, self.k1.digest_many(missing)):
                derived.setdefault(value, digest % e == 0)
        return derived

    def slot_map(
        self, values: Iterable[Hashable], channel_length: int
    ) -> dict[Hashable, int]:
        """``value -> msb(H(V, k2), b(L)) mod L`` covering ``values``."""
        if channel_length <= 0:
            raise ValueError(
                f"channel length must be positive, got {channel_length}"
            )
        derived = self._derived(self._slots, channel_length)
        missing = [v for v in values if v not in derived]
        if missing:
            width = bit_length(channel_length)
            for value, digest in zip(missing, self.k2.digest_many(missing)):
                derived.setdefault(value, msb(digest, width) % channel_length)
        return derived

    def pair_map(
        self, values: Iterable[Hashable], domain_size: int
    ) -> dict[Hashable, int]:
        """``value -> msb(H(V, k1), b(nA)) mod (nA // 2)`` covering
        ``values`` — the pair-coding secret of
        :func:`~repro.core.embedding.embedded_value_index`."""
        pairs = domain_size // 2
        if pairs <= 0:
            raise ValueError(
                f"domain of size {domain_size} has no usable value pairs"
            )
        derived = self._derived(self._pairs, domain_size)
        missing = [v for v in values if v not in derived]
        if missing:
            width = bit_length(domain_size)
            for value, digest in zip(missing, self.k1.digest_many(missing)):
                derived.setdefault(value, msb(digest, width) % pairs)
        return derived

    # -- list-shaped conveniences -----------------------------------------
    def fitness_mask(self, values: Iterable[Hashable], e: int) -> list[bool]:
        """Per-value fitness verdicts, aligned with ``values``."""
        values = list(values)
        table = self.fitness_map(values, e)
        return [table[v] for v in values]

    def slot_indices(
        self, values: Iterable[Hashable], channel_length: int
    ) -> list[int]:
        """Per-value ``wm_data`` slot indices, aligned with ``values``."""
        values = list(values)
        table = self.slot_map(values, channel_length)
        return [table[v] for v in values]

    def pair_indices(self, values: Iterable[Hashable], domain) -> list[int]:
        """Per-value pair indices, aligned with ``values``.

        ``domain`` may be a :class:`~repro.relational.CategoricalDomain`
        or a plain domain size.
        """
        size = domain if isinstance(domain, int) else domain.size
        values = list(values)
        table = self.pair_map(values, size)
        return [table[v] for v in values]

    # -- vector plan arrays (cached per column factorization) ---------------
    def _plan_store(self, codes) -> dict:
        """The (LRU-tracked) plan-array store for one factorization."""
        return _weak_lru_store(self._array_plans, codes, self._max_plan_codes)

    def fitness_array(self, codes, e: int):
        """Read-only bool array: per-unique fitness verdicts for a
        :class:`~repro.relational.table.ColumnCodes` factorization.

        Aligned with ``codes.uniques`` — gather per-row verdicts as
        ``fitness_array(codes, e)[codes.codes]``.  Built once per
        factorization from :meth:`fitness_map` (memoization semantics and
        digest accounting unchanged) and cached until the factorization
        dies, so a warm re-detection touches no per-value Python dict at
        all.
        """
        store = self._plan_store(codes)
        entry = store.get(("fit", e))
        if entry is not None:
            self.plan_array_hits += 1
            return entry
        import numpy as np

        uniques = codes.uniques
        table = self.fitness_map(uniques, e)
        entry = np.fromiter(
            (table[value] for value in uniques),
            dtype=np.bool_,
            count=len(uniques),
        )
        entry.setflags(write=False)
        store[("fit", e)] = entry
        self.plan_arrays_built += 1
        return entry

    def _fit_masked_array(self, codes, cache_key: tuple, e: int, map_for):
        """Shared fit-masked plan-array builder for slot/pair indices.

        Only *fit* uniques (under ``e``) are resolved through ``map_for``
        — exactly the values the scalar reference hashes — so digest
        counts match across backends; unfit entries hold 0 and must be
        masked by :meth:`fitness_array` before use.
        """
        store = self._plan_store(codes)
        entry = store.get(cache_key)
        if entry is not None:
            self.plan_array_hits += 1
            return entry
        import numpy as np

        fit = self.fitness_array(codes, e)
        fit_positions = np.flatnonzero(fit)
        uniques = codes.uniques
        fit_values = [uniques[i] for i in fit_positions.tolist()]
        table = map_for(fit_values)
        entry = np.zeros(len(uniques), dtype=np.int32)
        entry[fit_positions] = np.fromiter(
            (table[value] for value in fit_values),
            dtype=np.int32,
            count=len(fit_values),
        )
        entry.setflags(write=False)
        store[cache_key] = entry
        self.plan_arrays_built += 1
        return entry

    def slot_array(self, codes, channel_length: int, e: int):
        """Read-only int32 array: per-unique ``wm_data`` slot indices
        (fit-masked — see :meth:`_fit_masked_array`)."""
        return self._fit_masked_array(
            codes,
            ("slot", channel_length, e),
            e,
            lambda values: self.slot_map(values, channel_length),
        )

    def pair_array(self, codes, domain_size: int, e: int):
        """Read-only int32 array: per-unique pair indices (fit-masked —
        only carriers are ever pair-coded)."""
        return self._fit_masked_array(
            codes,
            ("pair", domain_size, e),
            e,
            lambda values: self.pair_map(values, domain_size),
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
        import numpy as np

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
        """Hit/miss/entry telemetry across every cache layer.

        Digest misses are SHA-256 evaluations actually performed; derived
        entries count memoized fitness/slot/pair verdicts; plan-array
        numbers cover the weak-keyed vector-backend caches (bounded by
        ``max_plan_codes``).  Surfaced in the bench JSON records.
        """
        return {
            "digest_entries": len(self.k1) + len(self.k2),
            "digests_computed": self.computed_digests,
            "derived_entries": {
                "fitness": sum(len(m) for m in self._fit.values()),
                "slot": sum(len(m) for m in self._slots.values()),
                "pair": sum(len(m) for m in self._pairs.values()),
            },
            "plan_codes_tracked": len(self._array_plans),
            "plan_arrays": sum(
                len(store) for store in self._array_plans.values()
            ),
            "plan_arrays_built": self.plan_arrays_built,
            "plan_array_hits": self.plan_array_hits,
        }

    # -- scalar conveniences ----------------------------------------------
    def is_fit(self, value: Hashable, e: int) -> bool:
        derived = self._fit.get(e)
        if derived is not None:
            cached = derived.get(value)
            if cached is not None:
                return cached
        return self.fitness_map((value,), e)[value]

    def slot_index(self, value: Hashable, channel_length: int) -> int:
        derived = self._slots.get(channel_length)
        if derived is not None:
            cached = derived.get(value)
            if cached is not None:
                return cached
        return self.slot_map((value,), channel_length)[value]

    def pair_index(self, value: Hashable, domain_size: int) -> int:
        derived = self._pairs.get(domain_size)
        if derived is not None:
            cached = derived.get(value)
            if cached is not None:
                return cached
        return self.pair_map((value,), domain_size)[value]


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
