"""Blind watermark detection (§3.2.2, Figure 2).

Detection re-runs the secret fitness criterion on the *suspect* relation,
reads one bit per fit tuple (``bit = t & 1`` where ``T(A) = a_t``), routes
it to its ``wm_data`` slot (via ``H(T(K), k2)`` or the embedding map), and
majority-decodes the slots back into the watermark.  No original data is
consulted — "mark detection is fully blind", the property the paper calls
out as essential for massive data sets.

Statistical verdicts follow §4.4: the probability that a *random* relation
of this size would match ``r`` of ``|wm|`` watermark bits is the binomial
tail ``P(Binom(|wm|, 1/2) >= r)``; a detection is declared when that
false-hit probability falls below the court-time threshold.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Hashable

from ..crypto import SCALAR, HashEngine, MarkKey, keyed_hash, resolve_backend
from ..ecc import DecodeResult
from ..relational import CategoricalDomain, Table
from . import kernels
from .embedding import EmbeddingSpec, VARIANT_KEYED, VARIANT_MAP, slot_index
from .errors import DetectionError
from .watermark import Watermark

#: default court-time threshold on the false-hit probability
DEFAULT_SIGNIFICANCE = 0.01


@dataclass(frozen=True)
class DetectionResult:
    """Outcome of blind extraction from a suspect relation."""

    watermark: Watermark
    decode: DecodeResult
    fit_count: int
    slots_recovered: int
    channel_length: int

    @property
    def slot_coverage(self) -> float:
        """Fraction of ``wm_data`` slots recovered from surviving carriers."""
        if self.channel_length == 0:
            return 0.0
        return self.slots_recovered / self.channel_length

    @property
    def mean_confidence(self) -> float:
        """Mean per-bit majority agreement (1.0 = unanimous votes)."""
        if not self.decode.confidence:
            return 0.0
        return sum(self.decode.confidence) / len(self.decode.confidence)


@dataclass(frozen=True)
class VerificationResult:
    """Comparison of a detection against the owner's claimed watermark."""

    detection: DetectionResult
    expected: Watermark
    matching_bits: int
    false_hit_probability: float
    significance: float

    @property
    def detected(self) -> bool:
        """True when the match is too good to be chance at ``significance``."""
        return self.false_hit_probability <= self.significance

    @property
    def mark_alteration(self) -> float:
        """Fraction of watermark bits damaged — the Figures 4–7 y-axis."""
        return 1.0 - self.matching_bits / len(self.expected)

    def summary(self) -> str:
        return (
            f"matched {self.matching_bits}/{len(self.expected)} bits "
            f"(alteration {self.mark_alteration:.1%}), false-hit probability "
            f"{self.false_hit_probability:.3g} -> "
            f"{'DETECTED' if self.detected else 'not detected'}"
        )


@dataclass
class SlotVotes:
    """Raw per-slot vote tallies of one detection scan (or one chunk).

    The sufficient statistic behind slot resolution: per slot, the total
    vote count, the count of 1-votes, and the *first* vote in physical row
    order (``None`` when the slot was never addressed) — exactly what the
    majority-with-first-vote-tie-break rule consumes.  Tallies are
    associative, which is what makes detection streamable: chunk tallies
    merged in chunk order (:class:`VoteAccumulator`) resolve bit-identically
    to one scan of the concatenated rows.
    """

    total: list[int]
    ones: list[int]
    first: list[int | None]
    fit_count: int

    @classmethod
    def from_arrays(cls, zeros, ones, firsts, fit_count: int) -> "SlotVotes":
        """Adopt a vector-kernel tally (``firsts`` uses ``-1`` for None)."""
        zeros = zeros.tolist()
        ones = ones.tolist()
        return cls(
            total=[z + o for z, o in zip(zeros, ones)],
            ones=ones,
            first=[None if f < 0 else f for f in firsts.tolist()],
            fit_count=fit_count,
        )

    def resolve(self) -> tuple[list[int | None], int]:
        """``(slots, fit_count)`` under the majority / first-vote rule."""
        slots: list[int | None] = []
        for total, ones, first in zip(self.total, self.ones, self.first):
            if not total:
                slots.append(None)
                continue
            slots.append(1 if ones * 2 > total else
                         0 if ones * 2 < total else first)
        return slots, self.fit_count


class VoteAccumulator:
    """Order-preserving merge of per-chunk :class:`SlotVotes`.

    The streaming detection state: O(channel length) integers, independent
    of how many rows flow past.  Chunks must be added in physical row
    order — the first chunk to address a slot contributes the slot's first
    vote, which preserves the global first-vote tie rule of a one-shot
    scan over the concatenated relation.
    """

    def __init__(self, channel_length: int):
        if channel_length <= 0:
            raise DetectionError(
                f"channel length must be positive, got {channel_length}"
            )
        self.channel_length = channel_length
        self._total = [0] * channel_length
        self._ones = [0] * channel_length
        self._first: list[int | None] = [None] * channel_length
        self._fit_count = 0
        self.chunks_merged = 0

    def add(self, votes: SlotVotes) -> None:
        """Merge the next chunk's tallies (chunks arrive in row order)."""
        if len(votes.total) != self.channel_length:
            raise DetectionError(
                f"chunk tallies cover {len(votes.total)} slots, "
                f"accumulator expects {self.channel_length}"
            )
        total = self._total
        ones = self._ones
        first = self._first
        for slot, count in enumerate(votes.total):
            if not count:
                continue
            total[slot] += count
            ones[slot] += votes.ones[slot]
            if first[slot] is None:
                first[slot] = votes.first[slot]
        self._fit_count += votes.fit_count
        self.chunks_merged += 1

    @property
    def fit_count(self) -> int:
        return self._fit_count

    def votes(self) -> SlotVotes:
        """The merged tallies so far (a snapshot copy)."""
        return SlotVotes(
            total=list(self._total),
            ones=list(self._ones),
            first=list(self._first),
            fit_count=self._fit_count,
        )

    def resolve(self) -> tuple[list[int | None], int]:
        """``(slots, fit_count)`` over everything merged so far."""
        return self.votes().resolve()

    def detection(self, spec: EmbeddingSpec, ecc=None) -> DetectionResult:
        """Decode the accumulated votes into a :class:`DetectionResult`."""
        slots, fit_count = self.resolve()
        return _assemble_detection(spec, slots, fit_count, ecc=ecc)

    def verification(
        self,
        spec: EmbeddingSpec,
        expected: Watermark,
        significance: float = DEFAULT_SIGNIFICANCE,
    ) -> VerificationResult:
        """Compare the accumulated detection against the owner's claim."""
        if len(expected) != spec.watermark_length:
            raise DetectionError(
                f"expected watermark has {len(expected)} bits, spec says "
                f"{spec.watermark_length}"
            )
        return _assemble_verification(
            self.detection(spec), expected, significance
        )


def _resolve_domain(
    table: Table,
    spec: EmbeddingSpec,
    embedding_map: dict[Hashable, int] | None,
    domain: CategoricalDomain | None,
) -> CategoricalDomain:
    """Shared input validation of every slot-recovery entry point."""
    if spec.variant == VARIANT_MAP and embedding_map is None:
        raise DetectionError(
            "the 'map' variant needs the embedding_map recorded at embedding"
        )
    resolved = domain or table.schema.attribute(spec.mark_attribute).domain
    if resolved is None:
        raise DetectionError(
            f"no categorical domain available for {spec.mark_attribute!r}"
        )
    return resolved


def extract_slots(
    table: Table,
    key: MarkKey,
    spec: EmbeddingSpec,
    embedding_map: dict[Hashable, int] | None = None,
    domain: CategoricalDomain | None = None,
    value_mapping: dict[Hashable, Hashable] | None = None,
    engine: HashEngine | str | None = None,
) -> tuple[list[int | None], int]:
    """Recover the ``wm_data`` slots from the suspect relation.

    Returns ``(slots, fit_count)`` where ``slots[i]`` is the majority of the
    bits recovered for slot ``i`` (``None`` when no surviving tuple
    addressed it).  ``domain`` overrides the canonical value ordering when
    the suspect schema lost it (e.g. after CSV round-trips); values outside
    the domain — which a remapping attack produces — are skipped, not
    errors, so partial recovery still counts.  ``value_mapping`` translates
    suspect values back to original-domain values before decoding — the
    inverse map of §4.5 remapping recovery (entries mapping to the
    :data:`~repro.core.remapping.UNRECOVERED` sentinel fall outside the
    domain and are skipped).

    ``engine`` selects the execution backend exactly as in
    :func:`repro.core.embedding.embed` (SCALAR, VECTOR / ``None``, or an
    explicit :class:`HashEngine` for VECTOR); with a shared engine a
    repeated detection of the same relation (attack sweeps, benchmarks)
    re-hashes nothing at all, and the per-row work runs as NumPy gathers
    over cached column codes.
    """
    resolved_domain = _resolve_domain(table, spec, embedding_map, domain)

    if engine != SCALAR:
        return kernels.extract_slots_vector(
            table,
            spec,
            resolved_domain,
            embedding_map,
            value_mapping,
            resolve_backend(engine, key),
        )
    return _scan_votes(
        table, key, spec, embedding_map, resolved_domain, value_mapping
    ).resolve()


def extract_slot_votes(
    table: Table,
    key: MarkKey,
    spec: EmbeddingSpec,
    embedding_map: dict[Hashable, int] | None = None,
    domain: CategoricalDomain | None = None,
    value_mapping: dict[Hashable, Hashable] | None = None,
    engine: HashEngine | str | None = None,
) -> SlotVotes:
    """:func:`extract_slots` stopped one step short of resolution.

    Returns the raw per-slot tallies (:class:`SlotVotes`) instead of the
    resolved slots — the accumulator-based entry point streamed detection
    is built on: a :class:`VoteAccumulator` merges per-chunk tallies and
    resolves once at the end, bit-identically to an in-memory
    :func:`extract_slots` over the concatenated rows.  Backend selection
    matches :func:`extract_slots` exactly.
    """
    resolved_domain = _resolve_domain(table, spec, embedding_map, domain)
    if engine != SCALAR:
        return SlotVotes.from_arrays(
            *kernels.extract_votes_vector(
                table,
                spec,
                resolved_domain,
                embedding_map,
                value_mapping,
                resolve_backend(engine, key),
            )
        )
    return _scan_votes(
        table, key, spec, embedding_map, resolved_domain, value_mapping
    )


def _scan_votes(
    table: Table,
    key: MarkKey,
    spec: EmbeddingSpec,
    embedding_map: dict[Hashable, int] | None,
    resolved_domain: CategoricalDomain,
    value_mapping: dict[Hashable, Hashable] | None,
) -> SlotVotes:
    """The SCALAR row scan, tallying votes without resolving them.

    Count-based voting: per-slot (total, ones, first-vote) tallies
    replace the list-of-vote-lists — same majority and same first-vote
    tie-break, without materializing a Python list per slot.  This loop
    runs once per attack-sweep cell, so its constant factor is the
    detection share of a sweep's wall time.
    """
    votes_total = [0] * spec.channel_length
    votes_ones = [0] * spec.channel_length
    votes_first: list[int | None] = [None] * spec.channel_length
    fit_count = 0
    fit, slot_of = _scan_scalar(table, key, spec)

    keyed_variant = spec.variant == VARIANT_KEYED
    in_domain = resolved_domain.__contains__
    index_of = resolved_domain.index_of
    for key_value, value in zip(
        table.column_view(spec.key_attribute),
        table.column_view(spec.mark_attribute),
    ):
        if not fit[key_value]:
            continue
        fit_count += 1
        if value_mapping is not None:
            value = value_mapping.get(value, value)
        if not in_domain(value):
            continue
        bit = index_of(value) & 1
        if keyed_variant:
            assert slot_of is not None
            slot = slot_of[key_value]
        else:
            assert embedding_map is not None
            if key_value not in embedding_map:
                continue
            slot = embedding_map[key_value]
            if not 0 <= slot < spec.channel_length:
                raise DetectionError(
                    f"embedding map entry {slot} outside channel "
                    f"[0, {spec.channel_length})"
                )
        votes_total[slot] += 1
        votes_ones[slot] += bit
        if votes_first[slot] is None:
            votes_first[slot] = bit

    return SlotVotes(votes_total, votes_ones, votes_first, fit_count)


def _scan_scalar(
    table: Table, key: MarkKey, spec: EmbeddingSpec
) -> tuple[dict[Hashable, bool], dict[Hashable, int] | None]:
    """Reference pre-scan: per-distinct-value fitness and slot caches.

    One ``k1`` hash per distinct key value, and (keyed variant) one ``k2``
    hash per distinct *fit* value — a §3.3 place-holder key's duplicate
    rows share the cached slot instead of re-hashing per row.
    """
    fit: dict[Hashable, bool] = {}
    slot_of: dict[Hashable, int] | None = (
        {} if spec.variant == VARIANT_KEYED else None
    )
    for key_value in table.iter_cells(spec.key_attribute):
        if key_value in fit:
            continue
        is_fit = keyed_hash(key_value, key.k1) % spec.e == 0
        fit[key_value] = is_fit
        if is_fit and slot_of is not None:
            slot_of[key_value] = slot_index(
                key_value, key.k2, spec.channel_length
            )
    return fit, slot_of


def _assemble_detection(
    spec: EmbeddingSpec, slots: list[int | None], fit_count: int, ecc=None
) -> DetectionResult:
    """Decode recovered slots into a :class:`DetectionResult`.

    The single assembly point behind :func:`detect` and the fused
    :func:`verify_multipass` — one place to grow, so the multi-pass path
    can never drift from the single-pass one.
    """
    decode = (ecc or spec.ecc()).decode(slots, spec.watermark_length)
    return DetectionResult(
        watermark=Watermark(decode.bits),
        decode=decode,
        fit_count=fit_count,
        slots_recovered=sum(slot is not None for slot in slots),
        channel_length=spec.channel_length,
    )


def _assemble_verification(
    detection: DetectionResult, expected: Watermark, significance: float
) -> VerificationResult:
    """Compare a detection against the claim (shared verdict assembly)."""
    matches = expected.matching_bits(detection.watermark)
    return VerificationResult(
        detection=detection,
        expected=expected,
        matching_bits=matches,
        false_hit_probability=false_hit_probability(matches, len(expected)),
        significance=significance,
    )


def detect(
    table: Table,
    key: MarkKey,
    spec: EmbeddingSpec,
    embedding_map: dict[Hashable, int] | None = None,
    domain: CategoricalDomain | None = None,
    value_mapping: dict[Hashable, Hashable] | None = None,
    engine: HashEngine | str | None = None,
) -> DetectionResult:
    """Blindly extract the most likely watermark from ``table``."""
    slots, fit_count = extract_slots(
        table, key, spec, embedding_map, domain, value_mapping, engine
    )
    return _assemble_detection(spec, slots, fit_count)


@lru_cache(maxsize=4096)
def _fair_binomial_tail(matching_bits: int, watermark_length: int) -> float:
    """Exact ``P[Binom(n, 1/2) >= r]`` via integer combinatorics.

    ``sum(C(n, k) for k >= r) / 2**n`` computed in exact integer
    arithmetic and rounded once at the final division — replacing the
    ``scipy.stats.binom.sf`` call so that detection (and every sweep-pool
    worker importing it at startup) carries no scipy dependency.  Agrees
    with scipy to the last few ulps (cross-checked to 1e-12 by
    ``tests/core/test_detection.py``); memoized because verdicts query the
    same ``(r, |wm|)`` pairs thousands of times per sweep.
    """
    if matching_bits <= 0:
        return 1.0
    tail = sum(
        comb(watermark_length, hits)
        for hits in range(matching_bits, watermark_length + 1)
    )
    return tail / (1 << watermark_length)


def false_hit_probability(matching_bits: int, watermark_length: int) -> float:
    """``P[Binom(|wm|, 1/2) >= matching_bits]`` — §4.4's court-time test.

    With every bit matched this is the paper's ``(1/2)^|wm|``.
    """
    if not 0 <= matching_bits <= watermark_length:
        raise DetectionError(
            f"matching bits {matching_bits} outside [0, {watermark_length}]"
        )
    return _fair_binomial_tail(matching_bits, watermark_length)


def extract_slots_multipass(
    tables: Sequence[Table],
    keys: Sequence[MarkKey],
    spec: EmbeddingSpec,
    embedding_maps: Sequence[dict[Hashable, int] | None] | None = None,
    domain: CategoricalDomain | None = None,
    value_mapping: dict[Hashable, Hashable] | None = None,
    engine: HashEngine | str | None = None,
) -> list[tuple[list[int | None], int]]:
    """:func:`extract_slots` for P keyed passes over one shared spec.

    Routes through the fused :func:`repro.core.kernels.detect_multipass`
    kernel — one carrier gather + one ``bincount`` for all passes — when
    the backend is VECTOR and every suspect relation shares one
    key-column factorization object (the §5 sweep-cell regime: attacked
    clones of one base).  Otherwise it degrades to per-pass
    :func:`extract_slots` calls; both routes are bit-identical.
    """
    tables = list(tables)
    keys = list(keys)
    if len(tables) != len(keys):
        raise DetectionError(
            f"{len(tables)} suspect relations but {len(keys)} keys"
        )
    maps: Sequence[dict[Hashable, int] | None]
    maps = list(embedding_maps) if embedding_maps is not None else [None] * len(tables)
    if len(maps) != len(tables):
        raise DetectionError(
            f"{len(tables)} suspect relations but {len(maps)} embedding maps"
        )
    if spec.variant == VARIANT_MAP and any(m is None for m in maps):
        raise DetectionError(
            "the 'map' variant needs the embedding_map recorded at embedding"
        )
    if (
        len(tables) > 1
        and engine != SCALAR
        and kernels.shared_key_codes(tables, spec.key_attribute) is not None
    ):
        domains = []
        for table in tables:
            resolved = (
                domain or table.schema.attribute(spec.mark_attribute).domain
            )
            if resolved is None:
                raise DetectionError(
                    f"no categorical domain available for "
                    f"{spec.mark_attribute!r}"
                )
            domains.append(resolved)
        engines = [resolve_backend(engine, key) for key in keys]
        return kernels.detect_multipass(
            tables,
            spec,
            domains,
            maps if spec.variant == VARIANT_MAP else None,
            value_mapping,
            engines,
        )
    return [
        extract_slots(
            table, key, spec, embedding_map, domain, value_mapping, engine
        )
        for table, key, embedding_map in zip(tables, keys, maps)
    ]


def verify_multipass(
    tables: Sequence[Table],
    keys: Sequence[MarkKey],
    spec: EmbeddingSpec,
    expecteds: Sequence[Watermark],
    embedding_maps: Sequence[dict[Hashable, int] | None] | None = None,
    domain: CategoricalDomain | None = None,
    value_mapping: dict[Hashable, Hashable] | None = None,
    significance: float = DEFAULT_SIGNIFICANCE,
    engine: HashEngine | str | None = None,
) -> list[VerificationResult]:
    """Verify P keyed passes of one spec in a single fused detection.

    The multi-pass entry point behind the §5 evaluation protocol (and the
    sweep engine's warm cells): pass ``p`` is verified on ``tables[p]``
    under ``keys[p]`` against ``expecteds[p]``.  Results — detection,
    matching bits, false-hit probability, verdict — are bit-identical to
    a loop of :func:`verify` calls; only the execution fuses.
    """
    expecteds = list(expecteds)
    if len(expecteds) != len(tables):
        raise DetectionError(
            f"{len(tables)} suspect relations but {len(expecteds)} "
            f"expected watermarks"
        )
    for expected in expecteds:
        if len(expected) != spec.watermark_length:
            raise DetectionError(
                f"expected watermark has {len(expected)} bits, spec says "
                f"{spec.watermark_length}"
            )
    recovered = extract_slots_multipass(
        tables, keys, spec, embedding_maps, domain, value_mapping, engine
    )
    ecc = spec.ecc()
    return [
        _assemble_verification(
            _assemble_detection(spec, slots, fit_count, ecc=ecc),
            expected,
            significance,
        )
        for expected, (slots, fit_count) in zip(expecteds, recovered)
    ]


def verify(
    table: Table,
    key: MarkKey,
    spec: EmbeddingSpec,
    expected: Watermark,
    embedding_map: dict[Hashable, int] | None = None,
    domain: CategoricalDomain | None = None,
    value_mapping: dict[Hashable, Hashable] | None = None,
    significance: float = DEFAULT_SIGNIFICANCE,
    engine: HashEngine | str | None = None,
) -> VerificationResult:
    """Detect and compare against the owner's claimed watermark."""
    if len(expected) != spec.watermark_length:
        raise DetectionError(
            f"expected watermark has {len(expected)} bits, spec says "
            f"{spec.watermark_length}"
        )
    detection = detect(
        table, key, spec, embedding_map, domain, value_mapping, engine
    )
    return _assemble_verification(detection, expected, significance)
