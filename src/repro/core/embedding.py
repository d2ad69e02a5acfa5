"""Watermark embedding (§3.2.1, Figure 1).

For every *fit* tuple (``H(T(K), k1) mod e == 0``) the encoder replaces the
categorical value ``T(A)`` with ``a_t``, where ``t`` is a keyed
pseudo-random value whose least-significant bit is forced to a watermark
data bit::

    t = set_bit( msb(H(T(K), k1), b(nA)), 0,
                 wm_data[ msb(H(T(K), k2), b(N/e)) ] )

Two variants are implemented, matching Figure 1(a)/(b):

* ``keyed`` — the ``wm_data`` bit index is derived from ``H(T(K), k2)``.
  Fully blind and stateless: any surviving tuple can be decoded in
  isolation, which is what survives subset selection/addition.
* ``map`` — bit indices are assigned sequentially and remembered in an
  ``embedding_map`` (``T(K) -> index``).  No ``k2`` needed and no index
  collisions, at the price of keeping the map as detection input.

Realisation note (also in DESIGN.md): the raw ``set_bit(msb(...), 0, bit)``
construction can yield ``t >= nA``.  We realise the same construction as
*pair coding* — pair index ``p = msb(H(T(K), k1), b(nA)) mod floor(nA/2)``,
then ``t = 2p + bit`` — which keeps ``t`` valid for every ``nA >= 2`` while
preserving both the keyed pseudo-randomness of the value choice and the
``bit = t & 1`` decoding rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable

from ..crypto import (
    SCALAR,
    HashEngine,
    MarkKey,
    bit_length,
    keyed_hash,
    msb,
    resolve_backend,
)
from ..ecc import ErrorCorrectingCode, get_code
from ..quality import GuardReport, QualityGuard, permissive_guard
from ..relational import CategoricalDomain, Table
from . import kernels
from .errors import BandwidthError, SpecError
from .fitness import expected_bandwidth
from .watermark import Watermark

VARIANT_KEYED = "keyed"
VARIANT_MAP = "map"
_VARIANTS = (VARIANT_KEYED, VARIANT_MAP)


@dataclass(frozen=True)
class EmbeddingSpec:
    """Everything blind detection needs besides the secret keys.

    The spec is part of the owner's escrowed mark record: attribute roles,
    the encoding parameter ``e``, the watermark length, the channel length
    ``|wm_data|`` fixed at embedding time, and the ECC in use.
    """

    key_attribute: str
    mark_attribute: str
    e: int
    watermark_length: int
    channel_length: int
    ecc_name: str = "majority"
    variant: str = VARIANT_KEYED

    def __post_init__(self) -> None:
        if self.e <= 0:
            raise SpecError(f"e must be positive, got {self.e}")
        if self.watermark_length <= 0:
            raise SpecError(
                f"watermark length must be positive, got {self.watermark_length}"
            )
        if self.channel_length < self.watermark_length:
            raise SpecError(
                f"channel length {self.channel_length} cannot be smaller than "
                f"the watermark length {self.watermark_length}"
            )
        if self.variant not in _VARIANTS:
            raise SpecError(
                f"variant must be one of {_VARIANTS}, got {self.variant!r}"
            )
        if self.key_attribute == self.mark_attribute:
            raise SpecError("key and mark attributes must differ")

    def ecc(self) -> ErrorCorrectingCode:
        return get_code(self.ecc_name)

    def to_dict(self) -> dict[str, Any]:
        return {
            "key_attribute": self.key_attribute,
            "mark_attribute": self.mark_attribute,
            "e": self.e,
            "watermark_length": self.watermark_length,
            "channel_length": self.channel_length,
            "ecc_name": self.ecc_name,
            "variant": self.variant,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "EmbeddingSpec":
        try:
            return cls(**payload)
        except TypeError as exc:
            raise SpecError(f"malformed embedding spec: {exc}") from exc


@dataclass
class EmbeddingResult:
    """Report of one embedding pass."""

    spec: EmbeddingSpec
    fit_count: int
    applied: int
    vetoed: int
    unchanged: int
    slots_written: set[int] = field(default_factory=set)
    embedding_map: dict[Hashable, int] | None = None
    guard_report: GuardReport | None = None

    @property
    def slot_coverage(self) -> float:
        """Fraction of ``wm_data`` slots carried by at least one tuple."""
        if self.spec.channel_length == 0:
            return 0.0
        return len(self.slots_written) / self.spec.channel_length

    @property
    def alteration_fraction(self) -> float:
        """Fraction of fit tuples whose value actually changed."""
        if self.fit_count == 0:
            return 0.0
        return self.applied / self.fit_count


# -- keyed primitives shared with detection -------------------------------------

def slot_index(key_value: Hashable, k2: bytes, channel_length: int) -> int:
    """``msb(H(T(K), k2), b(|wm_data|))`` reduced into ``[0, |wm_data|)``."""
    if channel_length <= 0:
        raise SpecError(
            f"channel length must be positive, got {channel_length}"
        )
    return slot_index_from_digest(
        keyed_hash(key_value, k2), channel_length
    )


def slot_index_from_digest(digest: int, channel_length: int) -> int:
    """:func:`slot_index` with the ``H(T(K), k2)`` digest precomputed."""
    return msb(digest, bit_length(channel_length)) % channel_length


def value_pair_count(domain: CategoricalDomain) -> int:
    """Number of usable (even, odd) index pairs in the value domain."""
    return domain.size // 2


def embedded_value_index(
    key_value: Hashable, k1: bytes, bit: int, domain: CategoricalDomain
) -> int:
    """The value index ``t`` carrying ``bit`` for this tuple (pair coding)."""
    return embedded_value_index_from_digest(
        keyed_hash(key_value, k1), bit, domain
    )


def embedded_value_index_from_digest(
    digest: int, bit: int, domain: CategoricalDomain
) -> int:
    """:func:`embedded_value_index` with ``H(T(K), k1)`` precomputed.

    Fitness checking and value selection both consume the *same* ``k1``
    digest; threading it through halves the hash bill of the scalar
    embedding path.
    """
    pairs = value_pair_count(domain)
    if pairs == 0:
        raise BandwidthError(
            f"domain of size {domain.size} cannot carry a bit (need >= 2 values)"
        )
    secret = msb(digest, bit_length(domain.size))
    return 2 * (secret % pairs) + bit


def default_channel_length(tuple_count: int, e: int, watermark_length: int) -> int:
    """``|wm_data| = max(|wm|, N/e)`` — the paper's nominal bandwidth."""
    return max(watermark_length, expected_bandwidth(tuple_count, e))


def carrier_population(table: Table, key_attribute: str) -> int:
    """Number of candidate carriers for a given key attribute.

    For the declared primary key this is ``N``; for a §3.3 "primary key
    place-holder" it is the number of *distinct* values (each distinct fit
    value is one carrier, however many tuples share it), which is what the
    nominal bandwidth ``N/e`` must be computed from.
    """
    if key_attribute == table.primary_key:
        return len(table)
    position = table.schema.position(key_attribute)
    return len({row[position] for row in table})


# -- embedding ----------------------------------------------------------------

def make_spec(
    table: Table,
    watermark: Watermark,
    mark_attribute: str,
    e: int,
    key_attribute: str | None = None,
    channel_length: int | None = None,
    ecc_name: str = "majority",
    variant: str = VARIANT_KEYED,
) -> EmbeddingSpec:
    """Build an :class:`EmbeddingSpec` with the paper's defaults filled in."""
    resolved_key = key_attribute or table.primary_key
    if channel_length is None:
        channel_length = default_channel_length(
            carrier_population(table, resolved_key), e, len(watermark)
        )
    spec = EmbeddingSpec(
        key_attribute=resolved_key,
        mark_attribute=mark_attribute,
        e=e,
        watermark_length=len(watermark),
        channel_length=channel_length,
        ecc_name=ecc_name,
        variant=variant,
    )
    _validate_against_table(spec, table)
    return spec


def _validate_against_table(spec: EmbeddingSpec, table: Table) -> None:
    attribute = table.schema.attribute(spec.mark_attribute)
    if not attribute.is_categorical:
        raise SpecError(
            f"mark attribute {spec.mark_attribute!r} is not categorical"
        )
    assert attribute.domain is not None
    if value_pair_count(attribute.domain) == 0:
        raise BandwidthError(
            f"attribute {spec.mark_attribute!r} has a single-value domain; "
            f"no embedding bandwidth (§3.3 note)"
        )
    table.schema.position(spec.key_attribute)  # raises if unknown


def embed(
    table: Table,
    watermark: Watermark,
    key: MarkKey,
    spec: EmbeddingSpec,
    guard: QualityGuard | None = None,
    engine: HashEngine | str | None = None,
) -> EmbeddingResult:
    """Embed ``watermark`` into ``table`` **in place** under ``spec``.

    Returns a report with carrier statistics and, for the ``map`` variant,
    the embedding map needed at detection time.  Pass a bound
    :class:`QualityGuard` to enforce usability constraints with rollback;
    without one a permissive guard is used (all changes logged, none vetoed).

    ``engine`` selects the execution backend: ``None`` /
    :data:`~repro.crypto.VECTOR` run the NumPy vector kernels on the
    shared :class:`HashEngine` for ``key``, an explicit engine instance
    runs them on that instance, and :data:`~repro.crypto.SCALAR` forces
    the row-at-a-time reference.  Both backends are bit-identical.
    """
    _validate_against_table(spec, table)
    if len(watermark) != spec.watermark_length:
        raise SpecError(
            f"watermark has {len(watermark)} bits, spec says "
            f"{spec.watermark_length}"
        )
    domain = table.schema.attribute(spec.mark_attribute).domain
    assert domain is not None

    ecc = spec.ecc()
    wm_data = ecc.encode(watermark.bits, spec.channel_length)

    if guard is None:
        guard = permissive_guard()
        guard.bind(table)
    elif guard.context.table is not table:
        raise SpecError("guard is bound to a different table")

    result = EmbeddingResult(
        spec=spec,
        fit_count=0,
        applied=0,
        vetoed=0,
        unchanged=0,
        embedding_map={} if spec.variant == VARIANT_MAP else None,
        guard_report=guard.report,
    )

    if engine != SCALAR:
        return kernels.embed_vector(
            table,
            spec,
            domain,
            wm_data,
            guard,
            result,
            resolve_backend(engine, key),
        )

    carriers, carrier_pks, carrier_value, digests = _gather_scalar(
        table, key, spec
    )
    sequential_index = 0
    for key_value in carriers:
        result.fit_count += 1
        if spec.variant == VARIANT_KEYED:
            slot = slot_index(key_value, key.k2, spec.channel_length)
        else:
            slot = sequential_index % spec.channel_length
            assert result.embedding_map is not None
            result.embedding_map[key_value] = slot
            sequential_index += 1
        bit = wm_data[slot]
        target_index = embedded_value_index_from_digest(
            digests[key_value], bit, domain
        )
        new_value = domain.value_at(target_index)

        if carrier_value[key_value] == new_value:
            result.unchanged += 1
            result.slots_written.add(slot)
            continue
        applied_any = guard.apply_group(
            carrier_pks[key_value], spec.mark_attribute, new_value
        )
        if applied_any:
            result.applied += 1
            result.slots_written.add(slot)
        else:
            result.vetoed += 1
    return result


def _gather_scalar(
    table: Table, key: MarkKey, spec: EmbeddingSpec
) -> tuple[
    list[Hashable],
    dict[Hashable, list[Hashable]],
    dict[Hashable, Any],
    dict[Hashable, int],
]:
    """Reference carrier scan: row-at-a-time, one ``keyed_hash`` per
    distinct key value (the digest is kept and threaded to the value
    choice, so fitness and pair coding share a single hash).

    Maps each distinct key value to the primary keys of its carrier
    tuples.  For the declared primary key this is 1:1; for a non-key
    "primary key place-holder" (§3.3) every tuple sharing the value is
    rewritten so the (key value -> mark value) association is consistent
    at detection.  One pass; embedding then never rescans the table.
    """
    key_position = table.schema.position(spec.key_attribute)
    pk_position = table.schema.position(table.primary_key)
    mark_position = table.schema.position(spec.mark_attribute)
    carrier_pks: dict[Hashable, list[Hashable]] = {}
    carrier_value: dict[Hashable, Any] = {}
    digests: dict[Hashable, int] = {}
    carriers: list[Hashable] = []
    unfit: set[Hashable] = set()
    for row in table:
        key_value = row[key_position]
        if key_value in carrier_pks:
            carrier_pks[key_value].append(row[pk_position])
            continue
        if key_value in unfit:
            continue
        digest = keyed_hash(key_value, key.k1)
        if digest % spec.e == 0:
            carrier_pks[key_value] = [row[pk_position]]
            carrier_value[key_value] = row[mark_position]
            digests[key_value] = digest
            carriers.append(key_value)
        else:
            unfit.add(key_value)
    return carriers, carrier_pks, carrier_value, digests
