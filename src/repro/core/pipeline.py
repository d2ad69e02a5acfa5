"""High-level facade: the owner's mark/verify workflow.

:class:`Watermarker` ties the pieces into the workflow a rights holder
actually runs:

1. ``embed`` — clone the relation, watermark it (optionally under quality
   constraints, optionally reinforced by data addition and a
   frequency-domain mark), and return the marked relation plus a
   :class:`MarkRecord`;
2. escrow the :class:`MarkRecord` (JSON) and the secret :class:`MarkKey`;
3. much later, ``verify`` a suspect relation blindly from just those two.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Hashable

from ..crypto import (
    BACKENDS,
    SCALAR,
    VECTOR,
    HashEngine,
    MarkKey,
    resolve_engine,
)
from ..quality import Constraint, QualityGuard
from ..relational import Table
from . import kernels
from .addition import AdditionResult, add_watermarked_tuples
from .detection import VerificationResult, verify
from .embedding import EmbeddingResult, EmbeddingSpec, embed, make_spec
from .errors import DetectionError, SpecError
from .frequency import (
    FrequencyMarkRecord,
    FrequencyVerification,
    embed_frequency,
    verify_frequency,
)
from .remapping import FrequencyProfile, recover_mapping
from .watermark import Watermark


@dataclass
class MarkRecord:
    """Everything the owner escrows besides the secret key.

    Contains **no secret material**: keys stay in :class:`MarkKey`.  It does
    contain the claimed watermark — the record *is* the ownership claim that
    will be compared against the blind detection result in court.
    """

    watermark: Watermark
    spec: EmbeddingSpec
    embedding_map: dict[Hashable, int] | None = None
    frequency_record: FrequencyMarkRecord | None = None
    frequency_profile: FrequencyProfile | None = None
    domain_values: tuple[Hashable, ...] | None = None
    metadata: dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> str:
        payload: dict[str, Any] = {
            "watermark": self.watermark.to_bitstring(),
            "spec": self.spec.to_dict(),
            "metadata": self.metadata,
        }
        if self.domain_values is not None:
            payload["domain_values"] = list(self.domain_values)
        if self.embedding_map is not None:
            payload["embedding_map"] = [
                [key, slot] for key, slot in self.embedding_map.items()
            ]
        if self.frequency_record is not None:
            payload["frequency_record"] = self.frequency_record.to_dict()
        if self.frequency_profile is not None:
            payload["frequency_profile"] = self.frequency_profile.to_dict()
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "MarkRecord":
        payload = json.loads(text)
        try:
            record = cls(
                watermark=Watermark(int(b) for b in payload["watermark"]),
                spec=EmbeddingSpec.from_dict(payload["spec"]),
                metadata=payload.get("metadata", {}),
            )
        except (KeyError, ValueError) as exc:
            raise SpecError(f"malformed mark record: {exc}") from exc
        if "domain_values" in payload:
            record.domain_values = tuple(payload["domain_values"])
        if "embedding_map" in payload:
            record.embedding_map = {
                _freeze_key(key): slot for key, slot in payload["embedding_map"]
            }
        if "frequency_record" in payload:
            record.frequency_record = FrequencyMarkRecord.from_dict(
                payload["frequency_record"]
            )
        if "frequency_profile" in payload:
            record.frequency_profile = FrequencyProfile.from_dict(
                payload["frequency_profile"]
            )
        return record


def _freeze_key(key: Any) -> Hashable:
    return tuple(key) if isinstance(key, list) else key


@dataclass
class EmbedOutcome:
    """Marked relation plus all per-channel reports."""

    table: Table
    record: MarkRecord
    embedding: EmbeddingResult
    addition: AdditionResult | None = None
    frequency: Any = None  # FrequencyEmbeddingResult when enabled


@dataclass
class VerifyOutcome:
    """Combined verdict over the association and frequency channels."""

    association: VerificationResult | None
    frequency: FrequencyVerification | None

    @property
    def detected(self) -> bool:
        channels = [c for c in (self.association, self.frequency) if c is not None]
        return any(channel.detected for channel in channels)

    def summary(self) -> str:
        lines = []
        if self.association is not None:
            lines.append(f"association channel: {self.association.summary()}")
        if self.frequency is not None:
            freq = self.frequency
            lines.append(
                f"frequency channel  : matched "
                f"{freq.matching_bits}/{len(freq.expected)} bits, "
                f"false-hit probability {freq.false_hit_probability:.3g} -> "
                f"{'DETECTED' if freq.detected else 'not detected'}"
            )
        lines.append(
            f"overall            : "
            f"{'DETECTED' if self.detected else 'not detected'}"
        )
        return "\n".join(lines)


class Watermarker:
    """The owner's end-to-end categorical watermarking workflow."""

    def __init__(
        self,
        key: MarkKey,
        e: int = 60,
        ecc_name: str = "majority",
        variant: str = "keyed",
        significance: float = 0.01,
        engine: HashEngine | str | None = None,
    ):
        """``engine`` selects the execution backend for every embed/verify
        this instance runs.  ``None`` / :data:`~repro.crypto.VECTOR`
        (default) run the vector kernels on the process-wide shared
        :class:`HashEngine` for ``key``, so embedding warms the caches
        detection then reads for free; an explicit :class:`HashEngine`
        instance runs them on that instance, and
        :data:`~repro.crypto.SCALAR` forces the row-at-a-time
        reference."""
        if e <= 0:
            raise SpecError(f"e must be positive, got {e}")
        self.key = key
        self.e = e
        self.ecc_name = ecc_name
        self.variant = variant
        self.significance = significance
        if engine is None:
            self.engine: HashEngine | str = VECTOR
        elif isinstance(engine, str):
            if engine not in BACKENDS:
                raise SpecError(
                    f"backend must be one of {BACKENDS}, got {engine!r}"
                )
            self.engine = engine
        else:
            self.engine = resolve_engine(engine, key)

    # -- embedding ---------------------------------------------------------
    def embed(
        self,
        table: Table,
        watermark: Watermark,
        mark_attribute: str,
        key_attribute: str | None = None,
        constraints: list[Constraint] | None = None,
        channel_length: int | None = None,
        p_add: float = 0.0,
        with_frequency_channel: bool = False,
        frequency_quantum: float | None = None,
    ) -> EmbedOutcome:
        """Watermark a copy of ``table``; the input is never mutated."""
        if self.engine != SCALAR:
            # Factorize on the *base* relation first: the clone below
            # inherits the column codes copy-on-write, so repeated embeds
            # of one base (sweeps, benches) never re-factorize, and the
            # engine's plan arrays — keyed by these shared codes objects —
            # stay warm across passes.
            kernels.warm_codes(
                table, key_attribute or table.primary_key, mark_attribute
            )
        marked = table.clone(name=f"{table.name}_marked")
        spec = make_spec(
            marked,
            watermark,
            mark_attribute=mark_attribute,
            e=self.e,
            key_attribute=key_attribute,
            channel_length=channel_length,
            ecc_name=self.ecc_name,
            variant=self.variant,
        )
        guard = QualityGuard(list(constraints or []))
        guard.bind(marked)
        embedding = embed(
            marked, watermark, self.key, spec, guard=guard, engine=self.engine
        )

        addition = None
        if p_add > 0.0:
            addition = add_watermarked_tuples(
                marked, watermark, self.key, spec, p_add
            )

        frequency_result = None
        frequency_record = None
        if with_frequency_channel:
            frequency_guard = QualityGuard(list(constraints or []))
            frequency_guard.bind(marked)
            frequency_result = embed_frequency(
                marked,
                watermark,
                self.key,
                mark_attribute,
                quantum=frequency_quantum,
                guard=frequency_guard,
            )
            frequency_record = frequency_result.record

        domain = marked.schema.attribute(mark_attribute).domain
        record = MarkRecord(
            watermark=watermark,
            spec=spec,
            embedding_map=embedding.embedding_map,
            frequency_record=frequency_record,
            frequency_profile=FrequencyProfile.capture(marked, mark_attribute),
            domain_values=domain.values if domain is not None else None,
            metadata={"source": table.name, "tuples": len(marked)},
        )
        return EmbedOutcome(
            table=marked,
            record=record,
            embedding=embedding,
            addition=addition,
            frequency=frequency_result,
        )

    # -- verification -------------------------------------------------------
    def verify(
        self,
        suspect: Table,
        record: MarkRecord,
        try_remap_recovery: bool = False,
    ) -> VerifyOutcome:
        """Blindly verify ownership of ``suspect`` against ``record``.

        With ``try_remap_recovery`` the frequency profile escrowed in the
        record is used to invert a suspected bijective re-mapping (§4.5)
        before decoding both channels.
        """
        # Two recovery flavours (§4.5): the association channel wants the
        # *strict* map (ambiguous tail values become erasures, not noise
        # votes); the frequency channel wants the *lenient* best-guess map
        # (confusing two equal-count values leaves the histogram intact).
        strict_mapping: dict[Hashable, Hashable] | None = None
        lenient_mapping: dict[Hashable, Hashable] | None = None
        if try_remap_recovery:
            if record.frequency_profile is None:
                raise DetectionError(
                    "remap recovery needs the frequency profile escrowed in "
                    "the mark record"
                )
            strict_mapping = recover_mapping(
                suspect, record.frequency_profile, drop_ambiguous=True
            )
            lenient_mapping = recover_mapping(suspect, record.frequency_profile)

        association = None
        if (
            record.spec.key_attribute in suspect.schema
            and record.spec.mark_attribute in suspect.schema
        ):
            working = suspect
            # Decode against the escrowed original domain: the suspect copy
            # may carry an inferred sub-domain (CSV round-trips, data loss)
            # whose canonical value ordering — and hence index parities —
            # differs from the one used at embedding time.
            domain = None
            if record.domain_values is not None:
                from ..relational import CategoricalDomain

                domain = CategoricalDomain(record.domain_values)
            association = verify(
                working,
                self.key,
                record.spec,
                record.watermark,
                embedding_map=record.embedding_map,
                domain=domain,
                value_mapping=strict_mapping,
                significance=self.significance,
                engine=self.engine,
            )

        frequency = None
        if (
            record.frequency_record is not None
            and record.frequency_record.attribute in suspect.schema
        ):
            try:
                frequency = verify_frequency(
                    suspect,
                    self.key,
                    record.frequency_record,
                    record.watermark,
                    value_mapping=lenient_mapping,
                    significance=self.significance,
                )
            except DetectionError:
                # No recognisable values (e.g. an un-recovered re-mapping):
                # the channel is unavailable, not an error — the association
                # channel may still answer.
                frequency = None

        if association is None and frequency is None:
            raise DetectionError(
                "no marked attribute survives in the suspect relation"
            )
        return VerifyOutcome(association=association, frequency=frequency)
