"""Core watermarking algorithms — the paper's primary contribution.

Embedding (§3.2.1), blind detection (§3.2.2), multi-attribute embeddings
(§3.3), the frequency-domain channel (§4.2), bijective-remapping recovery
(§4.5), data-addition reinforcement (§4.6), and the :class:`Watermarker`
facade tying them together.
"""

from .addition import AdditionResult, add_watermarked_tuples, integer_key_generator
from .detection import (
    DEFAULT_SIGNIFICANCE,
    DetectionResult,
    SlotVotes,
    VerificationResult,
    VoteAccumulator,
    detect,
    extract_slot_votes,
    extract_slots,
    extract_slots_multipass,
    false_hit_probability,
    verify,
    verify_multipass,
)
from .embedding import (
    EmbeddingResult,
    EmbeddingSpec,
    VARIANT_KEYED,
    VARIANT_MAP,
    default_channel_length,
    embed,
    embedded_value_index,
    embedded_value_index_from_digest,
    make_spec,
    slot_index,
    slot_index_from_digest,
    value_pair_count,
)
from .errors import BandwidthError, DetectionError, SpecError, WatermarkingError
from .incremental import (
    IncrementalStats,
    IncrementalWatermarker,
    incremental_for,
    verify_watermark_consistency,
)
from .fitness import count_fit, expected_bandwidth, fit_keys, fit_rows, is_fit
from .frequency import (
    FrequencyEmbeddingResult,
    FrequencyMarkRecord,
    FrequencyVerification,
    default_quantum,
    detect_frequency,
    embed_frequency,
    verify_frequency,
)
from .multiattribute import (
    LedgerConstraint,
    MultiEmbeddingResult,
    MultiVerificationResult,
    PairDirective,
    build_pair_closure,
    embed_pairs,
    verify_pairs,
)
from .pipeline import EmbedOutcome, MarkRecord, VerifyOutcome, Watermarker
from .remapping import (
    FrequencyProfile,
    apply_mapping,
    estimate_profile,
    recover_mapping,
    recovery_quality,
)
from .watermark import Watermark

__all__ = [
    "AdditionResult",
    "BandwidthError",
    "DEFAULT_SIGNIFICANCE",
    "DetectionError",
    "DetectionResult",
    "EmbedOutcome",
    "EmbeddingResult",
    "EmbeddingSpec",
    "FrequencyEmbeddingResult",
    "FrequencyMarkRecord",
    "FrequencyProfile",
    "FrequencyVerification",
    "IncrementalStats",
    "IncrementalWatermarker",
    "LedgerConstraint",
    "MarkRecord",
    "MultiEmbeddingResult",
    "MultiVerificationResult",
    "PairDirective",
    "SlotVotes",
    "SpecError",
    "VARIANT_KEYED",
    "VARIANT_MAP",
    "VerificationResult",
    "VoteAccumulator",
    "VerifyOutcome",
    "Watermark",
    "Watermarker",
    "WatermarkingError",
    "add_watermarked_tuples",
    "apply_mapping",
    "build_pair_closure",
    "count_fit",
    "default_channel_length",
    "default_quantum",
    "detect",
    "detect_frequency",
    "embed",
    "embed_frequency",
    "embed_pairs",
    "embedded_value_index",
    "embedded_value_index_from_digest",
    "estimate_profile",
    "expected_bandwidth",
    "extract_slot_votes",
    "extract_slots",
    "extract_slots_multipass",
    "false_hit_probability",
    "fit_keys",
    "fit_rows",
    "incremental_for",
    "integer_key_generator",
    "is_fit",
    "make_spec",
    "recover_mapping",
    "recovery_quality",
    "slot_index",
    "slot_index_from_digest",
    "value_pair_count",
    "verify",
    "verify_frequency",
    "verify_multipass",
    "verify_pairs",
    "verify_watermark_consistency",
]
