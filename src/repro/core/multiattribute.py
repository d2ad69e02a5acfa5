"""Multiple attribute embeddings (§3.3).

A single ``mark(K, A)`` embedding dies with its key attribute under vertical
partitioning (A5).  The extension marks *every* usable attribute pair —
``mark(K, A), mark(K, B), mark(A, B), ...`` — treating the first attribute
of each pair as a primary-key place-holder, so that any surviving pair of
attributes still carries a rights witness.

Three §3.3 mechanics are implemented:

* **Interference avoidance** — a ledger of cells modified by earlier passes
  is enforced as a guard constraint, so a later pass never overwrites (or
  is misled by re-reading) an earlier pass's alterations;
* **Direction flipping** — when the natural target of a pair was already
  modified, the pair is deployed in the opposite direction
  (``mark(B, A)`` instead of ``mark(A, B)``), spreading the mark;
* **Pair closure** — a closure over the schema's attribute-pair graph
  (networkx) that maximises the number of watermarked pairs while greedily
  minimising interference, preferring non-categorical attributes as key
  place-holders (the paper's open question about categorical
  place-holders).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Hashable

import networkx as nx

from ..crypto import HashEngine, MarkKey
from ..quality import Constraint, ChangeContext, QualityGuard
from ..relational import Table
from .detection import VerificationResult, verify_multipass
from .embedding import (
    EmbeddingResult,
    EmbeddingSpec,
    carrier_population,
    embed,
    make_spec,
    value_pair_count,
)
from .errors import SpecError
from .watermark import Watermark


@dataclass(frozen=True)
class PairDirective:
    """One ``mark(key_attribute, mark_attribute)`` deployment order."""

    key_attribute: str
    mark_attribute: str

    @property
    def label(self) -> str:
        return f"{self.key_attribute}->{self.mark_attribute}"


class LedgerConstraint(Constraint):
    """Veto alterations to cells already modified by an earlier pass.

    This is §3.3's "maintaining a hash-map at watermarking time,
    'remembering' modified tuples in each marking pass" — realised on top
    of the rollback log's changed-cell set.
    """

    def __init__(self, frozen_cells: set[tuple[Hashable, str]]):
        self.frozen_cells = frozen_cells
        self.name = "interference-ledger"

    def violated(self, context: ChangeContext) -> str | None:
        proposal = context.proposal
        if proposal is None:
            return None
        if (proposal.key, proposal.attribute) in self.frozen_cells:
            return (
                f"cell ({proposal.key!r}, {proposal.attribute!r}) was "
                f"modified by an earlier marking pass"
            )
        return None


def _markable(table: Table, attribute: str) -> bool:
    """Can ``attribute`` carry a bit (categorical with >= 2 values)?"""
    meta = table.schema.attribute(attribute)
    return meta.is_categorical and meta.domain is not None and \
        value_pair_count(meta.domain) >= 1


def build_pair_closure(
    table: Table,
    attributes: list[str] | None = None,
    watermark_length: int = 10,
    min_carriers_per_bit: int = 2,
    max_carrier_share: float = 1.0,
) -> list[PairDirective]:
    """Orient the attribute-pair graph into a marking plan.

    Nodes are the primary key plus every candidate attribute; each edge
    ``{X, Y}`` is oriented so that the *marked* endpoint is (a) markable and
    (b) the endpoint marked fewest times so far — the greedy
    interference-minimising closure the paper sketches.  The primary key is
    never marked (it is the anchor every other association hangs off).

    Key place-holders with too few distinct values are rejected: a pair
    keyed on an attribute with fewer than
    ``min_carriers_per_bit * watermark_length`` distinct values cannot give
    every watermark bit a carrier, the degenerate case §3.3's closing note
    warns about ("A can have just one possible value which would upset the
    'fit' tuple selection algorithm").

    ``max_carrier_share`` bounds the *data-alteration cost* of a pair: a
    pair keyed on attribute ``X`` marks roughly ``1/e_pair`` of ``X``'s
    distinct values, and every tuple holding a marked value is rewritten —
    for low-cardinality place-holders that can be most of the relation.
    Pairs whose carrier share ``1/e_pair`` would exceed the bound are
    excluded from the closure (default 1.0 = no bound; 0.25 is a sensible
    production choice).
    """
    names = list(attributes) if attributes is not None else [
        name for name in table.schema.names
    ]
    for name in names:
        table.schema.position(name)  # validate early
    pk = table.primary_key
    if pk not in names:
        names.insert(0, pk)
    minimum_distinct = min_carriers_per_bit * watermark_length
    distinct = {
        name: carrier_population(table, name) for name in names
    }

    graph = nx.Graph()
    graph.add_nodes_from(names)
    for i, first in enumerate(names):
        for second in names[i + 1:]:
            if _markable(table, first) or _markable(table, second):
                graph.add_edge(first, second)

    marked_count: dict[str, int] = {name: 0 for name in names}
    key_use_count: dict[str, int] = {name: 0 for name in names}
    directives: list[PairDirective] = []

    def orientation_cost(key_attr: str, mark_attr: str) -> tuple:
        """Lower is better: avoid re-marking, prefer non-categorical keys."""
        key_is_categorical = table.schema.attribute(key_attr).is_categorical
        return (
            marked_count[mark_attr],       # spread marks across attributes
            key_is_categorical,            # prefer K / numeric place-holders
            key_use_count[key_attr],       # balance key-placeholder load
        )

    # Deterministic edge order: PK-anchored pairs first (the paper's
    # mark(K, A), mark(K, B)), then the remaining associations.
    def edge_order(edge: tuple[str, str]) -> tuple:
        first, second = edge
        return (pk not in edge, names.index(first), names.index(second))

    for first, second in sorted(graph.edges(), key=edge_order):
        candidates = []
        if _markable(table, second) and first != second:
            candidates.append(PairDirective(first, second))
        if _markable(table, first) and second != first:
            candidates.append(PairDirective(second, first))
        # never mark the primary key itself; reject starved key
        # place-holders and pairs whose alteration cost exceeds the bound
        def carrier_share(key_attr: str) -> float:
            pair_e = max(
                1, distinct[key_attr] // (2 * watermark_length)
            )
            return 1.0 / pair_e

        candidates = [
            d
            for d in candidates
            if d.mark_attribute != pk
            and distinct[d.key_attribute] >= minimum_distinct
            and carrier_share(d.key_attribute) <= max_carrier_share
        ]
        if not candidates:
            continue
        best = min(
            candidates,
            key=lambda d: orientation_cost(d.key_attribute, d.mark_attribute),
        )
        directives.append(best)
        marked_count[best.mark_attribute] += 1
        key_use_count[best.key_attribute] += 1
    if not directives:
        raise SpecError("no markable attribute pairs in the schema")
    return directives


@dataclass
class MultiEmbeddingResult:
    """Per-pair embedding outcomes plus the shared interference ledger."""

    passes: dict[str, EmbeddingResult] = field(default_factory=dict)
    specs: dict[str, EmbeddingSpec] = field(default_factory=dict)
    embedding_maps: dict[str, dict[Hashable, int]] = field(default_factory=dict)

    @property
    def total_applied(self) -> int:
        return sum(result.applied for result in self.passes.values())

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self.passes)


def embed_pairs(
    table: Table,
    watermark: Watermark,
    master_key: MarkKey,
    e: int,
    directives: list[PairDirective] | None = None,
    ecc_name: str = "majority",
    variant: str = "map",
    extra_constraints: list[Constraint] | None = None,
    backend: HashEngine | str | None = None,
) -> MultiEmbeddingResult:
    """Embed ``watermark`` once per attribute pair, in place.

    The default variant here is ``map`` (Figure 1(b)): pairs keyed on a
    categorical place-holder have few carriers, and the sequential slot
    assignment of the map variant guarantees full channel coverage where
    the keyed variant's hash-addressed slots would leave erasures.  The
    per-pair embedding maps ride along in the result (and in
    :class:`MultiEmbeddingResult.embedding_maps`) as detection input.

    Each pass derives its own subkeys from ``master_key`` (label-bound), and
    runs under a guard whose ledger freezes every cell touched by earlier
    passes — the §3.3 interference-avoidance hash-map.

    ``e`` is the encoding parameter for the primary-key-anchored pairs; for
    pairs keyed on a low-cardinality place-holder it is automatically
    reduced so that every watermark bit still gets carriers (roughly two
    per bit), and the reduced value is recorded in that pair's spec.

    ``backend`` selects the execution backend of every pass (the
    :func:`repro.core.embedding.embed` vocabulary); the default runs the
    vector kernels.  Note an explicit :class:`HashEngine` instance only
    makes sense for a single-directive plan — each pass hashes under its
    own derived key.
    """
    if directives is None:
        directives = build_pair_closure(table, watermark_length=len(watermark))
    result = MultiEmbeddingResult()
    frozen_cells: set[tuple[Hashable, str]] = set()
    for directive in directives:
        label = directive.label
        if label in result.passes:
            raise SpecError(f"duplicate pair directive {label!r}")
        pass_key = master_key.derive(label)
        population = carrier_population(table, directive.key_attribute)
        pair_e = min(e, max(1, population // (2 * len(watermark))))
        spec = make_spec(
            table,
            watermark,
            mark_attribute=directive.mark_attribute,
            e=pair_e,
            key_attribute=directive.key_attribute,
            ecc_name=ecc_name,
            variant=variant,
        )
        guard = QualityGuard(
            [LedgerConstraint(frozen_cells)] + list(extra_constraints or [])
        )
        guard.bind(table)
        # Each pass hashes under its own derived key; the shared registry
        # engine (resolved per pass inside embed) keeps those digests warm
        # for verify_pairs and for every re-detection an attack experiment
        # runs afterwards.
        outcome = embed(
            table, watermark, pass_key, spec, guard=guard, engine=backend,
        )
        frozen_cells |= guard.log.changed_cells()
        result.passes[label] = outcome
        result.specs[label] = spec
        if outcome.embedding_map is not None:
            result.embedding_maps[label] = outcome.embedding_map
    return result


@dataclass(frozen=True)
class MultiVerificationResult:
    """Aggregated verdict over every pair's detection."""

    per_pair: dict[str, VerificationResult]

    @property
    def detected(self) -> bool:
        """Rights are proven if *any* witness pair detects (§3.3: "more
        rights witnesses to testify"), or if the combined evidence of all
        witnesses is jointly significant even when none is individually."""
        if any(result.detected for result in self.per_pair.values()):
            return True
        significance = min(
            result.significance for result in self.per_pair.values()
        )
        return self.combined_false_hit_probability <= significance

    @property
    def combined_false_hit_probability(self) -> float:
        """Fisher-combined false-hit probability across all witnesses.

        The derived per-pair keys make the witnesses' bit extractions
        independent under the null (unmarked data), so Fisher's method
        applies: ``-2·Σ ln(p_i) ~ χ²(2k)``.  Several 9-of-10 witnesses —
        each individually above a strict bar — can still be overwhelming
        joint evidence; this is what a real dispute would argue.
        """
        from scipy import stats

        p_values = [
            max(result.false_hit_probability, 1e-300)
            for result in self.per_pair.values()
        ]
        if not p_values:
            return 1.0
        statistic = -2.0 * sum(math.log(p) for p in p_values)
        return float(stats.chi2.sf(statistic, 2 * len(p_values)))

    @property
    def detected_pairs(self) -> tuple[str, ...]:
        return tuple(
            label
            for label, result in sorted(self.per_pair.items())
            if result.detected
        )

    @property
    def best(self) -> VerificationResult:
        return min(
            self.per_pair.values(), key=lambda r: r.false_hit_probability
        )

    def summary(self) -> str:
        lines = [
            f"{label}: {result.summary()}"
            for label, result in sorted(self.per_pair.items())
        ]
        lines.append(
            f"overall: {'DETECTED' if self.detected else 'not detected'} "
            f"({len(self.detected_pairs)}/{len(self.per_pair)} witnesses)"
        )
        return "\n".join(lines)


def verify_pairs(
    table: Table,
    master_key: MarkKey,
    embedding: MultiEmbeddingResult,
    expected: Watermark,
    significance: float = 0.01,
    backend: HashEngine | str | None = None,
) -> MultiVerificationResult:
    """Verify every pair whose attributes survive in ``table``.

    Pairs whose key or mark attribute was projected away (A5) are skipped —
    the surviving pairs are exactly the witnesses the scheme banks on.

    Verification routes through the multi-pass detector
    (:func:`~repro.core.detection.verify_multipass`): witnesses sharing
    one spec shape run as a single fused kernel over the suspect
    relation's shared factorization, heterogeneous specs (the usual
    closure output — every directive marks a different pair) degrade to
    per-pair detections; both are bit-identical to a loop of
    :func:`~repro.core.detection.verify` calls.
    """
    groups: dict[EmbeddingSpec, list[str]] = {}
    for label, spec in embedding.specs.items():
        if (
            spec.key_attribute not in table.schema
            or spec.mark_attribute not in table.schema
        ):
            continue
        groups.setdefault(spec, []).append(label)
    per_pair: dict[str, VerificationResult] = {}
    for spec, labels in groups.items():
        results = verify_multipass(
            [table] * len(labels),
            [master_key.derive(label) for label in labels],
            spec,
            [expected] * len(labels),
            embedding_maps=[
                embedding.embedding_maps.get(label) for label in labels
            ],
            significance=significance,
            engine=backend,
        )
        per_pair.update(zip(labels, results))
    if not per_pair:
        raise SpecError(
            "no marked attribute pair survives in the suspect relation"
        )
    return MultiVerificationResult(per_pair)
