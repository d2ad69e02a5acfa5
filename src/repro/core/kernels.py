"""NumPy vector kernels — the ``VECTOR`` execution backend.

The hash engine makes hashing O(distinct values) and the sweep engine
makes sweeps embed-once/attack-many, which leaves the Python interpreter
itself as the hot path: a per-row embed/detect loop pays a few hundred
nanoseconds of dict lookups (``fit[key_value]``, ``slot_of[key_value]``)
per row.  This module replaces those per-row loops with array programs
over two cached building blocks:

* **column codes** — :meth:`repro.relational.table.Table.column_codes`
  factorizes a column once into ``(int32 codes, uniques)``; clones inherit
  the factorization copy-on-write, so attack trials and repeated
  re-detections never re-factorize an untouched column;
* **plan arrays** — :meth:`repro.crypto.engine.HashEngine.fitness_array` /
  ``slot_array`` / ``pair_array`` project the engine's memoized derived
  maps onto the uniques once per factorization, cached weakly per
  :class:`~repro.relational.table.ColumnCodes` object.

Detection has one kernel: one stacked gather and one
``np.bincount(pass·2L + slot·2 + bit)`` tally over P ≥ 1 passes that
share a key-column factorization (:func:`detect_multipass`;
:func:`extract_votes_vector` is its P = 1 form).  It returns raw per-slot
tallies, and only :meth:`repro.core.detection.SlotVotes.resolve` turns
them into slots — in memory, fused and streamed alike.  Embedding reduces
to a boolean gather for carrier selection, ``t = 2 * pair + bit`` target
coding, and a batched :meth:`~repro.relational.table.Table.set_values`
write-back.  Both are bit-identical to the SCALAR reference (pinned by
the equivalence suites).  A warm vector re-detection performs zero
SHA-256 calls *and* zero per-row Python-level hash lookups: only array
code touches row-count data.

Backend selection
-----------------

``engine=``/``backend=`` parameters across the stack accept:

==========================  ================================================
SCALAR                      row-at-a-time reference implementation
VECTOR / ``None``           these kernels on the shared registry engine
a :class:`HashEngine`       these kernels on that engine instance
==========================  ================================================

The kernels run at every relation size, the empty relation included.
"""

from __future__ import annotations

from typing import Any, Hashable

import numpy as np

from ..crypto import HashEngine
from ..relational import Table
from .errors import DetectionError

_VARIANT_KEYED = "keyed"  # mirrors repro.core.embedding.VARIANT_KEYED

#: kernel-launch telemetry: how many single-pass tallies
#: (:func:`extract_votes_vector`), multi-pass launches
#: (:func:`detect_multipass`, which every streamed VECTOR chunk makes
#: once) and embedding kernels ran.  The perf-smoke suite asserts a warm
#: sweep cell performs exactly one ``detect_multipass`` launch and zero
#: per-pass ``detect`` launches.
KERNEL_CALLS = {
    "detect": 0,
    "detect_multipass": 0,
    "embed": 0,
}


def reset_kernel_calls() -> None:
    """Zero the :data:`KERNEL_CALLS` counters (test isolation)."""
    for name in KERNEL_CALLS:
        KERNEL_CALLS[name] = 0


def warm_codes(table: Table, *attributes: str) -> None:
    """Pre-factorize columns on ``table`` so clones inherit the codes.

    :meth:`Table.clone` copies the codes cache copy-on-write; factorizing
    the *base* relation before cloning is what lets every marking pass and
    attack trial over one base share a single factorization (and the plan
    arrays keyed on it).
    """
    for attribute in attributes:
        table.column_codes(attribute)


# -- detection ----------------------------------------------------------------

def _decode_bits(mark_uniques, domain, value_mapping):
    """Per-unique mark decoding: translate (``value_mapping``), reject
    values outside the domain (-1), else the bit is the canonical index
    parity."""
    bits_u = np.full(len(mark_uniques), -1, dtype=np.int8)
    in_domain = domain.__contains__
    index_of = domain.index_of
    if value_mapping is None:
        for position, value in enumerate(mark_uniques):
            if in_domain(value):
                bits_u[position] = index_of(value) & 1
    else:
        translate = value_mapping.get
        for position, value in enumerate(mark_uniques):
            value = translate(value, value)
            if in_domain(value):
                bits_u[position] = index_of(value) & 1
    return bits_u


def shared_key_codes(tables, key_attribute: str):
    """The one :class:`ColumnCodes` object every table in ``tables``
    holds for ``key_attribute`` — or ``None`` when they do not share.

    Sharing happens by construction on the attack-sweep hot path: every
    keyed pass clones the same base relation (inheriting its key-column
    factorization copy-on-write) and the attacks only rewrite the mark
    column, so the fifteen attacked clones of a sweep cell present the
    *identical* factorization object.  Identity — not equality — is the
    test, because the stacked plan caches are keyed per object.
    """
    if not tables:
        return None
    if all(table is tables[0] for table in tables[1:]):
        return tables[0].column_codes(key_attribute)
    codes = tables[0].column_codes(key_attribute, build=False)
    if codes is None:
        return None
    for table in tables[1:]:
        if table.column_codes(key_attribute, build=False) is not codes:
            return None
    return codes


def _plan_stack(engines, stack, array, codes, *args):
    """The ``(P, U)`` plan stack of ``engines`` over one factorization.

    A single pass reads its engine's own plan array as a ``(1, U)`` view:
    no copy, and the process-wide stack cache holds only fused passes'
    stacks, so a stream chunk or a single-pass verify never evicts a
    sweep cell's.
    """
    if len(engines) == 1:
        return array(engines[0], codes, *args)[np.newaxis]
    return stack(engines, codes, *args)


def _tally(
    tables,
    spec,
    domains,
    embedding_maps,
    value_mapping: dict[Hashable, Hashable] | None,
    engines,
):
    """The one vote gather and ``bincount`` tally behind every VECTOR
    detection: P passes sharing ``tables[0]``'s key-column factorization.

    Every row-shaped step runs once, stacked: fitness and slots gather
    through ``(P, U)`` plan stacks, and every vote of every pass lands in
    a single ``bincount(pass·2L + slot·2 + bit)``.  Returns one
    ``(zeros, ones, firsts, fit_count)`` tally per pass, where
    ``firsts[slot]`` is the pass's first vote in physical row order
    (``-1`` when the pass never addressed the slot).
    """
    key_codes = tables[0].column_codes(spec.key_attribute)
    channel_length = spec.channel_length
    pass_count = len(tables)

    fit_stack = _plan_stack(
        engines, HashEngine.fitness_stack, HashEngine.fitness_array,
        key_codes, spec.e,
    )
    fit_rows = fit_stack[:, key_codes.codes]
    fit_counts = fit_rows.sum(axis=1)

    # Mark bits per pass; passes whose mark factorization object and
    # domain coincide (e.g. verify_pairs over one table) decode once.
    decoded: dict[tuple[int, int], Any] = {}
    bits_rows = []
    for table, domain in zip(tables, domains):
        mark_codes = table.column_codes(spec.mark_attribute)
        cache_key = (id(mark_codes), id(domain))
        bits = decoded.get(cache_key)
        if bits is None:
            bits_u = _decode_bits(mark_codes.uniques, domain, value_mapping)
            bits = bits_u[mark_codes.codes]
            decoded[cache_key] = bits
        bits_rows.append(bits)
    bits_stack = np.stack(bits_rows)

    # np.nonzero is row-major: each pass's votes stay in physical row
    # order, which the first-vote pick below relies on.
    valid = fit_rows & (bits_stack >= 0)
    row_codes = key_codes.codes
    if spec.variant == _VARIANT_KEYED:
        slot_stack = _plan_stack(
            engines, HashEngine.slot_stack, HashEngine.slot_array,
            key_codes, channel_length, spec.e,
        )
        pass_rows, row_positions = np.nonzero(valid)
        slots_v = slot_stack[pass_rows, row_codes[row_positions]].astype(
            np.int64
        )
        bits_v = bits_stack[pass_rows, row_positions].astype(np.int64)
    else:
        assert embedding_maps is not None
        key_uniques = key_codes.uniques
        slot_map_stack = np.zeros(
            (pass_count, len(key_uniques)), dtype=np.int64
        )
        mapped_stack = np.zeros((pass_count, len(key_uniques)), dtype=np.bool_)
        for index, embedding_map in enumerate(embedding_maps):
            lookup = embedding_map.get
            for position, value in enumerate(key_uniques):
                slot = lookup(value)
                if slot is None:
                    continue
                mapped_stack[index, position] = True
                slot_map_stack[index, position] = slot
        use = valid & mapped_stack[:, row_codes]
        pass_rows, row_positions = np.nonzero(use)
        slots_v = slot_map_stack[pass_rows, row_codes[row_positions]]
        bits_v = bits_stack[pass_rows, row_positions].astype(np.int64)
        out_of_range = (slots_v < 0) | (slots_v >= channel_length)
        if out_of_range.any():
            bad = int(slots_v[out_of_range][0])
            raise DetectionError(
                f"embedding map entry {bad} outside channel "
                f"[0, {channel_length})"
            )

    counts = np.bincount(
        pass_rows * (2 * channel_length) + slots_v * 2 + bits_v,
        minlength=pass_count * 2 * channel_length,
    ).reshape(pass_count, channel_length, 2)
    # np.unique's return_index gives first occurrences, so it picks the
    # first vote of each (pass, slot).
    flat = pass_rows * channel_length + slots_v
    first_keys, first_positions = np.unique(flat, return_index=True)
    firsts = np.full(pass_count * channel_length, -1, dtype=np.int64)
    firsts[first_keys] = bits_v[first_positions]
    firsts = firsts.reshape(pass_count, channel_length)
    return [
        (counts[p, :, 0], counts[p, :, 1], firsts[p], int(fit_counts[p]))
        for p in range(pass_count)
    ]


def detect_multipass(
    tables,
    spec,
    domains,
    embedding_maps,
    value_mapping: dict[Hashable, Hashable] | None,
    engines,
):
    """Vote tallies of P ≥ 1 detection passes sharing one key-column
    factorization, in one kernel launch.

    ``tables[p]`` is pass ``p``'s suspect relation (fifteen attacked
    clones of one base in a sweep cell; the same chunk P times in a
    streamed multi-key verify), ``engines[p]`` the pass's keyed engine
    and ``domains[p]`` its resolved mark-value domain; all passes share
    ``spec``, and ``embedding_maps`` (map variant) holds one map per
    pass.  Returns one ``(zeros, ones, firsts, fit_count)`` tally per
    pass; :meth:`~repro.core.detection.SlotVotes.resolve` turns a tally
    into slots, and tallies of consecutive chunks merge in a
    :class:`~repro.core.detection.VoteAccumulator`.

    Callers must have verified sharing via :func:`shared_key_codes`.
    """
    KERNEL_CALLS["detect_multipass"] += 1
    return _tally(
        tables, spec, domains, embedding_maps, value_mapping, engines
    )


def extract_votes_vector(
    table: Table,
    spec,
    domain,
    embedding_map: dict[Hashable, int] | None,
    value_mapping: dict[Hashable, Hashable] | None,
    engine: HashEngine,
):
    """The single-pass (P = 1) form of :func:`detect_multipass`: the
    ``(zeros, ones, firsts, fit_count)`` tally of one detection pass
    over ``table``."""
    KERNEL_CALLS["detect"] += 1
    return _tally(
        [table], spec, [domain], [embedding_map], value_mapping, [engine]
    )[0]


# -- embedding ----------------------------------------------------------------

def embed_vector(
    table: Table,
    spec,
    domain,
    wm_data,
    guard,
    result,
    engine: HashEngine,
):
    """Array-kernel embedding pass; mutates ``table`` and fills ``result``.

    Carrier selection, slot addressing and target coding
    (``t = 2 * pair + bit``) are vectorized over the key column's codes;
    the remaining per-carrier loop only assembles write batches.  With an
    unconstrained guard the write-back goes through one batched
    :meth:`Table.set_values` call (guard log/report/statistics maintained
    identically); with constraints every cell still flows through
    :meth:`QualityGuard.apply_group`, preserving veto-and-rollback
    semantics cell by cell.
    """
    KERNEL_CALLS["embed"] += 1
    key_codes = table.column_codes(spec.key_attribute)
    mark_codes = table.column_codes(spec.mark_attribute)
    channel_length = spec.channel_length
    keyed_variant = spec.variant == _VARIANT_KEYED

    fit_u = engine.fitness_array(key_codes, spec.e)
    pair_u = engine.pair_array(key_codes, domain.size, spec.e)

    primary_path = spec.key_attribute == table.primary_key
    if primary_path:
        # Codes are row positions (pk factorization is the identity), so
        # the fit uniques are exactly the carrier rows.
        carrier_uidx = np.flatnonzero(fit_u)
        first_rows = carrier_uidx
        group_rows = None
        pk_column = None
    else:
        row_positions = np.flatnonzero(fit_u[key_codes.codes])
        fit_codes = key_codes.codes[row_positions]
        order = np.argsort(fit_codes, kind="stable")
        group_rows = row_positions[order]
        sorted_codes = fit_codes[order]
        carrier_uidx = np.flatnonzero(fit_u)
        starts = np.searchsorted(sorted_codes, carrier_uidx, side="left")
        ends = np.searchsorted(sorted_codes, carrier_uidx, side="right")
        first_rows = group_rows[starts]
        pk_column = table.column_view(table.primary_key)

    carrier_count = len(carrier_uidx)
    result.fit_count = carrier_count
    if carrier_count == 0:
        return result

    wm = np.asarray(wm_data, dtype=np.int64)
    if keyed_variant:
        slot_u = engine.slot_array(key_codes, channel_length, spec.e)
        slots_c = slot_u[carrier_uidx].astype(np.int64)
    else:
        slots_c = np.arange(carrier_count, dtype=np.int64) % channel_length
    targets_c = 2 * pair_u[carrier_uidx].astype(np.int64) + wm[slots_c]

    key_uniques = key_codes.uniques
    mark_uniques = mark_codes.uniques
    first_mark_codes = mark_codes.codes[first_rows]
    value_at = domain.value_at
    slots_written = result.slots_written
    embedding_map = result.embedding_map
    attribute = spec.mark_attribute

    carrier_list = carrier_uidx.tolist()
    slots_list = slots_c.tolist()
    targets_list = targets_c.tolist()
    first_marks = first_mark_codes.tolist()

    fast_guard = not guard.constraints
    if fast_guard:
        context = guard.context
        deltas = context.count_deltas.get(attribute)
        if deltas is None:
            from collections import Counter

            deltas = context.count_deltas[attribute] = Counter()
        log_record = guard.log.record
        staged: list[tuple[Hashable, Any]] = []
        stage = staged.append
        if not primary_path:
            mark_code_list = mark_codes.codes.tolist()
            starts_list = starts.tolist()
            ends_list = ends.tolist()
            rows_list = group_rows.tolist()

    for position in range(carrier_count):
        key_value = key_uniques[carrier_list[position]]
        slot = slots_list[position]
        if not keyed_variant:
            embedding_map[key_value] = slot
        new_value = value_at(targets_list[position])
        if mark_uniques[first_marks[position]] == new_value:
            result.unchanged += 1
            slots_written.add(slot)
            continue
        if fast_guard:
            # Unconstrained guard: nothing can veto, so stage the batched
            # write and maintain the guard's log, report and incremental
            # statistics exactly as a loop of guard.apply calls would.
            if primary_path:
                stage((key_value, new_value))
                old_value = mark_uniques[first_marks[position]]
                deltas[old_value] -= 1
                deltas[new_value] += 1
                log_record(key_value, attribute, old_value, new_value)
            else:
                for row in rows_list[
                    starts_list[position]:ends_list[position]
                ]:
                    old_value = mark_uniques[mark_code_list[row]]
                    if old_value == new_value:
                        guard.report.noop += 1
                        continue
                    stage((pk_column[row], new_value))
                    deltas[old_value] -= 1
                    deltas[new_value] += 1
                    log_record(pk_column[row], attribute, old_value, new_value)
            result.applied += 1
            slots_written.add(slot)
            continue
        if primary_path:
            group = (key_value,)
        else:
            group = [
                pk_column[row]
                for row in group_rows[starts[position]:ends[position]].tolist()
            ]
        if guard.apply_group(group, attribute, new_value):
            result.applied += 1
            slots_written.add(slot)
        else:
            result.vetoed += 1

    if fast_guard and staged:
        table.set_values(attribute, staged)
        guard.context.change_count += len(staged)
        guard.report.applied += len(staged)
    return result


# -- histograms ---------------------------------------------------------------

def cached_unique_counts(
    table: Table, attribute: str
) -> tuple[list[Hashable], list[int]] | None:
    """``(uniques, counts)`` of a column via one ``bincount`` over its
    codes — but only when a fresh factorization is already cached.

    ``None`` tells the caller to fall back to a plain scan (a C-speed
    ``Counter`` pass beats a cold Python-level factorization it may never
    amortize).  Unique order is first physical encounter — the same
    insertion order ``collections.Counter`` produces — and counts are
    integers, so histogram consumers are bit-identical either way.
    """
    codes = table.column_codes(attribute, build=False)
    if codes is None:
        return None
    counts = np.bincount(codes.codes, minlength=len(codes.uniques))
    return codes.uniques, counts.tolist()
