"""A3 — subset alteration (the random data-altering attack of §4.4).

Without the keys, Mallory cannot tell carrier tuples from the rest; "faced
with the issue of destroying the watermark while preserving the value of
the data, [Mallory] has only one alternative available, namely a random
attack".  A fraction ``a/N`` of tuples is picked uniformly and their
categorical value replaced.  Only ``(a/N)/e`` of those hits land on actual
carriers, and each hit flips the embedded bit with probability ``p`` —
the quantities equation (1) of the paper is written in.

Figures 4–6 sweep exactly this attack.
"""

from __future__ import annotations

import random
import weakref

import numpy as np

from ..relational import Table
from .base import Attack, sample_range

# Per-factorization translation cache for the codes fast path: the
# domain-index -> column-code table is a pure function of one
# (ColumnCodes, domain) pair, and a sweep re-attacks the same 15 marked
# factorizations at every point — weak-keyed so entries die with their
# factorization.
_translation_cache: "weakref.WeakKeyDictionary[object, dict]" = (
    weakref.WeakKeyDictionary()
)


def _codes_translation(base, domain):
    """(domain codes, extra uniques) for one factorization.

    ``domain_codes[i]`` is the code of ``domain.value_at(i)`` within
    ``base.uniques + extra`` (values absent from the column get appended
    codes), as an ``int32`` array.
    """
    store = _translation_cache.get(base)
    if store is None:
        store = _translation_cache[base] = {}
    entry = store.get(id(domain))
    # The entry pins the domain it was built for: identity-checking it
    # guards against a recycled id() after the original domain was
    # collected while the factorization stayed alive.
    if entry is None or entry[0] is not domain:
        code_of = {value: code for code, value in enumerate(base.uniques)}
        extra: list = []
        domain_codes = []
        next_code = len(base.uniques)
        for value in domain.values:
            code = code_of.get(value)
            if code is None:
                code = next_code
                next_code += 1
                extra.append(value)
            domain_codes.append(code)
        domain_codes = np.asarray(domain_codes, dtype=np.int32)
        domain_codes.setflags(write=False)
        entry = store[id(domain)] = (domain, domain_codes, tuple(extra))
    return entry[1], entry[2]


class SubsetAlterationAttack(Attack):
    """Randomly re-assign the values of one categorical attribute.

    ``flip_probability`` models the paper's ``p`` — the chance an altered
    carrier actually loses its embedded bit.  Drawing the replacement
    uniformly from the *other* domain values yields ``p ≈ 1`` for the bit's
    parity half the time; to track the paper's analysis we implement the
    alteration as: with probability ``p`` replace with a uniformly random
    different value, otherwise leave the tuple as-is.  ``p = 0.7`` is the
    paper's working estimate ("it is quite likely that when Mallory alters
    a watermarked tuple, it will destroy the embedded bit").
    """

    def __init__(
        self,
        attribute: str,
        alter_fraction: float,
        flip_probability: float = 1.0,
    ):
        if not 0.0 <= alter_fraction <= 1.0:
            raise ValueError(
                f"alter_fraction must be in [0, 1], got {alter_fraction}"
            )
        if not 0.0 <= flip_probability <= 1.0:
            raise ValueError(
                f"flip_probability must be in [0, 1], got {flip_probability}"
            )
        self.attribute = attribute
        self.alter_fraction = alter_fraction
        self.flip_probability = flip_probability
        self.name = (
            f"A3:alteration({attribute}, a={alter_fraction:g}, "
            f"p={flip_probability:g})"
        )

    def apply_rows(self, table: Table, rng: random.Random) -> Table:
        attacked = table.clone(name=f"{table.name}_altered")
        domain = attacked.schema.attribute(self.attribute).domain
        if domain is None:
            raise ValueError(f"attribute {self.attribute!r} is not categorical")
        if domain.size < 2:
            return attacked  # nothing to alter to

        # Sample row *indices* and read the two needed cells from column
        # snapshots instead of materializing every row tuple.  The columns
        # are captured before any write, so (like the old full-row
        # snapshot) each victim sees its pre-attack value; and because
        # ``rng.sample`` draws from the population length only, sampling
        # ``range(n)`` selects exactly the rows — in exactly the order —
        # that sampling the tuple list did, keeping outputs bit-identical.
        size = len(attacked)
        pk_column = attacked.column_view(attacked.primary_key)
        value_column = attacked.column_view(self.attribute)
        target_count = round(self.alter_fraction * size)
        victims = rng.sample(range(size), min(target_count, size))
        updates = []
        for slot in victims:
            if rng.random() >= self.flip_probability:
                continue
            current = value_column[slot]
            replacement = domain.value_at(rng.randrange(domain.size - 1))
            if replacement == current:
                replacement = domain.value_at(domain.size - 1)
            updates.append((pk_column[slot], replacement))
        # All rng draws precede all writes; since every victim row is
        # distinct and the draws never read the table, batching the writes
        # leaves the output bit-identical to the per-cell loop.
        attacked.set_values(self.attribute, updates)
        return attacked

    def apply_codes(self, table: Table, rng: random.Random) -> Table:
        """Code-level fast path: the draws in a loop, the rest on arrays.

        Identical rng draws, identical cell values and the same
        ``rng.getstate()`` afterwards as :meth:`apply_rows`; what changes
        is the substrate.  The loop only draws: victims through
        :func:`~.base.sample_range`, then per victim the flip test and,
        for a flipped one, the replacement's domain index — for an exact
        ``random.Random`` by ``randrange``'s own ``getrandbits`` rejection
        loop, inlined, and through ``rng.randrange`` for any other type.
        Array ops then map the picks to column codes (the domain is
        translated once per factorization, appending codes for domain
        values the column does not yet hold), compare them with the
        victims' current codes and substitute the last domain value's
        code, and the write-back is one positional
        :meth:`~repro.relational.table.Table.apply_codes` batch — no
        primary-key lookups, no per-cell re-validation, and the attacked
        clone keeps a *warm* factorization for the detection that
        follows.  Value equality coincides with code equality because the
        factorization keys values by Python equality, exactly like the
        domain itself.
        """
        attacked = table.clone(name=f"{table.name}_altered")
        domain = attacked.schema.attribute(self.attribute).domain
        if domain is None:
            raise ValueError(f"attribute {self.attribute!r} is not categorical")
        if domain.size < 2:
            return attacked

        size = len(attacked)
        base = attacked.column_codes(self.attribute)
        domain_codes, extra = _codes_translation(base, domain)

        target_count = round(self.alter_fraction * size)
        victims = sample_range(rng, size, min(target_count, size))
        cutoff = domain.size - 1
        flip_probability = self.flip_probability
        random_draw = rng.random
        positions: list[int] = []
        picks: list[int] = []
        if type(rng) is random.Random:
            getrandbits = rng.getrandbits
            bits = cutoff.bit_length()
            for slot in victims:
                if random_draw() >= flip_probability:
                    continue
                pick = getrandbits(bits)
                while pick >= cutoff:
                    pick = getrandbits(bits)
                positions.append(slot)
                picks.append(pick)
        else:
            randrange = rng.randrange
            for slot in victims:
                if random_draw() >= flip_probability:
                    continue
                positions.append(slot)
                picks.append(randrange(cutoff))
        slots = np.asarray(positions, dtype=np.intp)
        codes = domain_codes[np.asarray(picks, dtype=np.intp)]
        codes[codes == base.codes[slots]] = domain_codes[cutoff]
        attacked.apply_codes(self.attribute, slots, codes, base, extra)
        return attacked


class TargetedValueAttack(Attack):
    """Re-assign every occurrence of specific values (semantic cleanup).

    A plausible "normal use" transformation: e.g. merging deprecated product
    codes.  Included to exercise detection under structured (non-uniform)
    alteration.
    """

    def __init__(self, attribute: str, merges: dict):
        if not merges:
            raise ValueError("provide at least one value merge")
        self.attribute = attribute
        self.merges = dict(merges)
        self.name = f"A3:merge({attribute}, {len(merges)} values)"

    def apply(self, table: Table, rng: random.Random) -> Table:
        attacked = table.clone(name=f"{table.name}_merged")
        domain = attacked.schema.attribute(self.attribute).domain
        if domain is not None:
            for target in self.merges.values():
                if target not in domain:
                    raise ValueError(
                        f"merge target {target!r} outside the domain of "
                        f"{self.attribute!r}"
                    )
        # Column snapshots (taken before any write) replace the full-row
        # materialization; only the two consulted cells are ever read.
        pk_column = attacked.column_view(attacked.primary_key)
        value_column = attacked.column_view(self.attribute)
        attacked.set_values(
            self.attribute,
            (
                (pk, self.merges[value])
                for pk, value in zip(pk_column, value_column)
                if value in self.merges
            ),
        )
        return attacked
