"""Property-based equivalence: batched engine vs scalar primitives.

Randomized values — including tuple-typed composite keys, non-ASCII text,
floats and bools that compare equal to ints — must produce bit-identical
fitness/slot/pair results through the engine's plan arrays and through
the scalar ``keyed_hash``-based reference functions, in any query order
and batch shape.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.embedding import embedded_value_index, slot_index
from repro.crypto import HashEngine, MarkKey, keyed_hash
from repro.relational import CategoricalDomain, ColumnCodes

# Scalar leaves for key values.  Bools and floats collide with ints under
# ``==`` (1 == True == 1.0) while hashing differently; the engine's one
# digest cache must keep them apart.
_leaves = st.one_of(
    st.integers(min_value=-(2**80), max_value=2**80),
    st.text(max_size=24),
    st.binary(max_size=24),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
)

key_values = st.one_of(
    _leaves,
    st.tuples(_leaves, _leaves),
    st.tuples(_leaves, st.tuples(_leaves, _leaves)),
)

keys = st.integers(min_value=0, max_value=2**32).map(
    lambda seed: MarkKey.from_seed(f"prop-{seed}")
)

#: the random range, plus the edges of both fitness reductions: uint64
#: limbs below 2**32, Python ints from 2**32 on
moduli = st.one_of(
    st.integers(min_value=1, max_value=97),
    st.sampled_from([2**32 - 1, 2**32, 2**64 + 1]),
)


def codes_over(values) -> ColumnCodes:
    """A factorization whose uniques are ``values`` as given, one row each
    (no dict equality, so ``1`` and ``1.0`` stay separate uniques)."""
    return ColumnCodes(np.arange(len(values), dtype=np.int32), list(values))


def fit_reference(key, values, e):
    return [keyed_hash(value, key.k1) % e == 0 for value in values]


@settings(max_examples=60, deadline=None)
@given(
    key=keys,
    values=st.lists(key_values, min_size=1, max_size=40),
    e=moduli,
    channel_length=st.integers(min_value=1, max_value=300),
    domain_size=st.integers(min_value=2, max_value=64),
    bit=st.integers(min_value=0, max_value=1),
)
def test_engine_matches_scalar_reference(
    key, values, e, channel_length, domain_size, bit
):
    engine = HashEngine(key)
    domain = CategoricalDomain(range(domain_size))
    codes = codes_over(values)

    assert engine.fitness_array(codes, e).tolist() == fit_reference(
        key, values, e
    )
    # e = 1 makes every value fit, so every slot and pair is resolved
    assert engine.slot_array(codes, channel_length, 1).tolist() == [
        slot_index(value, key.k2, channel_length) for value in values
    ]
    assert [
        2 * pair + bit
        for pair in engine.pair_array(codes, domain_size, 1).tolist()
    ] == [
        embedded_value_index(value, key.k1, bit, domain) for value in values
    ]


@settings(max_examples=40, deadline=None)
@given(
    key=keys,
    batches=st.lists(
        st.lists(key_values, min_size=1, max_size=12), min_size=1, max_size=4
    ),
    e=moduli,
)
def test_batch_then_scalar_then_rebatch_is_stable(key, batches, e):
    """Memoization must be invisible: a warm engine queried across several
    batches — mixed types included — then value by value, then over the
    whole list reversed, returns the verdicts of a fresh engine and of
    ``keyed_hash``."""
    values = [value for batch in batches for value in batch]
    warm = HashEngine(key)
    first = [
        verdict
        for batch in batches
        for verdict in warm.fitness_array(codes_over(batch), e).tolist()
    ]
    scalar = [warm.k1.digest(value) % e == 0 for value in values]
    second = warm.fitness_array(codes_over(values[::-1]), e).tolist()
    fresh = HashEngine(key).fitness_array(codes_over(values), e).tolist()
    assert first == scalar == fresh == fit_reference(key, values, e)
    assert second == first[::-1]


@settings(max_examples=40, deadline=None)
@given(
    key=keys,
    values=st.lists(key_values, min_size=1, max_size=40),
    e=st.integers(min_value=1, max_value=97),
    channel_length=st.integers(min_value=1, max_value=300),
    domain_size=st.integers(min_value=2, max_value=64),
)
def test_plan_arrays_match_scalar_reference(
    key, values, e, channel_length, domain_size
):
    """Vector plan arrays match the scalar reference: for every unique,
    fitness matches the scalar criterion and — on fit uniques, the only
    ones the kernels ever gather — slot and pair indices match the scalar
    addressing."""
    engine = HashEngine(key)
    # Factorize the generated value list exactly as Table.column_codes
    # does: first-encounter uniques, dense int32 codes.
    index = {}
    uniques = []
    raw = []
    for value in values:
        code = index.get(value)
        if code is None:
            code = index[value] = len(uniques)
            uniques.append(value)
        raw.append(code)
    codes = ColumnCodes(np.asarray(raw, dtype=np.int32), uniques)

    fit = engine.fitness_array(codes, e)
    slot = engine.slot_array(codes, channel_length, e)
    pair = engine.pair_array(codes, domain_size, e)
    assert len(fit) == len(slot) == len(pair) == len(codes.uniques)

    for position, value in enumerate(codes.uniques):
        assert bool(fit[position]) == (keyed_hash(value, key.k1) % e == 0)
        if fit[position]:
            assert int(slot[position]) == slot_index(
                value, key.k2, channel_length
            )
            expected_pair = embedded_value_index(
                value, key.k1, 0, CategoricalDomain(range(domain_size))
            ) // 2
            assert int(pair[position]) == expected_pair

    # Per-row gathers reconstruct per-row verdicts of the first-encounter
    # unique each row was factorized to.
    row_fit = fit[codes.codes]
    assert row_fit.tolist() == fit_reference(
        key, [uniques[code] for code in raw], e
    )
    assert np.count_nonzero(row_fit) == sum(row_fit.tolist())
