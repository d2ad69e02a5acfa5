"""Positional writes in code space: ``Table.apply_codes`` and the
re-canonicalization behind it and ``Table.take``."""

from __future__ import annotations

import numpy as np
import pytest

from repro.relational import Table, make_categorical_attribute
from repro.relational.schema import Attribute, Schema
from repro.relational.table import _canonical_codes
from repro.relational.types import AttributeType


def _reference(raw: np.ndarray, uniques: list) -> tuple[list, list]:
    """The sort-based re-canonicalization (``np.unique`` first
    positions, stably ordered): codes list and uniques."""
    used, first_positions = np.unique(raw, return_index=True)
    encounter = used[np.argsort(first_positions, kind="stable")]
    translate = np.empty(int(used[-1]) + 1 if len(used) else 0, np.int32)
    translate[encounter] = np.arange(len(encounter), dtype=np.int32)
    return translate[raw].tolist(), [uniques[i] for i in encounter.tolist()]


def _raw_cases():
    draw = np.random.default_rng(29)
    uniques = [f"u{i}" for i in range(500)]
    for size in (1, 7, 100, 8000):
        # codes from a subset of the uniques: most of them stay unused
        used = draw.choice(500, size=min(40, size), replace=False)
        yield f"unused-{size}", draw.choice(used, size=size), uniques
    yield "single-code", np.full(50, 17), uniques
    yield "all-distinct", draw.permutation(500), uniques
    yield "empty", np.empty(0), uniques
    yield "empty-uniques", np.empty(0), []


@pytest.mark.parametrize(
    "raw, uniques",
    [case[1:] for case in _raw_cases()],
    ids=[case[0] for case in _raw_cases()],
)
def test_canonical_codes_match_the_sorting_reference(raw, uniques):
    raw = raw.astype(np.int32)
    canonical = _canonical_codes(raw, uniques)
    codes, expected_uniques = _reference(raw, uniques)
    assert canonical.codes.dtype == np.int32
    assert canonical.codes.tolist() == codes
    assert canonical.uniques == expected_uniques
    assert not canonical.codes.flags.writeable
    # first-encounter form: decoding gives back the raw column
    assert [canonical.uniques[c] for c in canonical.codes.tolist()] == [
        uniques[c] for c in raw.tolist()
    ]


VALUES = [f"v{i}" for i in range(10)]


def _table() -> Table:
    """40 rows over v0..v5, first met in the order v0, v5, v4, v3, v2,
    v1; v6..v9 are in the domain, not the column."""
    schema = Schema(
        (
            Attribute("id", AttributeType.INTEGER),
            make_categorical_attribute("value", VALUES),
        ),
        primary_key="id",
    )
    return Table(schema, [(i, VALUES[(i * 5) % 6]) for i in range(40)])


#: the shapes ``positions`` and ``codes`` may arrive in
FORMS = {
    "list": list,
    "tuple": tuple,
    "generator": lambda values: (value for value in values),
    "int32": lambda values: np.asarray(values, dtype=np.int32),
    "int64": lambda values: np.asarray(values, dtype=np.int64),
    "intp": lambda values: np.asarray(values, dtype=np.intp),
}


def _apply(form, positions, codes, extra=()):
    table = _table()
    base = table.column_codes("value")
    written = table.apply_codes(
        "value", FORMS[form](positions), FORMS[form](codes), base, extra
    )
    return table, written


def _outcome(table: Table) -> tuple:
    installed = table.column_codes("value", build=False)
    return (
        installed.codes.tolist(),
        list(installed.uniques),
        table.version,
        list(table),
    )


class TestApplyCodesInputs:
    # base codes: v0 0, v5 1, v4 2, v3 3, v2 4, v1 5; code 6 is the extra
    # value v8.  Row 0's v0 is overwritten, so the encounter order moves.
    POSITIONS = [3, 0, 39, 12, 5]
    CODES = [6, 2, 0, 6, 5]

    @pytest.mark.parametrize("form", FORMS)
    def test_every_form_writes_the_same_cells_and_codes(self, form):
        reference, written = _apply("list", self.POSITIONS, self.CODES,
                                    ("v8",))
        assert written == len(self.POSITIONS)
        table, written = _apply(form, self.POSITIONS, self.CODES, ("v8",))
        assert written == len(self.POSITIONS)
        assert _outcome(table) == _outcome(reference)
        rebuilt = table.clone().column_codes("value")
        installed = table.column_codes("value", build=False)
        assert installed.codes.tolist() == rebuilt.codes.tolist()
        assert installed.uniques == rebuilt.uniques

    def test_cells_land_where_the_codes_say(self):
        table, _ = _apply("int64", self.POSITIONS, self.CODES, ("v8",))
        uniques = list(_table().column_codes("value").uniques) + ["v8"]
        for position, code in zip(self.POSITIONS, self.CODES):
            assert table.column_view("value")[position] == uniques[code]

    def test_the_staged_batch_keeps_its_own_copy(self):
        """Rows are written on the first row read; writes to the caller's
        arrays after the call must not reach them."""
        reference, _ = _apply("list", self.POSITIONS, self.CODES, ("v8",))
        table = _table()
        base = table.column_codes("value")
        positions = np.asarray(self.POSITIONS, dtype=np.intp)
        codes = np.asarray(self.CODES, dtype=np.int32)
        table.apply_codes("value", positions, codes, base, ("v8",))
        positions[:] = 1
        codes[:] = 0
        assert _outcome(table) == _outcome(reference)

    @pytest.mark.parametrize("form", FORMS)
    def test_empty_batch_writes_nothing(self, form):
        table, written = _apply(form, [], [])
        assert written == 0
        assert table.version == _table().version

    @pytest.mark.parametrize("form", FORMS)
    @pytest.mark.parametrize(
        "positions, codes, error",
        [
            ([0, 1], [0, 6], IndexError),    # code past the uniques
            ([0, 1], [-1, 0], IndexError),   # negative code
            ([0, 40], [0, 1], IndexError),   # position past the rows
            ([-1, 2], [0, 1], IndexError),   # negative position
            ([0, 1, 2], [0, 1], ValueError),  # unequal lengths
        ],
        ids=["code-high", "code-low", "position-high", "position-low",
             "lengths"],
    )
    def test_every_form_raises_the_same_error(
        self, form, positions, codes, error
    ):
        with pytest.raises(error) as expected:
            _apply("list", positions, codes)
        table = _table()
        base = table.column_codes("value")
        version = table.version
        with pytest.raises(error) as raised:
            table.apply_codes(
                "value", FORMS[form](positions), FORMS[form](codes), base
            )
        assert str(raised.value) == str(expected.value)
        # atomic: nothing staged, the factorization untouched
        assert table.version == version
        assert table.column_codes("value", build=False) is base

    @pytest.mark.parametrize("form", FORMS)
    def test_stale_base_is_rejected(self, form):
        table = _table()
        base = table.column_codes("value")
        table.set_value(0, "value", "v1")
        with pytest.raises(ValueError, match="base is not"):
            table.apply_codes("value", FORMS[form]([1]), FORMS[form]([0]),
                              base)
