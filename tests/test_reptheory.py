"""Irrep table construction and (de)serialization."""

import json
from fractions import Fraction

import pytest

from cqs.reptheory import (
    IrrepLabel,
    RepEntry,
    RepTable,
    casimir_su3,
    dim_su3,
    dump_rep_table,
    load_rep_table,
    su3_truncation,
)


def test_casimir_printed_values_exact():
    # the three truncation irreps, as exact rationals
    assert casimir_su3(0, 0) == Fraction(0)
    assert casimir_su3(1, 0) == Fraction(16, 3)
    assert casimir_su3(0, 1) == Fraction(16, 3)


def test_casimir_formula_oracle():
    # independent evaluation of (4/3)(p^2 + q^2 + pq + 3p + 3q)
    for p in range(5):
        for q in range(5):
            expected = Fraction(4 * (p * p + q * q + p * q + 3 * p + 3 * q), 3)
            got = casimir_su3(p, q)
            assert isinstance(got, Fraction)
            assert got == expected


def test_dim_printed_values():
    assert dim_su3(0, 0) == 1
    assert dim_su3(1, 0) == 3
    assert dim_su3(0, 1) == 3
    assert dim_su3(1, 1) == 8
    assert dim_su3(3, 0) == 10
    assert dim_su3(2, 2) == 27


def test_label_validation():
    with pytest.raises(ValueError):
        IrrepLabel(-1, 0)
    for bad in ((1.0, 0), (True, 0), (0, False)):
        with pytest.raises(TypeError):
            IrrepLabel(*bad)


def test_label_parse_roundtrip():
    for p, q in [(0, 0), (1, 0), (0, 1), (12, 7)]:
        lbl = IrrepLabel(p, q)
        assert IrrepLabel.parse(str(lbl)) == lbl
    assert IrrepLabel.parse("D(2, 3)") == IrrepLabel(2, 3)
    assert IrrepLabel.parse("not a label") is None
    assert IrrepLabel.parse("D(-1,0)") is None


def test_truncation_forced_prefix():
    table = su3_truncation(3)
    assert table.labels() == (IrrepLabel(0, 0), IrrepLabel(1, 0), IrrepLabel(0, 1))
    assert [e.dim for e in table] == [1, 3, 3]
    assert [e.casimir for e in table] == [Fraction(0), Fraction(16, 3), Fraction(16, 3)]


def test_truncation_against_bruteforce_sort():
    # oracle: enumerate the square 0 <= p, q < span, force the conventional
    # first three, sort the rest by (casimir, dim, p, q)
    span = 64
    first = [IrrepLabel(0, 0), IrrepLabel(1, 0), IrrepLabel(0, 1)]
    rest = sorted(
        (
            (casimir_su3(p, q), dim_su3(p, q), p, q)
            for p in range(span)
            for q in range(span)
            if IrrepLabel(p, q) not in first
        ),
    )
    expected = first + [IrrepLabel(p, q) for _, _, p, q in rest]
    # every label outside the square has Casimir >= casimir_su3(span, 0)
    outside = casimir_su3(span, 0)
    for count in (1, 2, 3, 4, 7, 12, 20, 100, 101, 299, 1000):
        table = su3_truncation(count)
        assert table.entries[-1].casimir < outside  # the square covers this count
        assert list(table.labels()) == expected[:count]


def test_truncation_prefix_stability():
    big = su3_truncation(11)
    for count in range(1, 11):
        assert su3_truncation(count).entries == big.entries[:count]


def test_truncation_rejects_bad_count():
    # 4095 = 2**12 - 1 irreps fill a 12-qubit default-encoded circle register
    for bad in (0, -1, 4096, 100000):
        with pytest.raises(ValueError, match=r"\[1, 4095\]"):
            su3_truncation(bad)
    assert len(su3_truncation(4095)) == 4095


def test_rep_entry_validation():
    with pytest.raises(ValueError):
        RepEntry("R", 1.0, 0)
    with pytest.raises(ValueError):
        RepEntry("R", float("inf"), 2)
    # booleans, non-numbers, and values with no finite float form
    for casimir, dim in ((1, True), (True, 2), ("abc", 2), (None, 2), (10**400, 2),
                         (Fraction(10**400, 3), 2), (1, 10**400)):
        with pytest.raises(ValueError):
            RepEntry("x", casimir, dim)
    assert RepEntry("x", 2, 1).casimir == 2


def test_rep_table_rejects_duplicates():
    e = RepEntry(IrrepLabel(0, 0), Fraction(0), 1)
    with pytest.raises(ValueError):
        RepTable((e, e))
    with pytest.raises(ValueError):
        RepTable(())


def test_dump_load_roundtrip():
    table = su3_truncation(5)
    doc = dump_rep_table(table)
    # must survive a real JSON round trip, fractions as strings
    back = load_rep_table(json.dumps(doc))
    assert back.group_name == "su3"
    assert back.entries == table.entries


def test_dump_casimir_forms():
    doc = dump_rep_table(su3_truncation(3))
    values = [e["casimir"] for e in doc["entries"]]
    assert values == [0, "16/3", "16/3"]


def test_load_accepts_floats_and_plain_labels():
    doc = {
        "group_name": "toy",
        "entries": [
            {"label": "triv", "casimir": 0, "dim": 1},
            {"label": "fund", "casimir": 1.25, "dim": 2},
        ],
    }
    table = load_rep_table(doc)
    assert table.group_name == "toy"
    assert table.entries[0].casimir == Fraction(0)
    assert table.entries[1].casimir == 1.25
    assert table.labels() == ("triv", "fund")


@pytest.mark.parametrize(
    "doc",
    [
        {"entries": []},
        {"entries": [{"label": "a", "casimir": 0}]},
        {"entries": [{"label": "a", "casimir": 0, "dim": 0}]},
        {"entries": [{"label": "a", "casimir": 0, "dim": True}]},
        {"entries": [{"label": "a", "casimir": True, "dim": 1}]},
        {"entries": [{"label": "a", "casimir": [1], "dim": 1}]},
        {"entries": [{"label": "a", "casimir": "1e400", "dim": 1}]},
        {"entries": [{"label": "a", "casimir": 10**400, "dim": 1}]},
        {"entries": [{"label": "a", "casimir": 0, "dim": 10**400}]},
        {"entries": [{"label": "a", "casimir": "x/y", "dim": 1}]},
        {"entries": [{"label": "", "casimir": 0, "dim": 1}]},
        {"entries": [{"label": "a", "casimir": 0, "dim": 1}, {"label": "a", "casimir": 1, "dim": 2}]},
        {"no_entries": True},
        ["not", "an", "object"],
    ],
)
def test_load_rejects_malformed(doc):
    with pytest.raises(ValueError):
        load_rep_table(doc)


def test_load_rejects_bad_json_text():
    with pytest.raises(ValueError):
        load_rep_table("{not json")


@pytest.mark.parametrize("name", [["x", 1], None, 3, {"a": "b"}, True])
def test_load_refuses_a_non_string_group_name(name):
    doc = {"group_name": name, "entries": [{"label": "a", "casimir": 0, "dim": 1}]}
    with pytest.raises(ValueError, match="'group_name' must be a string") as refusal:
        load_rep_table(doc)
    assert "\n" not in str(refusal.value)


def test_load_without_group_name_is_unnamed():
    table = load_rep_table({"entries": [{"label": "a", "casimir": 0, "dim": 1}]})
    assert table.group_name == ""


def test_float_casimir_round_trips():
    doc = {"group_name": "toy", "entries": [{"label": "a", "casimir": 0.75, "dim": 2}]}
    table = load_rep_table(json.dumps(doc))
    assert table.entries[0].casimir == 0.75 and isinstance(table.entries[0].casimir, float)
    assert dump_rep_table(table) == doc
