"""Bit-pattern encodings of irrep tables."""

import pytest

from cqs.encoding import EncodingMap, default_encoding
from cqs.reptheory import IrrepLabel, RepEntry, RepTable, su3_truncation


def toy_table(n):
    return RepTable(tuple(RepEntry(f"R{k}", float(k), k + 1) for k in range(n)))


def test_template_su3_patterns():
    # the paper's two-bit patterns: singlet 11, fundamentals 10 / 01, vacuum 00
    enc = default_encoding(su3_truncation(3))
    assert enc.bits_per_circle == 2
    assert enc.vacuum == "00"
    assert enc.bits(IrrepLabel(0, 0)) == "11"
    assert enc.bits(IrrepLabel(1, 0)) == "10"
    assert enc.bits(IrrepLabel(0, 1)) == "01"


@pytest.mark.parametrize("n,width", [(1, 1), (2, 2), (3, 2), (4, 3), (7, 3), (8, 4)])
def test_default_width(n, width):
    # n irreps plus the reserved vacuum need ceil(log2(n+1)) bits
    assert default_encoding(toy_table(n)).bits_per_circle == width


def test_default_patterns_descend_from_all_ones():
    enc = default_encoding(toy_table(5))
    got = [bits for _, bits in enc.assignments]
    assert got == ["111", "110", "101", "100", "011"]


def test_injectivity_and_vacuum_reserved():
    enc = default_encoding(toy_table(6))
    patterns = [bits for _, bits in enc.assignments]
    assert len(set(patterns)) == len(patterns)
    assert enc.vacuum not in patterns


def test_lookup_errors():
    enc = default_encoding(su3_truncation(3))
    with pytest.raises(ValueError):
        enc.bits(IrrepLabel(2, 2))


def test_covers():
    enc = default_encoding(su3_truncation(3))
    assert enc.covers(su3_truncation(3))
    assert enc.covers(su3_truncation(2))
    assert not enc.covers(su3_truncation(4))


def test_constructor_rejects_bad_maps():
    with pytest.raises(ValueError):
        EncodingMap(2, "01", (("a", "11"),))  # vacuum must be zeros
    with pytest.raises(ValueError):
        EncodingMap(2, "00", (("a", "00"),))  # vacuum pattern reused
    with pytest.raises(ValueError):
        EncodingMap(2, "00", (("a", "11"), ("b", "11")))
    with pytest.raises(ValueError):
        EncodingMap(2, "00", (("a", "11"), ("a", "10")))
    with pytest.raises(ValueError):
        # a Dynkin label and its string name are the same irrep
        EncodingMap(2, "00", ((IrrepLabel(1, 0), "11"), ("D(1,0)", "10")))
    with pytest.raises(ValueError):
        EncodingMap(2, "00", (("a", "1"),))  # ragged pattern
    with pytest.raises(ValueError):
        EncodingMap(0, "", ())
