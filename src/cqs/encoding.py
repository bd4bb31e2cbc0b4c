"""Bitstring encodings of irrep tables.

Each circle of the lattice carries a fixed-width register.  The all-zeros
pattern is reserved for the vacuum (no circle / padding), and every irrep in
a table gets a distinct nonzero pattern.  Multi-circle registers concatenate
per-circle patterns left to right, so appending vacuum circles never changes
the meaning of the leading bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .reptheory import Label, RepTable

__all__ = [
    "EncodingMap",
    "default_encoding",
]


def _check_bits(bits: str, width: int) -> None:
    if len(bits) != width or any(ch not in "01" for ch in bits):
        raise ValueError(f"bad bit pattern {bits!r} for width {width}")


@dataclass(frozen=True)
class EncodingMap:
    """Assignment of bit patterns to the irreps of one table.

    `assignments` is an ordered tuple of (label, bits) pairs; order follows
    the underlying table.  The vacuum pattern is always the all-zeros string.
    """

    bits_per_circle: int
    vacuum: str
    assignments: tuple[tuple[Label, str], ...]
    _by_label: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.bits_per_circle < 1:
            raise ValueError("bits_per_circle must be >= 1")
        _check_bits(self.vacuum, self.bits_per_circle)
        if self.vacuum != "0" * self.bits_per_circle:
            raise ValueError("the vacuum pattern is reserved as all zeros")
        by_label: dict = {}
        names: set = set()
        patterns: set = set()
        for label, bits in self.assignments:
            _check_bits(bits, self.bits_per_circle)
            if bits == self.vacuum:
                raise ValueError(f"irrep {label} assigned the vacuum pattern")
            if str(label) in names or bits in patterns:
                raise ValueError("encoding assignments must be injective")
            by_label[label] = bits
            names.add(str(label))
            patterns.add(bits)
        object.__setattr__(self, "_by_label", by_label)

    def bits(self, label: Label) -> str:
        try:
            return self._by_label[label]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"label {label!r} is not in this encoding") from exc

    def covers(self, table: RepTable) -> bool:
        return all(e.label in self._by_label for e in table)


def default_encoding(table: RepTable) -> EncodingMap:
    """Canonical encoding: ceil(log2(n+1)) bits, patterns assigned in table
    order by descending numeric value starting from the all-ones pattern."""
    n = len(table)
    bits_per_circle = max(1, math.ceil(math.log2(n + 1)))
    width = bits_per_circle
    values = range(2**width - 1, 2**width - 1 - n, -1)
    assignments = tuple(
        (entry.label, format(value, f"0{width}b"))
        for entry, value in zip(table, values)
    )
    return EncodingMap(width, "0" * width, assignments)
