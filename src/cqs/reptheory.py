"""Irrep tables for truncated 2D Yang-Mills state sums.

An irrep enters the toolkit as a (label, casimir, dim) triple.  For SU(3)
the quadratic Casimir and dimension are computed from Dynkin labels (p, q)
and kept as exact rationals / integers so that table comparisons stay
exact; conversion to floating point happens only when operators are built.
Tables for other groups are loaded from JSON documents and are validated
structurally (distinct labels, dims >= 1) but not group-theoretically.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Union

__all__ = [
    "IrrepLabel",
    "RepEntry",
    "RepTable",
    "casimir_su3",
    "dim_su3",
    "su3_truncation",
    "load_rep_table",
    "dump_rep_table",
]

Scalar = Union[int, float, Fraction]

_LABEL_RE = re.compile(r"^D\((\d+),\s*(\d+)\)$")


@dataclass(frozen=True)
class IrrepLabel:
    """SU(3) Dynkin labels (p, q), both non-negative."""

    p: int
    q: int

    def __post_init__(self):
        if not (isinstance(self.p, int) and isinstance(self.q, int)):
            raise TypeError("Dynkin labels must be integers")
        if self.p < 0 or self.q < 0:
            raise ValueError(f"Dynkin labels must be non-negative, got ({self.p}, {self.q})")

    def __str__(self) -> str:
        return f"D({self.p},{self.q})"

    @staticmethod
    def parse(text: str) -> "IrrepLabel | None":
        """Parse 'D(p,q)' back into a label; None if the text is not of that shape."""
        m = _LABEL_RE.match(text.strip())
        return IrrepLabel(int(m.group(1)), int(m.group(2))) if m else None


Label = Union[IrrepLabel, str]


@dataclass(frozen=True)
class RepEntry:
    """One irrep: an identifying label, its Casimir eigenvalue and dimension."""

    label: Label
    casimir: Scalar
    dim: int

    def __post_init__(self):
        if not isinstance(self.dim, int) or self.dim < 1:
            raise ValueError(f"dim must be an integer >= 1, got {self.dim!r}")
        if isinstance(self.casimir, float) and not math.isfinite(self.casimir):
            raise ValueError("casimir must be finite")


@dataclass(frozen=True)
class RepTable:
    """Ordered truncation of a group's irrep list."""

    entries: tuple[RepEntry, ...]
    group_name: str = ""

    def __post_init__(self):
        if not self.entries:
            raise ValueError("a rep table needs at least one entry")
        labels = [e.label for e in self.entries]
        if len(set(map(str, labels))) != len(labels):
            raise ValueError("duplicate labels in rep table")

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[RepEntry]:
        return iter(self.entries)

    def labels(self) -> tuple[Label, ...]:
        return tuple(e.label for e in self.entries)


def casimir_su3(p: int, q: int) -> Fraction:
    """Quadratic Casimir eigenvalue of the SU(3) irrep with Dynkin labels (p, q).

    Returned as an exact rational: (4/3) * (p^2 + q^2 + p q + 3 p + 3 q).
    """
    lbl = IrrepLabel(p, q)  # validates
    return Fraction(4, 3) * (lbl.p**2 + lbl.q**2 + lbl.p * lbl.q + 3 * lbl.p + 3 * lbl.q)


def dim_su3(p: int, q: int) -> int:
    """Dimension of the SU(3) irrep (p, q): (p+1)(q+1)(p+q+2)/2, always integral."""
    lbl = IrrepLabel(p, q)
    product = (lbl.p + 1) * (lbl.q + 1) * (lbl.p + lbl.q + 2)
    assert product % 2 == 0
    return product // 2


_FIRST_THREE = (IrrepLabel(0, 0), IrrepLabel(1, 0), IrrepLabel(0, 1))


def _su3_entry(label: IrrepLabel) -> RepEntry:
    return RepEntry(label, casimir_su3(label.p, label.q), dim_su3(label.p, label.q))


def su3_truncation(count: int) -> RepTable:
    """First `count` SU(3) irreps of the truncation.

    The singlet and the two fundamentals come first, in that conventional
    order; every further entry is drawn from all remaining (p, q) sorted by
    (casimir, dim, p, q) ascending, so truncations of different sizes agree
    on their common prefix.  `count` lies in [1, 2**MAX_DOCUMENT_QUBITS - 1],
    the most irreps a default encoding fits in one circle register of
    frobenius.MAX_DOCUMENT_QUBITS qubits.
    """
    from .frobenius import MAX_DOCUMENT_QUBITS

    limit = 2**MAX_DOCUMENT_QUBITS - 1
    if not 1 <= count <= limit:
        raise ValueError(f"count must lie in [1, {limit}]")
    entries = [_su3_entry(lbl) for lbl in _FIRST_THREE[:count]]
    needed = count - len(entries)
    if needed > 0:
        # The labels with p + q <= s number (s + 1)(s + 2) / 2, the first
        # three included, and have Casimir <= (4/3)(s^2 + 3s); a label with
        # p + q = t has Casimir >= t^2 + 4t, so none beyond level `top` can
        # sort ahead of the last entry taken.
        s = 1
        while (s + 1) * (s + 2) // 2 - 3 < needed:
            s += 1
        top = s
        while 3 * ((top + 1) ** 2 + 4 * (top + 1)) <= 4 * (s * s + 3 * s):
            top += 1
        # levels 0 and 1 hold exactly the first three
        cands = sorted(
            (
                _su3_entry(IrrepLabel(p, level - p))
                for level in range(2, top + 1)
                for p in range(level + 1)
            ),
            key=lambda e: (e.casimir, e.dim, e.label.p, e.label.q),
        )
        entries.extend(cands[:needed])
    return RepTable(tuple(entries), group_name="su3")


def _parse_casimir(value) -> Scalar:
    if isinstance(value, bool):
        raise ValueError(f"bad casimir value {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError("casimir must be finite")
        return value
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad casimir value {value!r}") from exc
    raise ValueError(f"bad casimir value {value!r}")


def _parse_label(value) -> Label:
    if not isinstance(value, str) or not value:
        raise ValueError(f"bad label {value!r}")
    return IrrepLabel.parse(value) or value


def load_rep_table(source: "dict | str") -> RepTable:
    """Build a RepTable from a JSON document (text or already-parsed dict).

    Expected shape: {"group_name": str, "entries": [{"label", "casimir",
    "dim"}, ...]}.  Casimir values may be numbers or exact fraction strings
    such as "16/3"; labels of the form "D(p,q)" are recognised as SU(3)
    Dynkin labels.
    """
    if isinstance(source, str):
        try:
            doc = json.loads(source)
        except json.JSONDecodeError as exc:
            raise ValueError(f"rep table is not valid JSON: {exc}") from exc
    else:
        doc = source
    if not isinstance(doc, dict) or "entries" not in doc:
        raise ValueError("rep table document must be an object with an 'entries' list")
    raw = doc["entries"]
    if not isinstance(raw, list) or not raw:
        raise ValueError("rep table needs a non-empty 'entries' list")
    entries = []
    for item in raw:
        if not isinstance(item, dict):
            raise ValueError("each entry must be an object")
        try:
            label = _parse_label(item["label"])
            casimir = _parse_casimir(item["casimir"])
            dim = item["dim"]
        except KeyError as exc:
            raise ValueError(f"entry missing field {exc}") from exc
        if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
            raise ValueError(f"dim must be an integer >= 1, got {dim!r}")
        entries.append(RepEntry(label, casimir, dim))
    return RepTable(tuple(entries), group_name=str(doc.get("group_name", "")))


def _dump_casimir(value: Scalar):
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else str(value)
    return value


def dump_rep_table(table: RepTable) -> dict:
    """Serialize a RepTable to the JSON document shape accepted by load_rep_table."""
    return {
        "group_name": table.group_name,
        "entries": [
            {"label": str(e.label), "casimir": _dump_casimir(e.casimir), "dim": e.dim}
            for e in table
        ],
    }
