"""Pauli-string expansion and product-form analysis of dense operators.

A Pauli sum is a plain dict mapping letter strings to complex
coefficients, e.g. {"IX": 0.5, "ZY": -0.5j} (qubit 0 first); it is the one
Pauli-sum type here.  `pauli_expand` returns one, `pauli_reconstruct` is
the one routine that turns one back into a matrix, and the single-qubit
factors of `normalize_factor` and `FactoredOperator` are one-letter sums.

The expansion coefficient of a string P on n qubits is tr(P^dag M) / 2^n.
Strings are ordered lexicographically in I < X < Y < Z per qubit, and
coefficients below 1e-14 in magnitude are dropped.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from .frobenius import MAX_DOCUMENT_QUBITS, DenseOperator

__all__ = [
    "PAULI_LETTERS",
    "FactoredOperator",
    "NormalizedFactor",
    "pauli_expand",
    "pauli_reconstruct",
    "normalize_factor",
    "factorization_residual",
]

PAULI_LETTERS = "IXYZ"

PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

DROP_TOLERANCE = 1e-14


def _check_sum(terms: Mapping[str, complex], width: int) -> None:
    """Every key of a Pauli sum is `width` letters from IXYZ and every
    coefficient is finite, otherwise ValueError."""
    for letters, c in terms.items():
        if not (isinstance(letters, str) and len(letters) == width > 0
                and all(ch in PAULI_LETTERS for ch in letters)):
            raise ValueError(f"bad Pauli string {letters!r} for {width} qubit(s)")
        if not cmath.isfinite(c):
            raise ValueError(f"coefficient of {letters!r} must be finite, got {c!r}")


def _as_matrix(op: Union[DenseOperator, np.ndarray]) -> np.ndarray:
    return op.matrix if isinstance(op, DenseOperator) else np.asarray(op, dtype=complex)


def _qubit_count(mat: np.ndarray) -> int:
    rows, cols = mat.shape
    if rows != cols:
        raise ValueError("Pauli expansion needs a square matrix")
    n = rows.bit_length() - 1
    if 2**n != rows or n < 1:
        raise ValueError(f"matrix size {rows} is not a power of two >= 2")
    return n


# Row k of this matrix is conj(P_k) flattened over the (row, col) entry
# index, divided by 2, so contracting it against an operator tensor yields
# tr(P_k^dag M) / 2 one qubit at a time.
_EXPANSION_BASIS = np.stack(
    [PAULI_1Q[ch].conj().reshape(4) for ch in PAULI_LETTERS]
) / 2.0


_LETTER_ARRAY = np.array(list(PAULI_LETTERS))


def _entry_tensor(mat: np.ndarray, n: int) -> np.ndarray:
    """Reshape an operator into a (4,)*n tensor with one combined
    (row-bit, col-bit) axis per qubit, qubit 0 first."""
    t = mat.reshape((2,) * (2 * n))
    order = [axis for pair in zip(range(n), range(n, 2 * n)) for axis in pair]
    return t.transpose(order).reshape((4,) * n)


def pauli_expand(op: Union[DenseOperator, np.ndarray]) -> dict[str, complex]:
    """Expand a square operator into a Pauli sum.

    Deterministic: strings come out in lexicographic I < X < Y < Z order and
    the contraction order is fixed, so equal inputs give bit-equal outputs.
    A NaN or infinite entry raises ValueError rather than being dropped.
    """
    mat = _as_matrix(op)
    n = _qubit_count(mat)
    if not np.isfinite(mat).all():
        raise ValueError("operator entries must be finite")
    coeffs = _entry_tensor(mat, n)
    for _ in range(n):
        # consume the leading entry axis, append the letter axis at the end
        coeffs = np.tensordot(coeffs, _EXPANSION_BASIS, axes=([0], [1]))
    # argwhere lists the kept keys in C order, which is the I < X < Y < Z
    # lexicographic order of their strings; hypot is the magnitude Python's
    # abs(complex) gives, while np.abs can differ from it in the last place
    keys = np.argwhere(np.hypot(coeffs.real, coeffs.imag) > DROP_TOLERANCE)
    values = coeffs[tuple(keys.T)].tolist()
    # one letter per (key, qubit); each row read as one n-letter string
    strings = np.ascontiguousarray(_LETTER_ARRAY[keys]).view(f"U{n}")[:, 0].tolist()
    return dict(zip(strings, values))


def pauli_reconstruct(terms: Mapping[str, complex], n_qubits: int) -> np.ndarray:
    """Sum coefficient * string over an `n_qubits`-qubit Pauli sum into a
    dense matrix, in the sum's order."""
    _check_sum(terms, n_qubits)
    out = np.zeros((2**n_qubits, 2**n_qubits), dtype=complex)
    for letters, c in terms.items():
        string = PAULI_1Q[letters[0]]
        for ch in letters[1:]:
            string = np.kron(string, PAULI_1Q[ch])
        out += c * string
    return out


@dataclass(frozen=True)
class NormalizedFactor:
    """A single-qubit operator sum(m_k * exp(i phase_k) * sigma_k) with
    magnitudes m_k >= 0.  `normalize_factor` makes the magnitudes of a
    factor of at most two terms sum to 1 (L1), and the squared magnitudes
    of a three- or four-term factor sum to 1 (L2)."""

    letters: str
    magnitudes: tuple[float, ...]
    phases: tuple[float, ...]

    def __post_init__(self):
        if len(self.letters) != len(self.magnitudes) or len(self.letters) != len(self.phases):
            raise ValueError("letters, magnitudes and phases must align")

    def coefficients(self) -> dict[str, complex]:
        return {
            letter: m * np.exp(1j * phase)
            for letter, m, phase in zip(self.letters, self.magnitudes, self.phases)
        }

    def matrix(self) -> np.ndarray:
        return pauli_reconstruct(self.coefficients(), 1)


def normalize_factor(factor: Mapping[str, complex]) -> tuple[NormalizedFactor, complex]:
    """Split a single-qubit expansion into (normalized factor, scale).

    Factors with one or two nonzero terms are normalized so the coefficient
    magnitudes sum to 1; factors with three or four terms so the squared
    magnitudes sum to 1.  The returned scale is the removed positive
    constant: scale * normalized == input.  A key other than one Pauli
    letter, or a NaN or infinite coefficient, raises ValueError.
    """
    _check_sum(factor, 1)
    items = []
    for letter in PAULI_LETTERS:
        c = complex(factor.get(letter, 0.0))
        if abs(c) > DROP_TOLERANCE:
            items.append((letter, c))
    if not items:
        raise ValueError("factor has no nonzero coefficient")
    mags = np.array([abs(c) for _, c in items])
    if len(items) <= 2:
        scale = float(mags.sum())
    else:
        scale = float(np.sqrt((mags**2).sum()))
    normalized = NormalizedFactor(
        letters="".join(letter for letter, _ in items),
        magnitudes=tuple(float(m / scale) for m in mags),
        phases=tuple(float(np.angle(c)) for _, c in items),
    )
    return normalized, complex(scale)


@dataclass(frozen=True, eq=False)
class FactoredOperator:
    """A claimed product form: factor_0 (x) factor_1 (x) ...

    Each factor is a one-qubit Pauli sum with finite coefficients, at least
    one of them nonzero; factor k acts on qubit k.
    """

    factors: tuple[Mapping[str, complex], ...]

    def __post_init__(self):
        if not self.factors:
            raise ValueError("need at least one factor")
        for f in self.factors:
            _check_sum(f, 1)
            if not any(abs(complex(v)) > 0 for v in f.values()):
                raise ValueError("every factor needs a nonzero coefficient")

    @property
    def n_qubits(self) -> int:
        return len(self.factors)

    def matrix(self) -> np.ndarray:
        """The 2^n x 2^n product; wider than MAX_DOCUMENT_QUBITS is refused
        before any allocation."""
        if self.n_qubits > MAX_DOCUMENT_QUBITS:
            raise ValueError(f"a product of {self.n_qubits} one-qubit factors is a "
                             f"{self.n_qubits}-qubit matrix, over the "
                             f"{MAX_DOCUMENT_QUBITS}-qubit limit")
        out = pauli_reconstruct(self.factors[0], 1)
        for f in self.factors[1:]:
            out = np.kron(out, pauli_reconstruct(f, 1))
        return out


def factorization_residual(claimed: Union[FactoredOperator, np.ndarray],
                           exact: Union[DenseOperator, np.ndarray]) -> float:
    """Relative Frobenius distance || expand(claimed) - exact || / || exact ||;
    `claimed` may also be the already expanded matrix."""
    target = _as_matrix(exact)
    got = claimed.matrix() if isinstance(claimed, FactoredOperator) else _as_matrix(claimed)
    if got.shape != target.shape:
        raise ValueError(f"shape mismatch {got.shape} vs {target.shape}")
    denom = float(np.linalg.norm(target))
    if denom == 0.0:
        raise ValueError("exact operator is zero")
    return float(np.linalg.norm(got - target) / denom)
