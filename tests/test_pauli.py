"""Pauli expansion, factor normalization, and product-form residuals."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqs.pauli import (
    DROP_TOLERANCE,
    PAULI_1Q,
    PAULI_LETTERS,
    FactoredOperator,
    factorization_residual,
    normalize_factor,
    pauli_expand,
    pauli_reconstruct,
)
from cqs.pauli import _EXPANSION_BASIS, _entry_tensor


def test_projector_patterns_exact():
    # (I +/- Z) / 2 and (X +/- iY) / 2, with binary-exact coefficients
    assert pauli_expand(np.array([[1, 0], [0, 0]])) == {"I": 0.5, "Z": 0.5}
    assert pauli_expand(np.array([[0, 0], [0, 1]])) == {"I": 0.5, "Z": -0.5}
    assert pauli_expand(np.array([[0, 1], [0, 0]])) == {"X": 0.5, "Y": 0.5j}
    assert pauli_expand(np.array([[0, 0], [1, 0]])) == {"X": 0.5, "Y": -0.5j}


def test_single_letters_recover_themselves():
    for letter in PAULI_LETTERS:
        assert pauli_expand(PAULI_1Q[letter]) == {letter: 1.0}


def test_two_qubit_ketbra():
    # |10><01| = (X - iY)/2 (x) (X + iY)/2
    mat = np.zeros((4, 4), dtype=complex)
    mat[0b10, 0b01] = 1.0
    got = pauli_expand(mat)
    assert got == {"XX": 0.25, "XY": 0.25j, "YX": -0.25j, "YY": 0.25}


def test_expansion_oracle_by_trace():
    # coefficient = tr(P^dag M) / 2^n, checked against direct traces
    rng = np.random.default_rng(7)
    mat = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    got = pauli_expand(mat)
    for letters, coefficient in got.items():
        p = pauli_reconstruct({letters: 1.0}, 3)
        direct = np.trace(p.conj().T @ mat) / 8
        assert coefficient == pytest.approx(direct, abs=1e-12)


def test_strings_lexicographic():
    rng = np.random.default_rng(3)
    mat = rng.normal(size=(8, 8))
    d = pauli_expand(mat)
    assert list(d) == sorted(d)


def test_roundtrip_random():
    rng = np.random.default_rng(42)
    for n in (1, 2, 3, 4):
        for _ in range(5):
            dim = 2**n
            mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            back = pauli_reconstruct(pauli_expand(mat), n)
            assert np.max(np.abs(back - mat)) < 1e-12


def test_small_coefficients_dropped():
    assert pauli_expand(1e-16 * PAULI_1Q["X"]) == {}
    back = pauli_reconstruct({}, 1)
    assert np.array_equal(back, np.zeros((2, 2)))


def expand_by_ndindex(mat):
    """The scan pauli_expand ran before it thresholded the whole tensor at
    once: every one of the 4^n keys, in np.ndindex order."""
    n = mat.shape[0].bit_length() - 1
    coeffs = _entry_tensor(mat, n)
    for _ in range(n):
        coeffs = np.tensordot(coeffs, _EXPANSION_BASIS, axes=([0], [1]))
    terms = {}
    for key in np.ndindex(*coeffs.shape):
        c = complex(coeffs[key])
        if abs(c) > DROP_TOLERANCE:
            terms["".join(PAULI_LETTERS[k] for k in key)] = c
    return terms


# Matrix entries in units of 2^n: an entry alone at (0, 0) gives every
# {I, Z}^n string the coefficient entry / 2^n, so these put coefficients at,
# one ulp either side of and a relative 1e-9 either side of DROP_TOLERANCE,
# with real and with complex (hypot-rounded) magnitudes.
_NEAR_TOLERANCE = [
    unit * value
    for value in (DROP_TOLERANCE, np.nextafter(DROP_TOLERANCE, 0.0),
                  np.nextafter(DROP_TOLERANCE, 1.0),
                  DROP_TOLERANCE * (1 - 1e-9), DROP_TOLERANCE * (1 + 1e-9))
    for unit in (1.0, -1.0, 1j, 0.6 + 0.8j, -0.8 + 0.6j)
]


@st.composite
def _sparse_matrices(draw):
    """Mostly-zero matrices of 1 to 4 qubits: a few ordinary entries (some
    exactly 0) and a few near-tolerance ones, scaled by 2^n."""
    n = draw(st.integers(1, 4))
    dim = 2**n
    index = st.integers(0, dim * dim - 1)
    ordinary = st.one_of(
        st.just(0j), st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False)
    )
    mat = np.zeros(dim * dim, dtype=complex)
    for i, value in draw(st.lists(st.tuples(index, ordinary), max_size=8)):
        mat[i] = value
    for i, value in draw(st.lists(st.tuples(index, st.sampled_from(_NEAR_TOLERANCE)), max_size=4)):
        mat[i] = dim * value
    return mat.reshape(dim, dim)


@settings(max_examples=300, deadline=None)
@given(_sparse_matrices())
def test_expand_matches_ndindex_scan(mat):
    got, want = pauli_expand(mat), expand_by_ndindex(mat)
    assert list(got) == list(want)
    for letters, g in got.items():
        assert type(letters) is str and type(g) is complex
        assert g.real == want[letters].real
        assert g.imag == want[letters].imag


def test_expand_rejects_non_finite():
    for bad in (math.nan, math.inf, -math.inf, complex(0.0, math.nan)):
        for mat in (np.array([[bad, 0], [0, 1]]), np.diag([1, 1, 1, bad])):
            with pytest.raises(ValueError, match="operator entries must be finite"):
                pauli_expand(mat)


def test_expand_rejects_bad_shapes():
    with pytest.raises(ValueError):
        pauli_expand(np.zeros((2, 4)))
    with pytest.raises(ValueError):
        pauli_expand(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        pauli_expand(np.zeros((1, 1)))


def test_pauli_string_validation():
    # a key must be n_qubits letters from IXYZ
    for terms, n in (({"": 1.0}, 1), ({"": 1.0}, 0), ({"IXQ": 1.0}, 3), ({1: 1.0}, 1)):
        with pytest.raises(ValueError):
            pauli_reconstruct(terms, n)
    assert np.array_equal(pauli_reconstruct({"IXZ": 1.0}, 3),
                          np.kron(np.kron(PAULI_1Q["I"], PAULI_1Q["X"]), PAULI_1Q["Z"]))


def test_reconstruct_width_mismatch():
    for terms, n in ((pauli_expand(PAULI_1Q["X"]), 2), ({"XY": 1.0}, 1)):
        with pytest.raises(ValueError):
            pauli_reconstruct(terms, n)


def test_normalize_single_term():
    normalized, scale = normalize_factor({"Y": -2.0})
    assert normalized.letters == "Y"
    assert normalized.magnitudes == (1.0,)
    assert scale == pytest.approx(2.0)
    assert normalized.phases[0] == pytest.approx(math.pi)


def test_normalize_two_term_l1():
    normalized, scale = normalize_factor({"I": 3.0, "Z": -1.0})
    assert sum(normalized.magnitudes) == pytest.approx(1.0, abs=1e-15)
    assert scale == pytest.approx(4.0)
    assert normalized.magnitudes == pytest.approx((0.75, 0.25))
    # defining property: scale * normalized == input
    back = scale * normalized.matrix()
    assert np.max(np.abs(back - (3 * PAULI_1Q["I"] - PAULI_1Q["Z"]))) < 1e-12


def test_normalize_four_term_l2():
    factor = {"I": 0.5, "X": 1.0, "Y": 1j, "Z": 0.5}
    normalized, scale = normalize_factor(factor)
    assert scale == pytest.approx(math.sqrt(2.5))
    assert sum(m * m for m in normalized.magnitudes) == pytest.approx(1.0)
    want = sum(c * PAULI_1Q[k] for k, c in factor.items())
    assert np.max(np.abs(scale * normalized.matrix() - want)) < 1e-12


def test_normalize_template_bracket():
    # the first bracket of the multiplication template: {I: 1/2 + w/3, Z: -1/2}
    w = cmath.exp(-16j / 3)
    c_ident = 0.5 + w / 3
    normalized, scale = normalize_factor({"I": c_ident, "Z": -0.5})
    assert sum(normalized.magnitudes) == pytest.approx(1.0, abs=1e-15)
    assert scale == pytest.approx(abs(c_ident) + 0.5, abs=1e-15)
    assert scale == pytest.approx(1.2450138305634564, abs=1e-12)
    assert normalized.magnitudes[0] == pytest.approx(abs(c_ident) / scale.real, abs=1e-12)
    assert normalized.magnitudes[1] == pytest.approx(0.5 / scale.real, abs=1e-12)
    assert normalized.phases[0] == pytest.approx(cmath.phase(c_ident), abs=1e-12)
    assert normalized.phases[0] == pytest.approx(0.372450500357, abs=1e-9)


def test_normalize_rejects():
    with pytest.raises(ValueError):
        normalize_factor({"I": 0.0})
    with pytest.raises(ValueError):
        normalize_factor({})
    with pytest.raises(ValueError):
        normalize_factor({"Q": 1.0})
    with pytest.raises(ValueError):
        normalize_factor({"XY": 1.0, "Z": 1.0})


def test_non_finite_factors_rejected():
    # refused as pauli_expand refuses them: a NaN is not "above tolerance"
    # and would be dropped, an infinity would give NaN magnitudes
    for bad in (math.nan, math.inf, -math.inf, complex(math.nan, 0.0), complex(0.0, math.inf)):
        factor = {"I": bad, "Z": 1.0}
        with pytest.raises(ValueError, match="finite"):
            pauli_reconstruct(factor, 1)
        with pytest.raises(ValueError, match="finite"):
            normalize_factor(factor)
        with pytest.raises(ValueError, match="finite"):
            FactoredOperator((factor,))
        with pytest.raises(ValueError, match="finite"):
            FactoredOperator(({"X": 1.0}, factor))


def test_factored_operator_matrix_oracle():
    factors = ({"I": 0.5 + 0.5j, "Z": 0.25 + 0.25j}, {"X": 2.0}, {"Y": -1j})
    claimed = FactoredOperator(factors)
    want = (
        (0.5 + 0.5j)
        * np.kron(
            np.kron(PAULI_1Q["I"] + 0.5 * PAULI_1Q["Z"], 2 * PAULI_1Q["X"]),
            -1j * PAULI_1Q["Y"],
        )
    )
    assert np.max(np.abs(claimed.matrix() - want)) < 1e-12
    assert claimed.n_qubits == 3


def test_factored_operator_validation():
    with pytest.raises(ValueError):
        FactoredOperator(())
    with pytest.raises(ValueError):
        FactoredOperator(({"I": 0.0},))
    with pytest.raises(ValueError):
        FactoredOperator(({"Q": 1.0},))
    with pytest.raises(ValueError):
        FactoredOperator(({"XY": 1.0},))


def test_factored_operator_matrix_width_is_checked_first(monkeypatch):
    from cqs import pauli

    claimed = FactoredOperator(({"X": 1.0},) * 3)
    # the limit is inclusive
    monkeypatch.setattr(pauli, "MAX_DOCUMENT_QUBITS", 3)
    assert claimed.matrix().shape == (8, 8)
    monkeypatch.setattr(pauli, "MAX_DOCUMENT_QUBITS", 2)
    with pytest.raises(ValueError, match="3-qubit matrix, over the 2-qubit limit"):
        claimed.matrix()


def test_residual_takes_the_expanded_matrix():
    claimed = FactoredOperator(({"I": 1.5, "X": 0.75}, {"Z": 2.0}))
    exact = np.kron(PAULI_1Q["X"], PAULI_1Q["Z"])
    assert factorization_residual(claimed.matrix(), exact) == factorization_residual(claimed, exact)


def test_residual_zero_for_true_product():
    claimed = FactoredOperator(({"I": 1.5, "X": 0.75}, {"Z": 2.0}))
    assert factorization_residual(claimed, claimed.matrix()) < 1e-15


def test_residual_errors():
    claimed = FactoredOperator(({"I": 1.0},))
    with pytest.raises(ValueError):
        factorization_residual(claimed, np.zeros((4, 4)))
    with pytest.raises(ValueError):
        factorization_residual(claimed, np.zeros((2, 2)))
