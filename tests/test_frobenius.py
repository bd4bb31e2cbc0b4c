"""Generator matrices, padded and logical, and word composition.

The expected matrices are written out entry by entry from the algebra's
definition: weight w(R) = exp(-i beta C2(R)) under the literal convention,
mu scales by w/d, eta/eps by d*w, the cylinder by w alone.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqs import frobenius
from cqs.frobenius import (
    GENERATOR_ARITY,
    DenseOperator,
    FrobeniusSpec,
    PhaseConvention,
    boltzmann_weight,
    build_cylinder,
    build_delta,
    build_epsilon,
    build_eta,
    build_mu,
    compose_word,
    logical_form,
)
from cqs.encoding import default_encoding
from cqs.reptheory import RepEntry, RepTable

W = cmath.exp(-16j / 3)  # fundamental weight at beta = 1


@pytest.fixture
def spec():
    return FrobeniusSpec.su3(3, beta=1.0)


def test_boltzmann_weight_conventions():
    assert boltzmann_weight(2.5, 0.8, PhaseConvention.EUCLIDEAN) == pytest.approx(
        math.exp(-2.0)
    )
    lit = boltzmann_weight(2.5, 0.8, PhaseConvention.PAPER_LITERAL)
    assert lit == pytest.approx(cmath.exp(-2.0j))
    assert abs(lit) == pytest.approx(1.0)


def test_mu_padded_entries(spec):
    # |R,vac><R,R| with coefficient w/d; patterns 11, 10, 01
    expected = np.zeros((16, 16), dtype=complex)
    expected[0b1100, 0b1111] = 1.0
    expected[0b1000, 0b1010] = W / 3
    expected[0b0100, 0b0101] = W / 3
    got = build_mu(spec)
    assert got.in_qubits == got.out_qubits == 4
    assert np.max(np.abs(got.matrix - expected)) < 1e-12


def test_delta_padded_entries(spec):
    # no area by default: coefficients 1, 1/3, 1/3 at the transposed slots
    expected = np.zeros((16, 16), dtype=complex)
    expected[0b1111, 0b1100] = 1.0
    expected[0b1010, 0b1000] = 1 / 3
    expected[0b0101, 0b0100] = 1 / 3
    assert np.max(np.abs(build_delta(spec).matrix - expected)) < 1e-12


def test_eta_padded_entries(spec):
    expected = np.zeros((4, 4), dtype=complex)
    expected[0b11, 0b00] = 1.0
    expected[0b10, 0b00] = 3 * W
    expected[0b01, 0b00] = 3 * W
    assert np.max(np.abs(build_eta(spec).matrix - expected)) < 1e-12


def test_epsilon_padded_entries(spec):
    expected = np.zeros((4, 4), dtype=complex)
    expected[0b00, 0b11] = 1.0
    expected[0b00, 0b10] = 3.0
    expected[0b00, 0b01] = 3.0
    assert np.max(np.abs(build_epsilon(spec).matrix - expected)) < 1e-12


def test_cylinder_padded_entries(spec):
    expected = np.zeros((4, 4), dtype=complex)
    expected[0b11, 0b11] = 1.0
    expected[0b10, 0b10] = W
    expected[0b01, 0b01] = W
    assert np.max(np.abs(build_cylinder(spec).matrix - expected)) < 1e-12


def test_beta_override(spec):
    got = build_delta(spec, beta=1.0).matrix
    assert got[0b1010, 0b1000] == pytest.approx(W / 3)
    assert build_cylinder(spec, beta=0.0).matrix[0b01, 0b01] == pytest.approx(1.0)


def test_euclidean_weights_real():
    spec = FrobeniusSpec.su3(3, beta=0.7, convention=PhaseConvention.EUCLIDEAN)
    for build in (build_mu, build_delta, build_eta, build_epsilon, build_cylinder):
        mat = build(spec).matrix
        assert np.max(np.abs(mat.imag)) == 0.0
        assert np.min(mat.real) >= 0.0


def test_delta_is_mu_dagger_without_area(spec):
    mu0 = logical_form("mu", spec, beta=0.0)
    delta0 = logical_form("delta", spec, beta=0.0)
    assert np.max(np.abs(delta0.matrix - mu0.matrix.conj().T)) < 1e-14


def test_sphere_value(spec):
    # eps . eta on logical forms: 1*1 + 3*(3w) + 3*(3w)
    sphere = logical_form("eps", spec).matrix @ logical_form("eta", spec).matrix
    assert sphere.shape == (1, 1)
    assert sphere[0, 0] == pytest.approx(1 + 18 * W)


def test_logical_row_embedding(spec):
    # padded mu rows live at |R, vac>, logical ones at |R>; columns agree
    padded = build_mu(spec).matrix
    logical = logical_form("mu", spec).matrix
    d = 4
    for idx in (1, 2, 3):
        assert np.array_equal(padded[idx * d, :], logical[idx, :])
    # all other padded rows vanish
    live = {idx * d for idx in (1, 2, 3)}
    for row in set(range(16)) - live:
        assert not padded[row].any()


def test_logical_shapes(spec):
    for tag, (a_in, a_out) in GENERATOR_ARITY.items():
        op = logical_form(tag, spec)
        assert op.matrix.shape == (4**a_out, 4**a_in)
    with pytest.raises(ValueError):
        logical_form("pants", spec)


def test_register_width_checked_before_allocation(spec, monkeypatch):
    # su3(64) needs 7-qubit circles, so mu needs a 14-qubit (4 GiB) register
    wide = FrobeniusSpec.su3(64)
    for build in (build_mu, build_delta, lambda s: logical_form("mu", s)):
        with pytest.raises(ValueError, match="14-qubit register, over the 12-qubit limit"):
            build(wide)
    assert build_eta(wide).matrix.shape == (2**7, 2**7)
    # the limit is inclusive: su3(3) mu is a 4-qubit register
    monkeypatch.setattr(frobenius, "MAX_DOCUMENT_QUBITS", 4)
    assert build_mu(spec).matrix.shape == (16, 16)
    monkeypatch.setattr(frobenius, "MAX_DOCUMENT_QUBITS", 3)
    with pytest.raises(ValueError, match="over the 3-qubit limit"):
        build_mu(spec)


def test_compose_word_cylinder_gluing(spec):
    # a unit with area b1 multiplied into a line is a cylinder of area b1 + beta
    word = [("eta", 0.5, 0), ("mu", None, 0)]
    got = compose_word(word, spec)
    want = logical_form("cylinder", spec, beta=0.5 + spec.beta)
    assert got.matrix.shape == want.matrix.shape
    assert np.max(np.abs(got.matrix - want.matrix)) < 1e-12


def test_compose_word_sector_projector(spec):
    got = compose_word([("delta", None, 0), ("eps", None, 0)], spec)
    sector = np.diag([0, 1, 1, 1]).astype(complex)
    assert np.max(np.abs(got.matrix - sector)) < 1e-12


def test_compose_word_positions(spec):
    # act on the second of three circles; tensor slots line up
    got = compose_word([("cylinder", 0.25, 1)], spec, in_circles=3)
    cyl = logical_form("cylinder", spec, 0.25).matrix
    eye = np.eye(4)
    want = np.kron(np.kron(eye, cyl), eye)
    assert np.max(np.abs(got.matrix - want)) < 1e-12


def test_compose_word_empty_and_inference(spec):
    assert np.array_equal(compose_word([], spec).matrix, np.eye(4))
    # eps after mu needs two starting circles
    op = compose_word([("mu", None, 0), ("eps", None, 0)], spec)
    assert op.matrix.shape == (1, 16)


def test_compose_word_errors(spec):
    with pytest.raises(ValueError):
        compose_word([("mu", None)], spec)
    with pytest.raises(ValueError):
        compose_word([("pants", None, 0)], spec)
    with pytest.raises(ValueError):
        compose_word([("mu", None, 0)], spec, in_circles=1)
    with pytest.raises(ValueError):
        compose_word([("mu", None, -1)], spec)


def test_compose_word_integer_fields(spec):
    # a float or boolean position or circle count is refused, not truncated
    with pytest.raises(TypeError):
        compose_word([("cylinder", None, 0.9)], spec, in_circles=1.7)
    with pytest.raises(TypeError):
        compose_word([("cylinder", None, 0)], spec, in_circles=1.7)
    for pos in (0.9, 1.0, True, "0"):
        with pytest.raises(TypeError):
            compose_word([("cylinder", None, 0), ("cylinder", None, pos)], spec)
    with pytest.raises(TypeError):
        compose_word([("cylinder", None, False)], spec, in_circles=1)
    # numpy integers are integers
    got = compose_word([("cylinder", 0.25, np.int64(1))], spec, in_circles=np.int64(2))
    want = compose_word([("cylinder", 0.25, 1)], spec, in_circles=2)
    assert np.array_equal(got.matrix, want.matrix)


def test_compose_word_width_checked_before_allocation(spec, monkeypatch):
    # four 6-qubit su3(63) circles would be a 24-qubit (4 PiB) identity
    with pytest.raises(ValueError, match="24-qubit register, over the 12-qubit limit"):
        compose_word([("cylinder", None, 0)], FrobeniusSpec.su3(63), in_circles=4)
    # two deltas grow one 2-qubit circle to three before the mus shrink it
    # back, so only the middle of the word is 6 qubits wide
    word = [("delta", None, 0), ("delta", None, 0), ("mu", None, 0), ("mu", None, 0)]
    monkeypatch.setattr(frobenius, "MAX_DOCUMENT_QUBITS", 6)
    assert compose_word(word, spec).matrix.shape == (4, 4)
    monkeypatch.setattr(frobenius, "MAX_DOCUMENT_QUBITS", 5)
    with pytest.raises(ValueError, match="6-qubit register, over the 5-qubit limit"):
        compose_word(word, spec)


@pytest.mark.parametrize("convention", list(PhaseConvention))
@pytest.mark.parametrize("count", [3, 7, 15, 63])
def test_compose_word_closed_surfaces(count, convention):
    # Migdal's sum for a closed genus-g surface of area A (Witten 1991):
    # Z_g(A) = sum over R of d_R**(2 - 2g) w_R(A), with w written here from
    # the table's casimirs; mu carries no second area at beta = 0
    for area in (0.6, 0.05):
        spec = FrobeniusSpec.su3(count, area, convention)
        weights = [
            cmath.exp(-1j * area * float(entry.casimir))
            if convention is PhaseConvention.PAPER_LITERAL
            else complex(math.exp(-area * float(entry.casimir)))
            for entry in spec.table
        ]
        for genus in (0, 1, 2):
            word = [("eta", area, 0)] + [("delta", 0.0, 0), ("mu", 0.0, 0)] * genus
            terms = [entry.dim ** (2 - 2 * genus) * w for entry, w in zip(spec.table, weights)]
            got = compose_word(word + [("eps", 0.0, 0)], spec)
            assert got.matrix.shape == (1, 1)
            scale = math.fsum(abs(term) for term in terms)
            assert abs(got.matrix[0, 0] - sum(terms)) <= 1e-13 * scale, (genus, area)


def padded_reference(word, spec, circles):
    """The word's matrix by padding each step's logical form with
    identities on the other circles and multiplying, or None if the word
    does not fit `circles` starting circles."""
    d = 2**spec.encoding.bits_per_circle
    acc = np.eye(d**circles, dtype=complex)
    for tag, beta, pos in word:
        a_in, a_out = GENERATOR_ARITY[tag]
        if pos + a_in > circles:
            return None
        eye_after = np.eye(d ** (circles - pos - a_in))
        acc = np.kron(np.kron(np.eye(d**pos), logical_form(tag, spec, beta).matrix), eye_after) @ acc
        circles += a_out - a_in
    return acc


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_compose_word_matches_padded_reference(data):
    spec = FrobeniusSpec.su3(
        data.draw(st.integers(1, 7)),
        data.draw(st.floats(0.0, 2.0)),
        data.draw(st.sampled_from(list(PhaseConvention))),
    )
    start = circles = data.draw(st.integers(0, 3))
    word = []
    for _ in range(data.draw(st.integers(0, 5))):
        fitting = [tag for tag, (a_in, a_out) in GENERATOR_ARITY.items()
                   if a_in <= circles and circles - a_in + a_out <= 3]
        tag = data.draw(st.sampled_from(fitting))
        a_in, a_out = GENERATOR_ARITY[tag]
        beta = data.draw(st.none() | st.floats(0.0, 2.0))
        word.append((tag, beta, data.draw(st.integers(0, circles - a_in))))
        circles += a_out - a_in
    if data.draw(st.booleans()):
        got, want = compose_word(word, spec, start), padded_reference(word, spec, start)
    else:  # the fewest starting circles the word fits, one for the empty word
        least = next(c for c in range(4) if padded_reference(word, spec, c) is not None)
        got, want = compose_word(word, spec), padded_reference(word, spec, least if word else 1)
    assert got.matrix.shape == want.shape
    assert np.max(np.abs(got.matrix - want), initial=0) <= 1e-12 * np.max(np.abs(want), initial=0)


def test_spec_validation():
    from cqs.reptheory import su3_truncation

    with pytest.raises(ValueError):
        FrobeniusSpec.su3(3, beta=-1.0)
    with pytest.raises(ValueError):
        FrobeniusSpec.su3(3, beta=float("nan"))
    with pytest.raises(ValueError):
        FrobeniusSpec(su3_truncation(4), default_encoding(su3_truncation(3)))


def test_dense_operator_contracts():
    mat = np.array([[1, 2], [3, 4]], dtype=complex)
    op = DenseOperator(mat, in_qubits=1, out_qubits=1)
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 9.0  # read-only view
    with pytest.raises(ValueError):
        DenseOperator(np.zeros(4))
    with pytest.raises(ValueError):
        DenseOperator(mat, in_qubits=2)


def test_dense_operator_dict_roundtrip(spec):
    op = build_eta(spec)
    back = DenseOperator.from_dict(op.to_dict())
    assert back.in_qubits == op.in_qubits
    assert back.out_qubits == op.out_qubits
    assert np.array_equal(back.matrix, op.matrix)


def test_dense_operator_from_dict_rejects_malformed():
    good = {"rows": 2, "cols": 2, "in_qubits": 1, "out_qubits": 1, "entries": [[0, 1, 1.0, 0.0]]}
    assert DenseOperator.from_dict(good).matrix[0, 1] == 1.0
    for bad, message in (
        ([], "JSON object"),
        (dict(good, entries=5), "'entries' must be a list"),
        (dict(good, entries=[[0, 2, 1.0, 0.0]]), "outside"),
        (dict(good, entries=[[-1, 0, 1.0, 0.0]]), "outside"),
        (dict(good, entries=[[0, 0, float("nan"), 0.0]]), "not finite"),
        (dict(good, entries=[[0, 0, [1.0], 0.0]]), "malformed operator"),
        (dict(good, rows=2**13), "rows and cols"),
        (dict(good, in_qubits=10**20), "in_qubits"),
        (dict(good, in_qubits=2), "cols inconsistent"),
        # numbers are not truncated, parsed from strings or read from booleans
        ({"rows": 2.9, "cols": 2.9, "entries": [[0.7, 1.2, "1.5", True]]}, "malformed operator"),
        (dict(good, rows=2.0), "malformed operator"),
        (dict(good, cols=True), "malformed operator"),
        (dict(good, in_qubits=1.0), "malformed operator"),
        (dict(good, out_qubits=True), "malformed operator"),
        (dict(good, entries=[[0.0, 1, 1.0, 0.0]]), "malformed operator"),
        (dict(good, entries=[[0, True, 1.0, 0.0]]), "malformed operator"),
        (dict(good, entries=[[0, 1, "1.5", 0.0]]), "malformed operator"),
        (dict(good, entries=[[0, 1, 1.0, True]]), "malformed operator"),
    ):
        with pytest.raises(ValueError, match=message):
            DenseOperator.from_dict(bad)


@st.composite
def random_specs(draw):
    size = draw(st.integers(1, 7))
    entries = tuple(
        RepEntry(f"R{k}", draw(st.floats(0.0, 20.0)), draw(st.integers(1, 30)))
        for k in range(size)
    )
    table = RepTable(entries)
    return FrobeniusSpec(
        table,
        default_encoding(table),
        beta=draw(st.floats(0.0, 3.0)),
        convention=draw(st.sampled_from(list(PhaseConvention))),
    )


@settings(max_examples=60, deadline=None)
@given(random_specs())
def test_padded_forms_are_logical_forms_with_vacuum(spec):
    # independent oracle: pad each logical form by kron with the vacuum
    # basis vector instead of reading the padded circle patterns
    d = 2**spec.encoding.bits_per_circle
    e_vac = np.zeros((d, 1), dtype=complex)
    e_vac[int(spec.encoding.vacuum, 2)] = 1.0
    pads = {
        "mu": (build_mu, lambda L: np.kron(L, e_vac)),
        "delta": (build_delta, lambda L: np.kron(L, e_vac.T)),
        "eta": (build_eta, lambda L: L @ e_vac.T),
        "eps": (build_epsilon, lambda L: e_vac @ L),
        "cylinder": (build_cylinder, lambda L: L),
    }
    for tag, (build, pad) in pads.items():
        padded = build(spec)
        assert np.array_equal(padded.matrix, pad(logical_form(tag, spec).matrix)), tag
        assert padded.rows == padded.cols == d ** max(GENERATOR_ARITY[tag])
