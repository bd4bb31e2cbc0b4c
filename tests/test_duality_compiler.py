"""Gates, circuits, template factored forms, and both compilation modes.

Expected bracket coefficients are re-derived in the tests from the tidy-up
rule itself (one ket-bra per irrep, weight folded into the first qubit,
per-qubit sums, bracket-wise normalization), so the compiler is checked
against an independent construction rather than against its own output.
"""

import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cqs.duality_compiler import (
    Circuit,
    CompileReport,
    Gate,
    compile_exact,
    compile_factor,
    compile_paper,
    emit_text,
    paper_factored_form,
    prep_tree,
)
from cqs.frobenius import FrobeniusSpec, PhaseConvention, build_eta, build_mu
from cqs.pauli import PAULI_1Q, normalize_factor
from cqs.statevector import effective_operator
from cqs.verify import compare_up_to_scale

W = cmath.exp(-16j / 3)


@pytest.fixture
def spec():
    return FrobeniusSpec.su3(3, beta=1.0)


# ---------------------------------------------------------------- gates


def test_gate_matrices_closed_form():
    theta = 0.7342
    ry = Gate("ry", 0, (theta,)).matrix2()
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    assert np.allclose(ry, [[c, -s], [s, c]])
    rz = Gate("rz", 0, (theta,)).matrix2()
    assert np.allclose(rz, np.diag([cmath.exp(-1j * theta / 2), cmath.exp(1j * theta / 2)]))
    ph = Gate("phase", 0, (theta,)).matrix2()
    assert np.allclose(ph, cmath.exp(1j * theta) * np.eye(2))
    assert np.allclose(Gate("h", 0).matrix2(), np.array([[1, 1], [1, -1]]) / math.sqrt(2))
    for letter in "xyz":
        assert np.array_equal(Gate(letter, 0).matrix2(), PAULI_1Q[letter.upper()])


def test_gate_adjoint_is_conjugate_transpose():
    gates = [
        Gate("ry", 0, (0.3,)),
        Gate("rz", 0, (-1.2,), ((1, 0),)),
        Gate("phase", 0, (2.5,)),
        Gate("x", 0),
        Gate("h", 0),
    ]
    for gate in gates:
        adj = gate.adjoint()
        assert np.allclose(adj.matrix2(), gate.matrix2().conj().T)
        assert adj.controls == gate.controls


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate("swap", 0)
    with pytest.raises(ValueError):
        Gate("ry", 0)  # missing parameter
    with pytest.raises(ValueError):
        Gate("x", 0, (0.5,))
    with pytest.raises(ValueError):
        Gate("x", 0, (), ((0, 1),))  # control equals target
    with pytest.raises(ValueError):
        Gate("x", 0, (), ((1, 1), (1, 0)))  # duplicate control
    with pytest.raises(ValueError):
        Gate("x", 0, (), ((1, 2),))  # control state not a bit
    with pytest.raises(ValueError, match="unknown gate kind"):
        Gate("u1q", 0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            Gate("ry", 0, (bad,))
    for bad in (1.9, 1.0, "1"):  # not truncated or parsed
        with pytest.raises(TypeError):
            Gate("x", bad)
        with pytest.raises(TypeError):
            Gate("x", 0, (), ((bad, 1),))
        with pytest.raises(TypeError):
            Gate("x", 0, (), ((1, bad),))
    gate = Gate("x", np.int64(2), (), ((np.int32(0), np.int8(1)),))
    assert type(gate.target) is int and gate.controls == ((0, 1),)


def test_gate_dict_roundtrip():
    for gate in (Gate("ry", 2, (0.25,), ((0, 1), (1, 0))), Gate("y", 1, (), ((0, 0),))):
        back = Gate.from_dict(gate.to_dict())
        assert back.kind == gate.kind
        assert back.target == gate.target
        assert back.params == gate.params
        assert back.controls == gate.controls
        assert np.allclose(back.matrix2(), gate.matrix2())


# -------------------------------------------------------------- circuits


def test_circuit_validation():
    g = Gate("x", 0)
    with pytest.raises(ValueError):
        Circuit((), (1,), (), ((1, 0),))  # no work qubits
    with pytest.raises(ValueError):
        Circuit((0, 0), (), (), ())
    with pytest.raises(ValueError):
        Circuit((0,), (1,), (), ((0, 0),))  # postselect on a work qubit
    with pytest.raises(ValueError):
        Circuit((0,), (1,), (), ((1, 0), (1, 1)))
    with pytest.raises(ValueError):
        Circuit((0,), (1,), (), ((1, 2),))
    with pytest.raises(ValueError, match="undeclared qubit 3"):
        Circuit((0,), (), (Gate("x", 3),), ())  # undeclared target
    with pytest.raises(ValueError, match="undeclared qubit 5"):
        Circuit((0, 1), (), (Gate("x", 0, (), ((5, 1),)),), ())  # undeclared control
    for bad in (1.9, "1"):
        with pytest.raises(TypeError):
            Circuit((bad,), (), (), ())
        with pytest.raises(TypeError):
            Circuit((0,), (bad,), (), ())
        with pytest.raises(TypeError):
            Circuit((0,), (1,), (), ((1, bad),))
    circuit = Circuit((0,), (1,), (g,), ((1, 0),))
    assert circuit.n_qubits == 2
    assert circuit.qubit_order() == (0, 1)


def test_circuit_dict_roundtrip(spec):
    circuit, _ = compile_paper("eta", spec)
    back = Circuit.from_dict(circuit.to_dict())
    assert back.work_qubits == circuit.work_qubits
    assert back.ancilla_qubits == circuit.ancilla_qubits
    assert back.postselect == circuit.postselect
    assert len(back.gates) == len(circuit.gates)
    assert np.max(np.abs(effective_operator(back).matrix
                         - effective_operator(circuit).matrix)) < 1e-15


def test_circuit_from_dict_rejects_malformed(spec):
    good = compile_paper("eta", spec)[0].to_dict()
    for bad, message in (
        ([], "JSON object"),
        (dict(good, gates=5), "'gates' must be a list"),
        (dict(good, gates=[5]), "'gates' must be a list"),
        (dict(good, qubits="q0"), "'qubits' must be a list"),
        (dict(good, postselect={}), "'postselect' must be a list"),
        (dict(good, gates=[{"kind": "x", "target": 0, "params": 0.5}]), "'params' must be a list"),
        (dict(good, gates=[{"kind": "x", "target": 0, "controls": [1]}]),
         "'controls' must be a list"),
        (dict(good, gates=[{"kind": "x", "target": None}]), "malformed circuit"),
        (dict(good, gates=[{"kind": ["x"], "target": 0}]), "malformed circuit"),
        (dict(good, gates=[{"kind": "ry", "target": 0, "params": [float("inf")]}]), "finite"),
    ):
        with pytest.raises(ValueError, match=message):
            Circuit.from_dict(bad)


# ---------------------------------------------------------------- angles


def tree_state(gates, m):
    """Amplitudes over m qubits (qubit 0 most significant) after `gates`
    from |0...0>, by a direct loop over the basis states."""
    amps = np.zeros(2**m)
    amps[0] = 1.0
    for gate in gates:
        assert gate.kind == "ry"
        c, s = math.cos(gate.params[0] / 2), math.sin(gate.params[0] / 2)
        bit = 1 << (m - 1 - gate.target)
        for i in range(2**m):
            fires = all((i >> (m - 1 - q)) & 1 == state for q, state in gate.controls)
            if fires and not i & bit:
                a0, a1 = amps[i], amps[i | bit]
                amps[i], amps[i | bit] = c * a0 - s * a1, s * a0 + c * a1
    return amps


_MASSES = st.lists(
    st.one_of(st.just(0.0), st.floats(-30.0, 2.0).map(lambda e: 10.0**e)),
    min_size=1,
    max_size=64,
)


@settings(max_examples=200, deadline=None)
@given(_MASSES)
def test_prep_tree_prepares_sqrt_mass(mass):
    assume(any(mass))
    m = (len(mass) - 1).bit_length()
    gates, named = prep_tree(mass, tuple(range(m)))
    assert [theta for _, theta in named] == [gate.params[0] for gate in gates]
    want = np.zeros(2**m)
    want[: len(mass)] = np.sqrt(np.array(mass) / sum(mass))
    assert np.max(np.abs(tree_state(gates, m) - want)) <= 1e-14


@settings(max_examples=100, deadline=None)
@given(_MASSES)
def test_prep_tree_angles_within_2_ulp(mass):
    """Each angle against 2 atan2(sqrt R, sqrt L) with exact half masses,
    evaluated in mpmath at 200 bits."""
    assume(any(mass))
    m = (len(mass) - 1).bit_length()
    leaves = [mpmath.mpf(v) for v in mass] + [mpmath.mpf(0)] * (2**m - len(mass))
    with mpmath.workprec(200):
        for name, theta in prep_tree(mass, tuple(range(m)))[1]:
            level, prefix = (int(part[1:]) for part in name.split("_")[1:])
            block = 2 ** (m - level)
            left = mpmath.fsum(leaves[prefix * block: prefix * block + block // 2])
            right = mpmath.fsum(leaves[prefix * block + block // 2: (prefix + 1) * block])
            exact = 2 * mpmath.atan2(mpmath.sqrt(right), mpmath.sqrt(left))
            assert abs(mpmath.mpf(theta) - exact) <= 2 * math.ulp(float(exact)), name


def test_prep_tree_two_leaves():
    rng = np.random.default_rng(11)
    for _ in range(50):
        w0, w1 = rng.uniform(0.01, 5.0, size=2)
        (gate,), ((name, theta),) = prep_tree((w0, w1), (7,))
        assert (name, gate.target, gate.controls) == ("prep_l0_p0", 7, ())
        assert 0.0 <= theta <= math.pi
        assert math.cos(theta / 2) ** 2 * (w0 + w1) == pytest.approx(w0)
    assert prep_tree((1.0, 1.0), (0,))[1] == [("prep_l0_p0", math.pi / 2)]
    assert prep_tree((3.0, 1.0), (0,))[1][0][1] == pytest.approx(math.pi / 3, abs=1e-15)
    assert prep_tree((1.0, 0.0), (0,)) == ([], [])


def test_prep_tree_keeps_small_angles():
    # an acos of a ratio clamped to 1 gives 0 here
    ((name, theta),) = prep_tree((1.0, 1e-18), (0,))[1]
    assert name == "prep_l0_p0"
    assert theta == pytest.approx(2e-9, rel=1e-15)


def test_prep_tree_four_leaves():
    rng = np.random.default_rng(12)
    for _ in range(50):
        c = rng.uniform(0.0, 1.0, size=4)
        c /= np.linalg.norm(c)
        angles = dict(prep_tree(c * c, (0, 1))[1])
        top, left, right = (angles[f"prep_l{n}"] for n in ("0_p0", "1_p0", "1_p1"))
        got = [
            math.cos(top / 2) * math.cos(left / 2),
            math.cos(top / 2) * math.sin(left / 2),
            math.sin(top / 2) * math.cos(right / 2),
            math.sin(top / 2) * math.sin(right / 2),
        ]
        assert np.allclose(got, c, atol=1e-12)
    # the paper's balanced four-term bracket: amplitudes (0.5, 1, 1, 0.5) / sqrt(2.5)
    c = np.array([0.5, 1.0, 1.0, 0.5]) / math.sqrt(2.5)
    gates, named = prep_tree(c * c, (3, 4))
    assert [(g.target, g.controls) for g in gates] == [(3, ()), (4, ((3, 0),)), (4, ((3, 1),))]
    angles = dict(named)
    assert angles["prep_l0_p0"] == pytest.approx(math.pi / 2, abs=1e-15)
    assert angles["prep_l1_p0"] == pytest.approx(2 * math.atan(2.0), abs=1e-15)  # 2.21
    assert angles["prep_l1_p1"] == pytest.approx(2 * math.atan(0.5), abs=1e-15)  # 0.93


def test_prep_tree_degenerate_branches():
    gates, named = prep_tree((0.0, 0.0, 1.0, 0.0), (0, 1))
    assert named == [("prep_l0_p0", math.pi)]
    assert len(gates) == 1


def test_two_term_angle_rejects():
    """The two-term bracket's angle, now the one-ancilla prep_tree: a
    negative weight or an all-zero pair has no angle."""
    with pytest.raises(ValueError):
        prep_tree((-0.1, 1.0), (0,))
    with pytest.raises(ValueError):
        prep_tree((0.0, 0.0), (0,))


def test_prep_angles_4_rejects():
    """The four-term bracket's angles, now the two-ancilla prep_tree: a
    negative mass, or more leaves than two ancillas hold, is refused."""
    with pytest.raises(ValueError):
        prep_tree((-0.5, 0.5, 0.5, 0.5), (0, 1))
    with pytest.raises(ValueError):
        prep_tree((1.0, 0.0, 0.0, 0.0, 1.0), (0, 1))
    with pytest.raises(ValueError):
        prep_tree((0.0, 0.0, 0.0, 0.0), (0, 1))


def test_prep_tree_rejects():
    for mass, ancillas in (
        ((math.nan, 1.0), (0,)),
        ((math.inf, 1.0), (0,)),
        ((1e308, 1e308), (0,)),  # the sum overflows
        ((1.0, 0.0, 0.0, 0.0, 1.0), (0, 1)),  # five leaves on two ancillas
        ((), ()),
    ):
        with pytest.raises(ValueError):
            prep_tree(mass, ancillas)


# ------------------------------------------------------------- fragments


def fragment_block(fragment, n_work=1):
    circuit = Circuit(
        tuple(range(n_work)), fragment.ancillas, fragment.gates, fragment.postselect
    )
    return effective_operator(circuit).matrix


def test_compile_factor_single():
    normalized, _ = normalize_factor({"Y": 2j})
    fragment = compile_factor(normalized, 0, 1)
    assert fragment.kind == "single"
    assert fragment.ancillas == ()
    assert fragment.nominal_scale == 1.0
    got = fragment_block(fragment)
    assert np.max(np.abs(got - normalized.matrix())) < 1e-12


def test_compile_factor_two_term():
    normalized, _ = normalize_factor({"I": 0.5 + W / 3, "Z": -0.5})
    fragment = compile_factor(normalized, 0, 1)
    assert fragment.kind == "two"
    assert fragment.ancillas == (1,)
    assert fragment.postselect == ((1, 0),)
    assert fragment.nominal_scale == 1.0
    ((name, theta),) = prep_tree(normalized.magnitudes, (1,))[1]
    assert fragment.angles == ((name, theta),)
    first, last = fragment.gates[0], fragment.gates[-1]
    assert (first.kind, first.target, first.params) == ("ry", 1, (theta,))
    assert (last.kind, last.target, last.params) == ("ry", 1, (-theta,))
    got = fragment_block(fragment)
    assert np.max(np.abs(got - normalized.matrix())) < 1e-12
    # mu's second bracket {1.5, -0.5}: weights 3:1 give pi/3
    fragment = compile_factor(normalize_factor({"I": 1.5, "Z": -0.5})[0], 0, 1)
    assert fragment.angle("prep_l0_p0") == pytest.approx(math.pi / 3, abs=1e-15)


def test_compile_factor_four_term():
    normalized, _ = normalize_factor({"I": 0.5, "X": 1.0, "Y": 1j, "Z": 0.5})
    fragment = compile_factor(normalized, 0, 3)
    assert fragment.kind == "four"
    assert fragment.ancillas == (3, 4)
    assert fragment.postselect == ((3, 0), (4, 0))
    assert fragment.nominal_scale == 2.0
    got = fragment_block(fragment)
    assert np.max(np.abs(got - normalized.matrix() / 2.0)) < 1e-12


def test_compile_factor_three_term():
    normalized, _ = normalize_factor({"I": 1.0, "X": 0.5, "Z": 0.25})
    fragment = compile_factor(normalized, 0, 1)
    assert fragment.kind == "four"
    got = fragment_block(fragment)
    assert np.max(np.abs(got - normalized.matrix() / 2.0)) < 1e-12


# ---------------------------------------------------- template factored form


def mu_brackets():
    """The four per-qubit sums of the multiplication template, by hand."""
    return [
        {"I": 0.5 + W / 3, "Z": -0.5},
        {"I": 1.5, "Z": -0.5},
        {"I": 0.5, "X": 1.0, "Y": 1j, "Z": 0.5},
        {"I": 0.5, "X": 1.0, "Y": 1j, "Z": 0.5},
    ]


def eta_brackets():
    return [
        {"X": 0.5 + 1.5 * W, "Y": -0.5j - 1.5j * W, "I": 1.5 * W, "Z": 1.5 * W},
        {"X": 1.0, "Y": -1j, "I": 0.5, "Z": 0.5},
    ]


def assert_factors_match(form, brackets):
    assert form.scale == 1.0
    assert form.n_qubits == len(brackets)
    for k, bracket in enumerate(brackets):
        normalized, _ = normalize_factor(bracket)
        assert np.max(np.abs(form.factor_matrix(k) - normalized.matrix())) < 1e-12


def test_paper_factored_form_mu(spec):
    assert_factors_match(paper_factored_form("mu", spec), mu_brackets())


def test_paper_factored_form_eta(spec):
    assert_factors_match(paper_factored_form("eta", spec), eta_brackets())


def test_paper_factored_form_delta(spec):
    brackets = [
        {"I": 0.5 + 1 / 3, "Z": -0.5},
        {"I": 1.5, "Z": -0.5},
        {"X": 1.0, "Y": -1j, "I": 0.5, "Z": 0.5},
        {"X": 1.0, "Y": -1j, "I": 0.5, "Z": 0.5},
    ]
    assert_factors_match(paper_factored_form("delta", spec), brackets)


def test_paper_factored_form_eps(spec):
    brackets = [
        {"X": 2.0, "Y": 2j, "I": 1.5, "Z": 1.5},
        {"X": 1.0, "Y": 1j, "I": 0.5, "Z": 0.5},
    ]
    assert_factors_match(paper_factored_form("eps", spec), brackets)


def test_paper_factored_form_rejects(spec):
    with pytest.raises(ValueError):
        paper_factored_form("cylinder", spec)


# ----------------------------------------------------------- paper mode


def test_compile_paper_mu_structure(spec):
    circuit, report = compile_paper("mu", spec)
    assert circuit.work_qubits == (0, 1, 2, 3)
    assert len(circuit.ancilla_qubits) == 6
    assert report.mode == "paper"
    assert report.nominal_scale == pytest.approx(4.0)
    names = [name for name, _ in report.angles]
    assert names == ["theta1", "theta2", "theta3", "theta4", "theta5",
                     "w_top_q2", "w_top_q3"]


def test_compile_paper_effective_block(spec):
    for op_name in ("mu", "delta", "eta", "eps"):
        circuit, report = compile_paper(op_name, spec)
        form = paper_factored_form(op_name, spec)
        got = effective_operator(circuit).matrix
        want = form.matrix() / report.nominal_scale.real
        assert np.max(np.abs(got - want)) < 1e-12


def test_compile_paper_single_irrep():
    """su3(1) has two work qubits for mu/delta and one for eta/eps, fewer
    than the fragments the figure's angle names point at."""
    for convention in PhaseConvention:
        spec = FrobeniusSpec.su3(1, beta=1.0, convention=convention)
        for op_name in ("mu", "delta", "eta", "eps"):
            circuit, report = compile_paper(op_name, spec)
            want = paper_factored_form(op_name, spec).matrix() / report.nominal_scale.real
            got = effective_operator(circuit).matrix
            assert np.max(np.abs(got - want)) < 1e-12, (convention, op_name)
        _, mu_report = compile_paper("mu", spec)
        assert [name for name, _ in mu_report.angles] == ["theta1", "theta2", "theta5"]


def test_compile_paper_angle_names(spec):
    _, delta_report = compile_paper("delta", spec)
    assert [n for n, _ in delta_report.angles] == [
        "theta1", "theta2", "theta3", "theta4", "w_top_q2", "w_top_q3"]
    _, eta_report = compile_paper("eta", spec)
    assert [n for n, _ in eta_report.angles] == [
        "theta1", "theta2", "theta3", "theta4", "theta5", "theta6", "theta7",
        "w_top_q0", "w_top_q1"]
    _, eps_report = compile_paper("eps", spec)
    assert [n for n, _ in eps_report.angles] == [
        "theta1", "theta2", "theta3", "theta4", "w_top_q0", "w_top_q1"]


def test_compile_paper_shared_angles_exact(spec):
    # the second bracket is {1.5, -0.5}: ratio 3:1 gives exactly pi/3, and
    # the balanced four-term brackets give exactly pi/2 tops
    _, report = compile_paper("mu", spec)
    angles = dict(report.angles)
    assert angles["theta2"] == pytest.approx(math.pi / 3, abs=1e-15)
    assert angles["w_top_q2"] == pytest.approx(math.pi / 2, abs=1e-12)
    assert angles["w_top_q3"] == pytest.approx(math.pi / 2, abs=1e-12)


def test_compile_paper_eta_keeps_small_rotation():
    """eta at su3(9..15), euclidean, beta 1: the first bracket's right
    branch turns by about 1e-9 rad.  An acos with a clamped ratio gave 0
    there and dropped the gate, leaving residuals of 2.6e-10 to 5.2e-10."""
    for n in range(9, 16):
        spec = FrobeniusSpec.su3(n, beta=1.0, convention=PhaseConvention.EUCLIDEAN)
        circuit, report = compile_paper("eta", spec)
        assert 7e-10 < dict(report.angles)["theta2"] < 1.5e-9, n
        target = paper_factored_form("eta", spec).matrix()
        residual, _ = compare_up_to_scale(effective_operator(circuit).matrix, target)
        assert residual <= 1e-15, n


def test_compile_paper_unwrapped_phase(spec):
    # the unit's identity coefficient is 1.5 * exp(-16i/3); the angle table
    # reports the un-wrapped exponent 16/3 rather than its principal value
    _, report = compile_paper("eta", spec)
    angles = dict(report.angles)
    assert angles["theta5"] == pytest.approx(16.0 / 3.0, abs=1e-12)


# ----------------------------------------------------------- exact mode


def test_compile_exact_single_pauli():
    circuit, report = compile_exact(PAULI_1Q["X"])
    assert report.term_count == 1
    assert report.ancilla_count == 0
    assert circuit.ancilla_qubits == ()
    assert np.allclose(effective_operator(circuit).matrix, PAULI_1Q["X"])


def test_compile_exact_two_terms():
    op = (PAULI_1Q["X"] + PAULI_1Q["Z"]) / math.sqrt(2)
    circuit, report = compile_exact(op)
    assert report.term_count == 2
    assert report.ancilla_count == 1
    got = effective_operator(circuit).matrix
    assert np.max(np.abs(got - op / report.nominal_scale.real)) < 1e-12


def test_compile_exact_weights(spec):
    # string sets of the three rank-1 terms are disjoint, so the L1 weight
    # is the sum of the ket-bra weights: 1 + 1/3 + 1/3 and 1 + 3 + 3
    _, mu_report = compile_exact(build_mu(spec))
    assert mu_report.term_count == 48
    assert mu_report.ancilla_count == 6
    assert mu_report.nominal_scale.real == pytest.approx(5.0 / 3.0, abs=1e-12)
    _, eta_report = compile_exact(build_eta(spec))
    assert eta_report.term_count == 12
    assert eta_report.ancilla_count == 4
    assert eta_report.nominal_scale.real == pytest.approx(7.0, abs=1e-12)


def test_compile_exact_negative_and_complex_coefficients():
    rng = np.random.default_rng(21)
    mat = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    circuit, report = compile_exact(mat)
    got = effective_operator(circuit).matrix
    assert np.max(np.abs(got - mat / report.nominal_scale.real)) < 1e-12
    for q, bit in circuit.postselect:
        assert bit == 0


def test_compile_exact_rejects():
    with pytest.raises(ValueError):
        compile_exact(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        compile_exact(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        compile_exact(np.zeros((2, 4)))
    with pytest.raises(ValueError):
        compile_exact(np.eye(512))  # 9 work qubits


def test_compile_report_dict(spec):
    _, report = compile_paper("eps", spec)
    doc = report.to_dict()
    assert doc["mode"] == "paper"
    assert doc["nominal_scale"] == [4.0, 0.0]
    assert doc["angles"][0][0] == "theta1"


# ------------------------------------------------------------- emit_text


def test_emit_text_golden():
    circuit = Circuit(
        (0,),
        (1,),
        (
            Gate("h", 0),
            Gate("ry", 1, (0.5,), ((0, 1),)),
            Gate("x", 1, (), ((0, 0),)),
        ),
        ((1, 0),),
    )
    expected = (
        "work q0;\n"
        "ancilla a0;\n"
        "h q0;\n"
        "cry(0.5) q0, a0;\n"
        "cx !q0, a0;\n"
        "postselect a0 -> 0;\n"
    )
    assert emit_text(circuit) == expected


def test_emit_text_deterministic(spec):
    circuit, _ = compile_paper("mu", spec)
    text = emit_text(circuit)
    assert text == emit_text(circuit)
    assert text.startswith("work q0, q1, q2, q3;\nancilla a0")
    assert text.count("postselect") == 6
    assert text.endswith("postselect a5 -> 0;\n")
