"""Gates, circuits, template factored forms, and both compilation modes.

Expected bracket coefficients are re-derived in the tests from the tidy-up
rule itself (one ket-bra per irrep, weight folded into the first qubit,
per-qubit sums, bracket-wise normalization), so the compiler is checked
against an independent construction rather than against its own output.
"""

import cmath
import math
import time

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cqs.duality_compiler import (
    GATE_KINDS,
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
from cqs import duality_compiler as dc
from cqs.duality_compiler import (_NO_CONTROLS, _SKELETONS, _Controls, _paper_factors,
                                  _pattern_table)
from cqs.frobenius import (FrobeniusSpec, PhaseConvention, build_cylinder, build_delta,
                           build_epsilon, build_eta, build_mu)
from cqs.pauli import PAULI_1Q, NormalizedFactor, normalize_factor, pauli_reconstruct
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
    for bad in ("1.5", True, b"1.5"):  # not parsed or read as 1.0
        with pytest.raises(TypeError, match="real number"):
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
        doc = Circuit((0, 1, 2), (), (gate,), ()).to_dict()
        (back,) = Circuit.from_dict(doc).gates
        assert back.kind == gate.kind
        assert back.target == gate.target
        assert back.params == gate.params
        assert back.controls == gate.controls
        assert np.allclose(back.matrix2(), gate.matrix2())


def test_checked_controls_are_shared():
    shared = _pattern_table((1, 2), 4)[2][2]  # ancilla 1 on 1, ancilla 2 on 0
    gate = Gate("ry", 0, (0.5,), shared)
    assert gate.controls is shared
    assert Gate("x", 3, (), shared).controls is shared
    assert gate.adjoint().controls is gate.controls
    assert gate.controls == ((1, 1), (2, 0)) and hash(gate.controls) == hash(((1, 1), (2, 0)))
    assert Gate("x", 0).controls is Gate("h", 1, ()).controls  # one empty value
    with pytest.raises(ValueError, match="distinct"):
        Gate("x", 2, (), shared)  # a reused value still checks the target
    with pytest.raises(ValueError, match="undeclared qubit 5"):
        Circuit((0, 1), (), (Gate("x", 0, (), ((1, 1), (5, 1), (6, 0))),), ())
    late = _pattern_table((5, 6), 4)[2][1]
    with pytest.raises(ValueError, match="undeclared qubit 5"):
        Circuit((0, 1, 6), (), (Gate("x", 0, (), late), Gate("z", 1, (), late)), ())
    with pytest.raises(ValueError, match="undeclared qubit 3"):
        Circuit((0,), (), (Gate("x", 3, (), late),), ())  # the target is named first
    plain = Gate("x", 1, (), ((0, 1),))
    assert plain.controls == ((0, 1),)
    assert plain.to_dict() == {
        "kind": "x", "params": [], "target": 1, "controls": [{"q": 0, "state": 1}]
    }
    assert Gate("x", 1, (), _pattern_table((0,), 2)[1][1]).to_dict() == plain.to_dict()


# what the constructor takes, as drawn: every refused value is here with
# the error type and message test_gate_validation documents
_PARAMETERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-3, 3),
    st.floats(-4.0, 4.0).map(np.float64),
    st.booleans(),
    st.text(max_size=3),
    st.binary(max_size=3),
    st.sampled_from([math.nan, math.inf, -math.inf, np.float64(math.nan)]),
)
_QUBITS = st.one_of(st.integers(0, 3), st.integers(0, 3).map(np.int64),
                    st.integers(0, 3).map(np.uint8), st.booleans(),
                    st.integers(0, 3).map(float), st.floats(0.0, 3.0).map(np.float64))
_STATES = st.one_of(st.integers(0, 2), st.integers(0, 2).map(np.int8), st.booleans(),
                    st.sampled_from([0.0, 1.0]))


def _expected_index(value, refuse_bool=True):
    """The integer `value` is taken as, or the (error, message) refusing it."""
    if refuse_bool and isinstance(value, bool):
        return TypeError, "expected an integer"
    if isinstance(value, float):
        return TypeError, "cannot be interpreted as an integer"
    return int(value)


def _expected_gate(kind, target, params, controls):
    """(target, params, pairs) of the gate the constructor must build, or
    the (error, message) it must raise: the checks of the documented
    order, written out independently of the constructor."""
    if kind not in GATE_KINDS:
        return ValueError, "unknown gate kind"
    values = []
    for p in params:
        if isinstance(p, (str, bytes, bool)):
            return TypeError, "real number"
        if not math.isfinite(float(p)):
            return ValueError, "must be finite"
        values.append(float(p))
    if len(values) != GATE_KINDS[kind]:
        return ValueError, "parameter"
    target = _expected_index(target, refuse_bool=False)  # operator.index reads True as 1
    if type(target) is tuple:
        return target
    pairs = []
    for q, s in controls:
        q, s = _expected_index(q), _expected_index(s)
        for checked in (q, s):
            if type(checked) is tuple:
                return checked
        if s not in (0, 1):
            return ValueError, "0 or 1"
        if q in [p for p, _ in pairs]:
            return ValueError, "distinct"
        pairs.append((q, s))
    if target in [p for p, _ in pairs]:
        return ValueError, "distinct"
    return target, tuple(values), tuple(pairs)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_gate_constructor_accepts_and_refuses(data):
    """`Gate` accepts exactly what the documented checks accept, whatever
    the types of its arguments: an accepted gate has an int target, a
    tuple of plain floats and `_Controls` controls; a refused one raises
    the documented TypeError or ValueError."""
    kind = data.draw(st.sampled_from(sorted(GATE_KINDS) + ["swap"]))
    arity = GATE_KINDS.get(kind, 1)
    params = data.draw(st.lists(_PARAMETERS, min_size=max(arity - 1, 0), max_size=arity + 1))
    params = tuple(params) if data.draw(st.booleans()) else params
    target = data.draw(_QUBITS)
    container = data.draw(st.sampled_from(["list", "tuple", "_Controls"]))
    if container == "_Controls":
        qubits = data.draw(st.lists(st.integers(0, 3), max_size=3, unique=True))
        pairs = [(q, data.draw(st.integers(0, 1))) for q in qubits]
        controls = _Controls(pairs)
    else:
        pairs = data.draw(st.lists(st.tuples(_QUBITS, _STATES), max_size=3))
        controls = pairs if container == "list" else tuple(pairs)
    expected = _expected_gate(kind, target, params, pairs)
    if isinstance(expected[0], type):
        error, message = expected
        with pytest.raises(error, match=message):
            Gate(kind, target, params, controls)
        return
    gate = Gate(kind, target, params, controls)
    target, values, checked = expected
    assert gate.kind == kind and type(gate.target) is int and gate.target == target
    assert type(gate.params) is tuple and all(type(p) is float for p in gate.params)
    assert gate.params == values
    assert type(gate.controls) is _Controls and gate.controls == checked
    assert all(type(q) is int and type(s) is int for q, s in gate.controls)
    assert gate.controls.qubits == {q for q, _ in checked}
    if container == "_Controls":
        assert gate.controls is controls


_INTEGER_TYPES = st.sampled_from([int, np.int64, np.int32, np.int16])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_pattern_table_entries_are_checked_controls(data):
    """Each entry of a register's pattern table equals the checked
    `_Controls` of its (ancilla, bit) pairs, first ancilla most
    significant, with plain int qubits and states; each row shares one
    `qubits` set and lists the prefixes of the first `leaves` leaves."""
    ids = data.draw(st.lists(st.integers(0, 30000), max_size=6, unique=True))
    kinds = data.draw(st.lists(_INTEGER_TYPES, min_size=len(ids), max_size=len(ids)))
    m = len(ids)
    leaves = data.draw(st.integers(0, 2**m))
    table = _pattern_table(tuple(kind(q) for kind, q in zip(kinds, ids)), leaves)
    assert len(table) == m + 1
    assert table[0] == [_NO_CONTROLS] and table[0][0] is _NO_CONTROLS
    for level, row in enumerate(table[1:], start=1):
        assert len(row) == -(-leaves // 2 ** (m - level))
        assert len({id(entry.qubits) for entry in row}) <= 1
        for pattern, entry in enumerate(row):
            pairs = [(ids[j], (pattern >> (level - 1 - j)) & 1) for j in range(level)]
            checked = _Controls(pairs)
            assert type(entry) is _Controls
            assert entry == checked and hash(entry) == hash(checked)
            assert entry.qubits == checked.qubits == set(ids[:level])
            assert all(type(q) is int and type(s) is int for q, s in entry)
    for bad, error in (((3, 3), ValueError), ((1, 4, np.int64(1)), ValueError),
                       ((1, True), TypeError), ((False,), TypeError),
                       ((1, 2.0), TypeError), ((np.float64(1),), TypeError)):
        with pytest.raises(error):
            _pattern_table(bad, 2)
        with pytest.raises(error):
            prep_tree((1.0, 1.0), bad)
        with pytest.raises(error):
            _Controls((q, 0) for q in bad)


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
    assert circuit.work_qubits + circuit.ancilla_qubits == (0, 1)


def test_circuit_checks_every_target_under_a_checked_control_set():
    """A control qubit set found declared once is not checked again, but
    every gate's target still is."""
    shared = _pattern_table((1, 2), 4)[2][1]
    first, later = Gate("x", 0, (), shared), Gate("z", 5, (), shared)
    assert first.controls.qubits is later.controls.qubits
    with pytest.raises(ValueError, match="undeclared qubit 5"):
        Circuit((0,), (1, 2), (first, later), ())
    with pytest.raises(ValueError, match="undeclared qubit 5"):
        Circuit((0,), (1, 2), (first, Gate("ry", 0, (0.5,), shared), later), ())
    # a set met undeclared first is still refused on its later gates
    with pytest.raises(ValueError, match="undeclared qubit 2"):
        Circuit((0, 5), (1,), (Gate("x", 5), first, later), ())
    assert len(Circuit((0, 5), (1, 2), (first, later, first), ()).gates) == 3


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
        (dict(good, gates=[{"kind": "ry", "target": 0, "params": ["1.5"]}]), "malformed circuit"),
        (dict(good, gates=[{"kind": "ry", "target": 0, "params": [True]}]), "malformed circuit"),
        (dict(good, gates=[{"kind": "h", "target": True}]), "malformed circuit"),
        (dict(good, gates=[{"kind": "x", "target": 0, "controls": [{"q": True, "state": 1}]}]),
         "malformed circuit"),
        (dict(good, gates=[{"kind": "x", "target": 0, "controls": [{"q": 1, "state": True}]}]),
         "malformed circuit"),
        (dict(good, qubits=[{"id": True, "role": "work"}], gates=[], postselect=[]),
         "malformed circuit"),
        (dict(good, postselect=[dict(p, bit=False) for p in good["postselect"]]),
         "malformed circuit"),
        (dict(good, qubits=good["qubits"] + [{"id": 99, "role": "ancila"}]),
         "unknown qubit role 'ancila'"),
    ):
        with pytest.raises(ValueError, match=message):
            Circuit.from_dict(bad)


def test_from_dict_checks_each_repeated_control_list():
    """A control list met before in the document is looked up before it is
    checked, and the lookup keeps booleans and floats apart from equal
    integers: True == 1 == 1.0 with equal hashes."""
    def doc(*control_lists):
        gates = [{"kind": "x", "target": 0, "params": [], "controls": controls}
                 for controls in control_lists]
        return {"qubits": [{"id": q, "role": "work"} for q in range(3)],
                "gates": gates, "postselect": []}
    good = [{"q": 1, "state": 1}, {"q": 2, "state": 0}]
    for field, bad in (("state", True), ("q", True), ("state", 1.0), ("q", 1.0)):
        refused = [dict(good[0], **{field: bad}), good[1]]
        for order in ((good, refused), (refused, good), (good, good, refused)):
            with pytest.raises(ValueError, match="malformed circuit"):
                Circuit.from_dict(doc(*order))
    with pytest.raises(ValueError, match="control states must be 0 or 1"):
        Circuit.from_dict(doc(good, [{"q": 1, "state": 2}, good[1]]))
    with pytest.raises(ValueError, match="missing field 'state'"):
        Circuit.from_dict(doc(good, [{"q": 1}, good[1]]))
    with pytest.raises(ValueError, match="malformed circuit"):
        Circuit.from_dict(doc(good, [{"q": [1], "state": 1}, good[1]]))
    with pytest.raises(ValueError, match="distinct"):
        Circuit.from_dict(doc(good, [{"q": 0, "state": 1}]))  # a control on the target
    circuit = Circuit.from_dict(doc(good, [], list(good), good, [dict(good[1]), dict(good[0])]))
    first, empty, second, third, swapped = (g.controls for g in circuit.gates)
    assert first is second is third and first == ((1, 1), (2, 0))
    assert swapped == ((2, 0), (1, 1)) and swapped is not first and empty == ()
    assert all(type(v) is int for g in circuit.gates for pair in g.controls for v in pair)


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
# two draws past the bound (2.15 and 2.42 ulp) when the half masses are
# pairwise float sums and each angle an atan2 of two roots
@example([0.0, 0.0, 0.0, 0.0, 10.0**1.875, 0.01, 0.0, 10.0**1.1015625, 0.001])
@example([0.0, 2.2844270454044154e-11, 0.0, 0.0, 0.0, 6.026256317168401e-26, 0.0,
          1.0275075377687722e-12, 1.0, 1.0, 1.0, 2.2844270454044154e-11,
          8.90759110614594e-06, 0.0, 1.0, 100.0, 0.0, 1.0, 0.0, 0.0,
          3.1945491654530446e-16, 0.0])
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
    # a mass ratio below the normal float range keeps its precision too
    for small, big in ((1e-300, 1e10), (1e-200, 1e200)):
        ((_, theta),) = prep_tree((big, small), (0,))[1]
        assert theta == pytest.approx(2 * math.sqrt(small) / math.sqrt(big), rel=1e-15, abs=0)
        assert prep_tree((small, big), (0,))[1] == [("prep_l0_p0", math.pi)]


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


# ------------------------------------------------------- factor blocks


def test_compile_factor_single():
    normalized, _ = normalize_factor({"Y": 2j})
    circuit, report = compile_factor(normalized, 0, 1)
    assert circuit.work_qubits == (0,)
    assert circuit.ancilla_qubits == ()
    assert report == CompileReport("paper", 0, 1, 1.0, ())
    got = effective_operator(circuit).matrix
    assert np.max(np.abs(got - normalized.matrix())) < 1e-12


def test_compile_factor_two_term():
    normalized, _ = normalize_factor({"I": 0.5 + W / 3, "Z": -0.5})
    circuit, report = compile_factor(normalized, 0, 1)
    assert circuit.ancilla_qubits == (1,)
    assert circuit.postselect == ((1, 0),)
    ((name, theta),) = prep_tree(normalized.magnitudes, (1,))[1]
    assert report == CompileReport("paper", 1, 2, 1.0, ((name, theta),))
    first, last = circuit.gates[0], circuit.gates[-1]
    assert (first.kind, first.target, first.params) == ("ry", 1, (theta,))
    assert (last.kind, last.target, last.params) == ("ry", 1, (-theta,))
    got = effective_operator(circuit).matrix
    assert np.max(np.abs(got - normalized.matrix())) < 1e-12
    # mu's second bracket {1.5, -0.5}: weights 3:1 give pi/3
    _, report = compile_factor(normalize_factor({"I": 1.5, "Z": -0.5})[0], 0, 1)
    assert dict(report.angles)["prep_l0_p0"] == pytest.approx(math.pi / 3, abs=1e-15)


def test_compile_factor_four_term():
    normalized, _ = normalize_factor({"I": 0.5, "X": 1.0, "Y": 1j, "Z": 0.5})
    circuit, report = compile_factor(normalized, 2, 3)
    assert circuit.work_qubits == (2,)
    assert circuit.ancilla_qubits == (3, 4)
    assert circuit.postselect == ((3, 0), (4, 0))
    assert (report.mode, report.ancilla_count, report.term_count) == ("paper", 2, 4)
    assert report.nominal_scale == 2.0
    assert [name for name, _ in report.angles] == ["prep_l0_p0", "prep_l1_p0", "prep_l1_p1"]
    got = effective_operator(circuit).matrix
    assert np.max(np.abs(got - normalized.matrix() / 2.0)) < 1e-12


def test_compile_factor_three_term():
    normalized, _ = normalize_factor({"I": 1.0, "X": 0.5, "Z": 0.25})
    circuit, report = compile_factor(normalized, 0, 1)
    assert (report.ancilla_count, report.term_count, report.nominal_scale) == (2, 3, 2.0)
    got = effective_operator(circuit).matrix
    assert np.max(np.abs(got - normalized.matrix() / 2.0)) < 1e-12


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_compile_factor_start_is_an_integer(k):
    """A boolean or float first ancilla is refused with one message
    whatever the term count; a numpy integer compiles as the int does."""
    factor, _ = normalize_factor(dict(zip("IXYZ", (1.0, 0.5, 0.25j, -0.125)[:k])))
    assert len(factor.letters) == k
    for start in (True, 1.0):
        with pytest.raises(TypeError) as refused:
            compile_factor(factor, 0, start)
        with pytest.raises(TypeError) as refused_by_index:
            dc._index(start)
        assert str(refused.value) == str(refused_by_index.value)
    assert emit_text(compile_factor(factor, 0, np.int64(1))[0]) == emit_text(
        compile_factor(factor, 0, 1)[0])


_COEFFICIENTS = st.builds(
    lambda magnitude, phase: magnitude * cmath.exp(1j * phase),
    st.floats(1e-30, 1e3), st.floats(-math.pi, math.pi),
)


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.sampled_from("IXYZ"), _COEFFICIENTS, min_size=1, max_size=4))
def test_compile_factor_block_matches_factor(factor):
    """The block of any one-qubit Pauli sum is the normalized factor over
    its nominal scale; the dense oracle sums the Pauli matrices directly."""
    assume(any(abs(c) > 1e-14 for c in factor.values()))
    normalized, _ = normalize_factor(factor)
    circuit, report = compile_factor(normalized, 0, 1)
    assert report.nominal_scale == (1.0 if len(normalized.letters) <= 2 else 2.0)
    want = pauli_reconstruct(normalized.coefficients(), 1) / report.nominal_scale
    got = effective_operator(circuit).matrix
    assert np.max(np.abs(got - want)) < 1e-12


@settings(max_examples=20, deadline=None)
@given(count=st.integers(1, 5), beta=st.floats(0.0, 2.0),
       convention=st.sampled_from(list(PhaseConvention)),
       op_name=st.sampled_from(["mu", "delta", "eta", "eps"]))
def test_compile_paper_concatenates_factor_blocks(count, beta, convention, op_name):
    """The paper circuit is its per-qubit factor blocks side by side: their
    gates and ancillas in qubit order, the scales multiplied and the term
    counts added.  The blocks compile the very factors whose coefficients
    the factored form reports, each normalized once."""
    spec = FrobeniusSpec.su3(count, beta=beta, convention=convention)
    circuit, report = compile_paper(op_name, spec)
    factors = _paper_factors(op_name, spec)
    form = paper_factored_form(op_name, spec)
    assert form.factors == tuple(factor.coefficients() for factor in factors)
    gates, ancillas, scale, terms = [], [], 1.0, 0
    for q, factor in enumerate(factors):
        block, block_report = compile_factor(factor, q, len(factors) + len(ancillas))
        gates += [gate.to_dict() for gate in block.gates]
        ancillas += block.ancilla_qubits
        scale *= block_report.nominal_scale.real
        terms += block_report.term_count
    assert [gate.to_dict() for gate in circuit.gates] == gates
    assert circuit.ancilla_qubits == tuple(ancillas)
    assert circuit.postselect == tuple((a, 0) for a in ancillas)
    assert (report.nominal_scale, report.term_count) == (scale, terms)


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
    assert form.n_qubits == len(brackets)
    for k, bracket in enumerate(brackets):
        normalized, _ = normalize_factor(bracket)
        assert np.max(np.abs(pauli_reconstruct(form.factors[k], 1) - normalized.matrix())) < 1e-12


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
    than the factor blocks the figure's angle names point at."""
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


@pytest.mark.parametrize("matrix, factor", [
    (np.diag([0.5, 1.0]), {"I": 0.75, "Z": -0.25}),
    (2j * PAULI_1Q["Y"], {"Y": 2j}),
])
def test_compile_exact_matches_compile_factor(matrix, factor):
    """A one-qubit operator of one term, or of two terms of L1 weight 1,
    compiles to the same circuit as the paper-mode factor of its
    coefficients: both emit through one prepare/select helper."""
    circuit, _ = compile_exact(matrix)
    block, _ = compile_factor(normalize_factor(factor)[0], 0, 1)
    assert circuit.to_dict() == block.to_dict()


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


def test_compile_exact_rejects_non_finite():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="operator entries must be finite"):
            compile_exact(np.array([[bad, 0], [0, 1]]))
        with pytest.raises(ValueError, match="operator entries must be finite"):
            compile_exact(np.diag([1j, 0, 0, bad]))


def test_compile_exact_shares_controls():
    # the gates of one LCU term share its ancilla pattern, and a prep-tree
    # node's gate and its adjoint share theirs: at most one controls value
    # per term and per tree angle, not one per gate
    circuit, report = compile_exact(build_mu(FrobeniusSpec.su3(7)))
    distinct = len({id(gate.controls) for gate in circuit.gates})
    assert len(circuit.gates) == 3054
    assert distinct <= report.term_count + len(report.angles) == 895
    # a circuit read back from its document shares equal lists too
    back = Circuit.from_dict(circuit.to_dict())
    assert len({id(gate.controls) for gate in back.gates}) == len(
        {gate.controls for gate in back.gates}) <= distinct
    assert [gate.controls for gate in back.gates] == [gate.controls for gate in circuit.gates]


def test_compile_exact_takes_patterns_from_one_table():
    """Every control list of the su3(7) mu circuit comes from one pattern
    table: one shared qubit set per row, at most ancillas + 1 of them, and
    one controls object per distinct list, so the select gates of one term
    share theirs."""
    circuit, _ = compile_exact(build_mu(FrobeniusSpec.su3(7)))
    n_anc = len(circuit.ancilla_qubits)
    assert len({id(gate.controls.qubits) for gate in circuit.gates}) <= n_anc + 1
    shared: dict = {}
    for gate in circuit.gates:
        assert shared.setdefault(gate.controls, gate.controls) is gate.controls
    select = [gate for gate in circuit.gates if len(gate.controls) == n_anc
              and gate.target in circuit.work_qubits]
    assert len({id(gate.controls) for gate in select}) == len({gate.controls for gate in select})


@pytest.mark.parametrize("count,gates,ancillas", [(3, 266, 6), (7, 3054, 9), (15, 30910, 12)])
def test_compile_exact_mu_costs(count, gates, ancillas):
    # exact circuit costs of mu, the same figures the benchmark reports
    circuit, _ = compile_exact(build_mu(FrobeniusSpec.su3(count)))
    assert len(circuit.gates) == gates
    assert len(circuit.ancilla_qubits) == ancillas


# ------------------------------------------------------------ skeletons


def test_skeleton_keys_hold_checked_values_only():
    """A kept skeleton is keyed on checked values: an ancilla register met
    before as integers is checked again, so a boolean, float or np.float64
    ancilla still raises, and every target is a plain int, as
    `operator.index` makes it, whatever the type it was given in."""
    factor = NormalizedFactor("XYZ", (0.6, 0.6, math.sqrt(0.28)), (0.0, 0.5, 0.0))
    compile_factor(factor, 0, 1)  # keeps the skeleton of register (1, 2)
    prep_tree([1.0, 1.0], (1,))
    for bad in (True, 1.0, np.float64(1.0)):
        with pytest.raises(TypeError):
            compile_factor(factor, 0, bad)
        with pytest.raises(TypeError):
            prep_tree([1.0, 1.0], (bad,))
    expected = compile_factor(factor, 1, 2)[0].to_dict()
    for target in (True, np.int64(1), np.uint8(1)):
        circuit, _ = compile_factor(factor, target, 2)
        assert all(type(gate.target) is int for gate in circuit.gates)
        assert circuit.to_dict() == expected


_SUPPORT_ENTRIES = st.one_of(st.just(0.0), st.floats(-2.0, 2.0), st.sampled_from([1e-300, -0.0]))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_warm_compiles_equal_cold_ones(data):
    """An operator compiled on a kept skeleton, one a second operator of
    the same support left behind, gives the circuit, text, report and
    block of its compile on an empty cache, bit for bit, with the very
    select gates of that skeleton."""
    dim = 2 ** data.draw(st.integers(1, 4), label="qubits")
    entries = data.draw(st.lists(st.tuples(_SUPPORT_ENTRIES, _SUPPORT_ENTRIES),
                                 min_size=dim * dim, max_size=dim * dim))
    op = np.array([complex(re, im) for re, im in entries]).reshape(dim, dim)
    op.flat[data.draw(st.integers(0, dim * dim - 1))] = 1.0
    # a positive scale and a global phase change the weights and phases only
    twin = op * data.draw(st.floats(0.25, 4.0)) * cmath.exp(1j * data.draw(st.floats(-3.0, 3.0)))
    _SKELETONS.clear()
    cold, cold_report = compile_exact(op)
    expected = (emit_text(cold), cold.to_dict(), cold_report.to_dict(),
                effective_operator(cold).matrix.tobytes())
    _SKELETONS.clear()
    compile_exact(twin)
    kept = dict(_SKELETONS.entries)
    warm, warm_report = compile_exact(op)
    assert (emit_text(warm), warm.to_dict(), warm_report.to_dict(),
            effective_operator(warm).matrix.tobytes()) == expected
    if len(_SKELETONS.entries) == 1:  # the twin's support, unless a product underflowed
        ((_, selects, _),) = kept.values()
        fixed = [gate for gate in warm.gates if not gate.params]
        assert len(fixed) == sum(map(len, selects))
        assert all(a is b for a, b in zip(fixed, (g for gates in selects for g in gates)))


def test_mu_and_delta_share_their_skeleton():
    """su3(7) mu and its dagger delta expand over the same Pauli strings, so
    delta's circuit takes every parameter-free select gate and every
    controls object from mu's."""
    spec = FrobeniusSpec.su3(7)
    mu, _ = compile_exact(build_mu(spec))
    delta, _ = compile_exact(build_delta(spec))
    mu_fixed, delta_fixed = ([gate for gate in c.gates if not gate.params] for c in (mu, delta))
    assert len(mu_fixed) == len(delta_fixed) == 1728
    assert all(a is b for a, b in zip(mu_fixed, delta_fixed))
    controls = {id(gate.controls) for gate in mu.gates}
    assert len(controls) == 895
    assert {id(gate.controls) for gate in delta.gates} == controls


def test_invalid_letters_raise_every_call_and_are_not_kept(monkeypatch):
    cache = dc._Skeletons()
    monkeypatch.setattr(dc, "_SKELETONS", cache)
    factor = NormalizedFactor("IQ", (0.5, 0.5), (0.0, 0.0))
    for _ in range(2):
        with pytest.raises(ValueError, match="unknown gate kind 'q'"):
            compile_factor(factor, 0, 1)
        assert not cache.entries and cache.retained == 0
    compile_factor(NormalizedFactor("IX", (0.5, 0.5), (0.0, 0.0)), 0, 1)
    assert len(cache.entries) == 1


def test_skeletons_keep_to_their_budget(monkeypatch):
    """The kept skeletons never hold more gates plus controls than
    _SKELETON_BUDGET, the least recently used goes first, and a skeleton
    over the whole budget compiles as it would be kept but is not."""
    cache = dc._Skeletons()
    monkeypatch.setattr(dc, "_SKELETONS", cache)
    monkeypatch.setattr(dc, "_SKELETON_BUDGET", 10)
    # three supports of two one-qubit strings: a three-entry pattern table
    # (the empty pattern and one per leaf) and two select gates each
    ops = {letters: PAULI_1Q[letters[0]] - 0.5j * PAULI_1Q[letters[1]]
           for letters in ("XZ", "XY", "YZ")}

    def compiled(letters):
        circuit, report = compile_exact(ops[letters])
        assert cache.retained <= dc._SKELETON_BUDGET
        assert cache.retained == sum(size for _, _, size in cache.entries.values())
        return circuit, report

    compiled("XZ")
    compiled("XY")
    assert cache.retained == 10
    xz, xy = cache.entries
    compiled("XZ")  # a hit: XZ is now the most recently used
    compiled("YZ")  # evicts XY, the least recently used
    assert xy not in cache.entries and list(cache.entries)[0] == xz
    assert cache.retained == 10 and len(cache.entries) == 2

    kept = {letters: emit_text(compiled(letters)[0]) for letters in ops}
    cache.clear()
    monkeypatch.setattr(dc, "_SKELETON_BUDGET", 4)
    for letters, op in ops.items():
        circuit, report = compiled(letters)
        assert not cache.entries and cache.retained == 0
        assert emit_text(circuit) == kept[letters]
        got = effective_operator(circuit).matrix * report.nominal_scale.real
        assert np.max(np.abs(got - op)) < 1e-12


def _assert_as_checked(gates):
    """Each gate equals, field by field, the gate the checked constructor
    builds from its fields with the controls as a fresh list: a plain int
    target, plain float parameters of the same bits and checked controls
    whose qubit set is exactly theirs."""
    for gate in gates:
        checked = Gate(gate.kind, gate.target, gate.params, list(gate.controls))
        assert type(gate.target) is int and gate.target == checked.target
        assert gate.kind == checked.kind
        assert type(gate.params) is tuple and all(type(p) is float for p in gate.params)
        assert [p.hex() for p in gate.params] == [p.hex() for p in checked.params]
        assert type(gate.controls) is _Controls and gate.controls == checked.controls
        assert gate.controls.qubits == checked.controls.qubits
        assert all(type(q) is int and type(s) is int for q, s in gate.controls)


_ENTRIES = st.one_of(st.sampled_from([0.0, -0.0, 1e-15, -1e-15, 5e-324]), st.floats(-2.0, 2.0))
_BUILDERS = {"mu": build_mu, "delta": build_delta, "eta": build_eta, "eps": build_epsilon,
             "cylinder": build_cylinder}
_INTEGER_TYPE = st.sampled_from([int, np.int64, np.int32, np.uint8])
_PHASE = st.one_of(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0).map(np.float64),
                   st.integers(-3, 3), st.sampled_from([0.0, -0.0]))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_unchecked_stages_build_checked_gates(data):
    """The compiler stages check their inputs once and build their gates
    unchecked; every gate they give still equals what the checked
    constructor makes of its fields (`_assert_as_checked`)."""
    case = data.draw(st.sampled_from(["exact", "generator", "factor", "prep_tree"]))
    if case == "exact":
        # a 1-3 qubit operator with zero, tiny and signed-zero entries, and
        # one entry of 1 so that it is not the zero operator
        dim = 2 ** data.draw(st.integers(1, 3))
        entries = data.draw(st.lists(st.tuples(_ENTRIES, _ENTRIES),
                                     min_size=dim * dim, max_size=dim * dim))
        mat = np.array([complex(re, im) for re, im in entries]).reshape(dim, dim)
        mat.flat[data.draw(st.integers(0, dim * dim - 1))] = 1.0
        gates = compile_exact(mat)[0].gates
    elif case == "generator":
        op_name = data.draw(st.sampled_from(sorted(_BUILDERS)))
        spec = FrobeniusSpec.su3(3, beta=data.draw(st.floats(0.0, 2.0)),
                                 convention=data.draw(st.sampled_from(list(PhaseConvention))))
        gates = compile_exact(_BUILDERS[op_name](spec))[0].gates
        if op_name != "cylinder":
            gates += compile_paper(op_name, spec)[0].gates
    elif case == "factor":
        # a user-made factor: phases of any real type, a numpy-int target
        letters = data.draw(st.lists(st.sampled_from("IXYZ"), min_size=1, max_size=4,
                                     unique=True))
        k = len(letters)
        magnitudes = data.draw(st.lists(st.floats(0.01, 2.0), min_size=k, max_size=k))
        phases = data.draw(st.lists(_PHASE, min_size=k, max_size=k))
        factor = NormalizedFactor("".join(letters), tuple(magnitudes), tuple(phases))
        target = data.draw(_INTEGER_TYPE)(data.draw(st.integers(0, 5)))
        start = int(target) + data.draw(st.integers(1, 3))
        circuit, _ = compile_factor(factor, target, start)
        gates = circuit.gates
        assert sum(1 for g in gates if g.kind == "phase") == sum(1 for p in phases if p != 0.0)
    else:
        mass = data.draw(_MASSES.filter(lambda m: sum(m) > 0.0))
        m = (len(mass) - 1).bit_length()
        ids = data.draw(st.lists(st.integers(0, 200), min_size=m, max_size=m, unique=True))
        ancillas = tuple(data.draw(_INTEGER_TYPE)(q) for q in ids)
        gates, _ = prep_tree(mass, ancillas)
        assert {g.target for g in gates} <= set(ids)
    _assert_as_checked(gates)
    _assert_as_checked([gate.adjoint() for gate in gates])


def _refusal(kind, target, params, controls):
    """The message of the checked constructor's ValueError."""
    with pytest.raises(ValueError) as info:
        Gate(kind, target, params, controls)
    return str(info.value)


def test_stage_checks_refuse_as_the_constructor_does():
    """A select target inside the ancilla register, and a phase that is
    NaN or infinite, are refused with the constructor's messages."""
    overlap = _refusal("x", 1, (), ((1, 1),))
    # (letters, target, first ancilla): one ancilla for two terms, two for more
    for letters, target, start in (("XZ", 1, 1), ("IY", np.int64(3), 3), ("XYZ", 1, 1),
                                   ("IXYZ", np.int32(2), 1)):
        k = len(letters)
        factor = NormalizedFactor(letters, (0.5,) * k, (0.0,) * k)
        with pytest.raises(ValueError) as info:
            compile_factor(factor, target, start)
        assert str(info.value) == overlap
    for bad in (math.nan, math.inf, -math.inf, np.float64(math.nan), np.float64(-math.inf)):
        for letters, phases in (("X", (bad,)), ("IZ", (0.0, bad)), ("XYZ", (1, 0.5, bad))):
            k = len(letters)
            factor = NormalizedFactor(letters, (1.0 / k,) * k, phases)
            with pytest.raises(ValueError) as info:
                compile_factor(factor, 0, 1)
            assert str(info.value) == _refusal("phase", 0, (bad,), ())
    # a letter that names no Pauli matrix still goes through the constructor
    with pytest.raises(ValueError, match="unknown gate kind 'q'"):
        compile_factor(NormalizedFactor("IQ", (0.5, 0.5), (0.0, 0.0)), 0, 1)


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


def test_emit_text_shared_and_copied_controls_agree():
    """The text does not depend on whether gates share one controls
    object or each hold an equal copy of it."""
    for circuit in (compile_exact(build_mu(FrobeniusSpec.su3(3, beta=0.37)))[0],
                    compile_paper("eta", FrobeniusSpec.su3(3))[0]):
        copied = Circuit(circuit.work_qubits, circuit.ancilla_qubits,
                         tuple(Gate(g.kind, g.target, g.params, list(g.controls))
                               for g in circuit.gates), circuit.postselect)
        assert len({id(g.controls) for g in copied.gates if g.controls}) == sum(
            1 for g in copied.gates if g.controls)
        assert emit_text(copied) == emit_text(circuit)
    shared = _Controls(((1, 0), (2, 1)))
    gates = (Gate("ry", 0, (0.25,), shared), Gate("x", 0, (), shared),
             Gate("ry", 0, (-0.25,), shared))
    copies = tuple(Gate(g.kind, g.target, g.params, ((1, 0), (2, 1))) for g in gates)
    texts = [emit_text(Circuit((0,), (1, 2), gs, ((1, 0), (2, 1)))) for gs in (gates, copies)]
    assert texts[0] == texts[1]
    assert "ccry(0.25) !a0, a1, q0;\nccx !a0, a1, q0;\nccry(-0.25) !a0, a1, q0;\n" in texts[0]


def _emit_reference(circuit):
    """`emit_text` written plainly: one join per gate, repr per parameter."""
    names = {q: f"q{i}" for i, q in enumerate(circuit.work_qubits)}
    names.update((q, f"a{i}") for i, q in enumerate(circuit.ancilla_qubits))
    lines = ["work " + ", ".join(names[q] for q in circuit.work_qubits) + ";"]
    if circuit.ancilla_qubits:
        lines.append("ancilla " + ", ".join(names[q] for q in circuit.ancilla_qubits) + ";")
    for gate in circuit.gates:
        operands = "".join(("" if s else "!") + names[q] + ", " for q, s in gate.controls)
        head = "c" * len(gate.controls) + gate.kind
        if gate.params:
            head += "(" + ",".join(map(repr, gate.params)) + ")"
        lines.append(f"{head} {operands}{names[gate.target]};")
    lines += [f"postselect {names[q]} -> {bit};" for q, bit in circuit.postselect]
    return "\n".join(lines) + "\n"


_SPECIAL_MAGNITUDES = [0.0, 5e-324, 1e300, 0.1, math.pi]


@st.composite
def _emit_circuits(draw):
    """Circuits whose control lists are unsorted, empty, shared as one
    object, equal by value as distinct objects or extensions of an earlier
    list by one pair, and whose parameters include 0.0, -0.0, x and -x,
    5e-324 and 1e300."""
    n = draw(st.integers(1, 5))
    ids = draw(st.permutations(range(n)))
    n_work = draw(st.integers(1, n))
    magnitudes = draw(st.lists(st.one_of(st.sampled_from(_SPECIAL_MAGNITUDES),
                                         st.floats(0.0, 1e6)), min_size=1, max_size=3))
    gates, lists = [], []
    for _ in range(draw(st.integers(0, 14))):
        how = draw(st.sampled_from(["new", "shared", "copy", "extend", "empty"]))
        if how == "new" or not lists:
            qubits = draw(st.lists(st.sampled_from(ids), max_size=n - 1, unique=True))
            controls = [(q, draw(st.integers(0, 1))) for q in qubits]
        else:
            earlier = draw(st.sampled_from(lists))
            controls = {"shared": earlier, "copy": list(earlier), "empty": ()}.get(how)
            if how == "extend":
                free = [q for q in ids if q not in earlier.qubits]
                controls = list(earlier)
                if len(free) > 1:
                    controls.append((draw(st.sampled_from(free)), draw(st.integers(0, 1))))
        taken = {q for q, _ in controls}
        target = draw(st.sampled_from([q for q in ids if q not in taken] or [None]))
        if target is None:
            controls, target = (), draw(st.sampled_from(ids))
        kind = draw(st.sampled_from(sorted(GATE_KINDS)))
        params = ()
        if GATE_KINDS[kind]:
            params = (draw(st.sampled_from(magnitudes)) * draw(st.sampled_from([1.0, -1.0])),)
        gate = Gate(kind, target, params, controls)
        gates.append(gate)
        lists.append(gate.controls)
    ancillas = ids[n_work:]
    post = tuple((a, draw(st.integers(0, 1))) for a in ancillas)
    return Circuit(ids[:n_work], ancillas, tuple(gates), post)


def _long_controls(count: int) -> Circuit:
    """One gate of `count` controls, on a list no other gate shares."""
    return Circuit(tuple(range(count + 1)), (), (
        Gate("x", count, (), tuple((q, q % 2) for q in range(count))),), ())


# far more controls than the interpreter's recursion limit
_LONG_CONTROLS = _long_controls(3000)
_LONGER_CONTROLS = _long_controls(20000)


@settings(max_examples=300, deadline=None)
@given(_emit_circuits())
@example(_LONG_CONTROLS)
@example(_LONGER_CONTROLS)
def test_emit_text_matches_plain_rendering(circuit):
    """The memoized control texts and parameter reprs give the bytes of
    the plain rendering, whatever the sharing, order, signs and length of
    the control lists."""
    assert emit_text(circuit) == _emit_reference(circuit)


def test_emit_text_is_linear_in_a_fresh_control_list():
    """A control list with no kept rendering is rendered in one join of
    its operand strings: 20000 controls take a few milliseconds.  The
    circuit is built here, so its list holds no rendering from an earlier
    emit."""
    circuit = _long_controls(20000)
    start = time.perf_counter()
    emit_text(circuit)
    assert time.perf_counter() - start < 0.5


@st.composite
def _redeclared_circuits(draw):
    """A circuit on 1-4 work qubits and 0-3 ancillas whose gates share a
    few controls objects, the first gate and maybe others uncontrolled
    (the shared `_NO_CONTROLS`), and a permutation of each register."""
    n_work, n_anc = draw(st.integers(1, 4)), draw(st.integers(0, 3))
    ids = draw(st.permutations(range(n_work + n_anc)))
    work, ancillas = tuple(ids[:n_work]), tuple(ids[n_work:])
    shared = [_NO_CONTROLS]
    for _ in range(draw(st.integers(0, 4)) if len(ids) > 1 else 0):
        qubits = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=len(ids) - 1,
                               unique=True))
        shared.append(_Controls((q, draw(st.integers(0, 1))) for q in qubits))
    gates = []
    for index in range(draw(st.integers(1, 12))):
        controls = draw(st.sampled_from(shared)) if index else _NO_CONTROLS
        kind = draw(st.sampled_from(sorted(GATE_KINDS)))
        params = (draw(st.floats(-4.0, 4.0)),) if GATE_KINDS[kind] else ()
        target = draw(st.sampled_from([q for q in ids if q not in controls.qubits]))
        gates.append(Gate(kind, target, params, controls))
    circuit = Circuit(work, ancillas, tuple(gates), tuple((a, 0) for a in ancillas))
    return circuit, (tuple(draw(st.permutations(work))), tuple(draw(st.permutations(ancillas))))


@settings(max_examples=200, deadline=None)
@given(_redeclared_circuits())
def test_emit_text_rendering_follows_the_declaration(drawn):
    """The rendering each controls object keeps is used only under the
    qubit ids it was made for: the same gate objects emitted under a
    permuted declaration, then under the first one again, give the text
    of a parsed copy, whose controls are fresh.  The names are
    positional, so a rendering kept per name list would be wrong here."""
    circuit, (work, ancillas) = drawn
    permuted = Circuit(work, ancillas, circuit.gates, circuit.postselect)
    for declared in (circuit, permuted, circuit):
        assert emit_text(declared) == emit_text(Circuit.from_dict(declared.to_dict()))


def test_warm_emit_takes_the_kept_rendering(monkeypatch):
    """su3(7) delta shares every controls object of mu's circuit and its
    declaration, so emitting mu renders every control list of delta: each
    holds its rendering for delta's declaration before delta is emitted,
    and delta's text equals that of its parsed copy."""
    monkeypatch.setattr(dc, "_SKELETONS", dc._Skeletons())
    spec = FrobeniusSpec.su3(7)
    mu, _ = compile_exact(build_mu(spec))
    delta, _ = compile_exact(build_delta(spec))
    declaration = (delta.work_qubits, delta.ancilla_qubits)
    controls = list({id(gate.controls): gate.controls for gate in delta.gates}.values())
    assert all(c._emitted == (None, "") for c in controls if c is not _NO_CONTROLS)
    emit_text(mu)
    assert all(c._emitted[0] == declaration for c in controls)
    assert emit_text(delta) == emit_text(Circuit.from_dict(delta.to_dict()))


def test_emit_text_deterministic(spec):
    circuit, _ = compile_paper("mu", spec)
    text = emit_text(circuit)
    assert text == emit_text(circuit)
    assert text.startswith("work q0, q1, q2, q3;\nancilla a0")
    assert text.count("postselect") == 6
    assert text.endswith("postselect a5 -> 0;\n")
