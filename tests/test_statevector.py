"""Statevector engine: gate application, post-selected runs, cup and cap.

Single gates, run through `run_state` on a one-gate circuit, are checked
against a brute-force oracle that walks every basis state and applies the
control/target logic by bit inspection; whole random circuits are checked
against a dense Kronecker-product unitary built from this file's own 2x2
matrices.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqs import statevector
from cqs.duality_compiler import Circuit, Gate, compile_exact, compile_paper
from cqs.frobenius import FrobeniusSpec, build_eta
from cqs.statevector import (
    MAX_QUBITS,
    cap,
    cup,
    effective_operator,
    run,
    run_state,
)


def dense_gate_oracle(gate, n):
    """Full 2^n matrix of a controlled single-qubit gate, built state by state."""
    u = gate.matrix2()
    dim = 2**n
    full = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        bits = format(col, f"0{n}b")
        if all(int(bits[q]) == s for q, s in gate.controls):
            t = gate.target
            for val in (0, 1):
                amp = u[val, int(bits[t])]
                if amp != 0:
                    row_bits = bits[:t] + str(val) + bits[t + 1 :]
                    full[int(row_bits, 2), col] += amp
        else:
            full[col, col] = 1.0
    return full


def basis(bits):
    """Basis-state amplitude vector of a bitstring (qubit 0 leftmost)."""
    vec = np.zeros(2 ** len(bits), dtype=complex)
    vec[int(bits, 2)] = 1.0
    return vec


def test_statevector_validation():
    """cup and cap take a vector of length 2**n, n <= MAX_QUBITS."""
    for op in (cup, cap):
        for bad in (np.zeros(3), np.zeros(6), np.zeros(0), np.zeros((2, 2)), 1.0):
            with pytest.raises(ValueError, match="length 2"):
                op(bad, 0, 1)
        # beyond the qubit budget; a broadcast view allocates nothing
        too_long = np.broadcast_to(np.complex128(0), (2 ** (MAX_QUBITS + 1),))
        with pytest.raises(ValueError, match=f"exceeds {MAX_QUBITS} qubits"):
            op(too_long, 0, 1)
    # array-likes of any numeric dtype are accepted
    out, _ = cup([1, 0, 0, 0], 0, 1)
    assert out.dtype == complex and out.shape == (4,)
    reduced, weight = cap(np.array([1.0, 0.0, 0.0, 1.0]), 0, 1)
    assert reduced.dtype == complex and reduced.shape == (1,)
    assert weight == pytest.approx(2.0)
    # the input vector is never written
    vec = basis("100")
    cup(vec, 1, 2)
    cap(vec, 0, 2)
    assert np.array_equal(vec, basis("100"))


def test_single_gate_against_oracle():
    rng = np.random.default_rng(17)
    kinds = [
        ("ry", 1), ("rz", 1), ("phase", 1), ("x", 0), ("y", 0), ("z", 0), ("h", 0),
    ]
    for _ in range(40):
        n = int(rng.integers(2, 5))
        kind, n_params = kinds[rng.integers(len(kinds))]
        target = int(rng.integers(n))
        controls = []
        for q in range(n):
            if q != target and rng.random() < 0.4:
                controls.append((q, int(rng.integers(2))))
        params = tuple(rng.uniform(-math.pi, math.pi, size=n_params))
        gate = Gate(kind, target, params, tuple(controls))
        vec = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        vec /= np.linalg.norm(vec)
        got, _ = run_state(Circuit(tuple(range(n)), (), (gate,), ()), vec)
        want = dense_gate_oracle(gate, n) @ vec
        assert np.max(np.abs(got - want)) < 1e-12


def test_apply_gate_out_of_range():
    """A gate on a qubit outside the register never reaches the simulator."""
    with pytest.raises(ValueError, match="undeclared qubit 2"):
        run_state(Circuit((0, 1), (), (Gate("x", 2),), ()), basis("00"))
    with pytest.raises(ValueError, match="undeclared qubit 5"):
        run_state(Circuit((0, 1), (), (Gate("x", 0, (), ((5, 1),)),), ()), basis("00"))


def test_unitary_circuit_preserves_norm():
    circuit = Circuit((0, 1), (), (Gate("h", 0), Gate("x", 1, (), ((0, 1),))), ())
    vec, probability = run(circuit, "00")
    assert probability == pytest.approx(1.0)
    # Bell state on the work register
    assert np.allclose(vec, [1 / math.sqrt(2), 0, 0, 1 / math.sqrt(2)])


def test_postselection_probability():
    # H on the ancilla then keep 0: effective operator I / sqrt(2)
    circuit = Circuit((0,), (1,), (Gate("h", 1),), ((1, 0),))
    vec, probability = run(circuit, "1")
    assert probability == pytest.approx(0.5)
    assert np.allclose(vec, [0, 1 / math.sqrt(2)])
    effective = effective_operator(circuit)
    assert np.allclose(effective.matrix, np.eye(2) / math.sqrt(2))
    assert effective.success_probabilities == {
        "0": pytest.approx(0.5),
        "1": pytest.approx(0.5),
    }


def test_postselect_one_branch():
    # X on the ancilla, then require 0: nothing survives
    circuit = Circuit((0,), (1,), (Gate("x", 1),), ((1, 0),))
    vec, probability = run(circuit, "0")
    assert probability == 0.0
    assert np.max(np.abs(vec)) == 0.0


def test_run_state_linearity():
    spec = FrobeniusSpec.su3(3, beta=1.0)
    circuit, _ = compile_exact(build_eta(spec))
    effective = effective_operator(circuit)
    rng = np.random.default_rng(23)
    vec = rng.normal(size=4) + 1j * rng.normal(size=4)
    vec /= np.linalg.norm(vec)
    out, probability = run_state(circuit, vec)
    assert np.max(np.abs(out - effective.matrix @ vec)) < 1e-12
    assert probability == pytest.approx(float(np.sum(np.abs(out) ** 2)))


def test_effective_matches_basis_runs():
    spec = FrobeniusSpec.su3(3, beta=1.0)
    circuit, _ = compile_paper("eta", spec)
    effective = effective_operator(circuit)
    for j in range(4):
        bits = format(j, "02b")
        column, probability = run(circuit, bits)
        assert np.max(np.abs(column - effective.matrix[:, j])) < 1e-14
        assert effective.success_probabilities[bits] == pytest.approx(probability)


def test_run_input_validation():
    circuit = Circuit((0,), (1,), (Gate("h", 1),), ((1, 0),))
    with pytest.raises(ValueError):
        run(circuit, "00")
    with pytest.raises(ValueError):
        run(circuit, "2")
    with pytest.raises(ValueError):
        run_state(circuit, np.zeros(4))


def test_unpostselected_ancilla_rejected():
    circuit = Circuit((0,), (1,), (Gate("h", 1),), ())
    with pytest.raises(ValueError):
        run(circuit, "0")
    with pytest.raises(ValueError):
        effective_operator(circuit)


def test_qubit_budget():
    too_many = Circuit(tuple(range(MAX_QUBITS - 1)), (30, 31), (),
                       ((30, 0), (31, 0)))
    with pytest.raises(ValueError):
        run(too_many, "0" * (MAX_QUBITS - 1))


def test_cup_writes_bell_pair():
    state, scale = cup(basis("100"), 1, 2)
    assert scale == pytest.approx(math.sqrt(2))
    want = np.zeros(8, dtype=complex)
    want[0b100] = 1 / math.sqrt(2)
    want[0b111] = 1 / math.sqrt(2)
    assert np.allclose(state, want)
    # pair qubits given out of order and apart
    state, _ = cup(basis("0100"), 3, 0)
    assert np.flatnonzero(state).tolist() == [0b0100, 0b1101]


def test_cup_requires_fresh_qubits():
    with pytest.raises(ValueError, match="fresh"):
        cup(basis("01"), 0, 1)
    with pytest.raises(ValueError, match="distinct"):
        cup(basis("00"), 0, 0)
    with pytest.raises(ValueError, match="in-range"):
        cup(basis("00"), 0, 5)


def test_cap_projection_weight():
    rng = np.random.default_rng(29)
    vec = rng.normal(size=8) + 1j * rng.normal(size=8)
    vec /= np.linalg.norm(vec)
    reduced, weight = cap(vec, 0, 2)
    # direct projection: qubit 1 survives; (q0, q2) projected on the pair
    want = np.zeros(2, dtype=complex)
    for q1_bit in range(2):
        want[q1_bit] = (vec[int(f"0{q1_bit}0", 2)] + vec[int(f"1{q1_bit}1", 2)]) / math.sqrt(2)
    assert np.allclose(reduced, want)
    assert weight == pytest.approx(float(np.sum(np.abs(want) ** 2)))


def test_cap_every_pair_against_bit_oracle():
    rng = np.random.default_rng(37)
    for n in range(2, 6):
        vec = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        for q1 in range(n):
            for q2 in range(n):
                if q1 == q2:
                    continue
                keep = [q for q in range(n) if q not in (q1, q2)]
                want = np.zeros(2 ** len(keep), dtype=complex)
                for idx in range(2**n):
                    bits = format(idx, f"0{n}b")
                    if bits[q1] == bits[q2]:
                        reduced_idx = int("".join(bits[q] for q in keep) or "0", 2)
                        want[reduced_idx] += vec[idx] / math.sqrt(2)
                reduced, weight = cap(vec, q1, q2)
                assert reduced.shape == (2 ** (n - 2),)
                assert np.allclose(reduced, want, atol=1e-14)
                assert weight == pytest.approx(float(np.sum(np.abs(want) ** 2)))


def test_snake_identity():
    # bend a wire: cup on fresh (1, 2), then cap on (0, 1) moves the state
    # to qubit 2 at half amplitude (the two normalized halves of the pair)
    rng = np.random.default_rng(31)
    psi = rng.normal(size=2) + 1j * rng.normal(size=2)
    psi /= np.linalg.norm(psi)
    start = np.kron(psi, [1, 0, 0, 0]).astype(complex)
    bent, cup_scale = cup(start, 1, 2)
    final, weight = cap(bent, 0, 1)
    assert np.allclose(final, psi / 2)
    assert cup_scale * math.sqrt(2) == pytest.approx(2.0)  # undoes the 1/2
    assert weight == pytest.approx(0.25)


def test_cap_orthogonal_branch():
    reduced, weight = cap(basis("01"), 0, 1)
    assert weight == 0.0
    assert reduced.shape == (1,)


def oracle_matrix2(kind, params):
    """The 2x2 target matrix of each gate kind, written out independently
    of Gate.matrix2."""
    if kind == "ry":
        c, s = math.cos(params[0] / 2), math.sin(params[0] / 2)
        return np.array([[c, -s], [s, c]], dtype=complex)
    if kind == "rz":
        return np.diag([cmath.exp(-0.5j * params[0]), cmath.exp(0.5j * params[0])])
    if kind == "phase":
        return cmath.exp(1j * params[0]) * np.eye(2)
    fixed = {
        "x": [[0, 1], [1, 0]],
        "y": [[0, -1j], [1j, 0]],
        "z": [[1, 0], [0, -1]],
        "h": [[1 / math.sqrt(2), 1 / math.sqrt(2)], [1 / math.sqrt(2), -1 / math.sqrt(2)]],
    }
    return np.array(fixed[kind], dtype=complex)


def oracle_unitary(circuit):
    """Dense unitary over the register (work then ancillas, big-endian):
    each gate is I + kron(|s><s| on controls, U - I on the target, I)."""
    order = circuit.qubit_order()
    dim = 2 ** len(order)
    total = np.eye(dim, dtype=complex)
    for gate in circuit.gates:
        controls = dict(gate.controls)
        factors = []
        for q in order:
            if q == gate.target:
                factors.append(oracle_matrix2(gate.kind, gate.params) - np.eye(2))
            elif q in controls:
                projector = np.zeros((2, 2))
                projector[controls[q], controls[q]] = 1.0
                factors.append(projector)
            else:
                factors.append(np.eye(2))
        term = np.ones((1, 1), dtype=complex)
        for factor in factors:
            term = np.kron(term, factor)
        total = (np.eye(dim) + term) @ total
    return total


def oracle_block(circuit):
    """<post-selected ancillas| U |ancillas 0>, as a work-register matrix."""
    n_anc = len(circuit.ancilla_qubits)
    kept = dict(circuit.postselect)
    mask = int("".join(str(kept[q]) for q in circuit.ancilla_qubits) or "0", 2)
    unitary = oracle_unitary(circuit)
    dim_work = 2 ** len(circuit.work_qubits)
    rows = [w * 2**n_anc + mask for w in range(dim_work)]
    cols = [w * 2**n_anc for w in range(dim_work)]
    return unitary[np.ix_(rows, cols)]


_KIND_ARITY = {"ry": 1, "rz": 1, "phase": 1, "x": 0, "y": 0, "z": 0, "h": 0}


@st.composite
def random_circuits(draw):
    """Circuits of at most 6 qubits over every gate kind, with arbitrary
    qubit ids, controls, control states and post-selected bits.  `start`
    picks the opening: a run of ancilla-only gates (shared in the effective
    operator), a first gate on a work target, or a first gate on work qubits
    alone, so every ancilla is touched only after a work gate."""
    n_work = draw(st.integers(1, 3))
    n_anc = draw(st.integers(0, 6 - n_work))
    ids = draw(st.permutations(range(3, 3 + 2 * (n_work + n_anc), 2)))
    work, anc = tuple(ids[:n_work]), tuple(ids[n_work:])
    angles = st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False)

    def gate(targets, control_pool):
        kind = draw(st.sampled_from(sorted(_KIND_ARITY)))
        target = draw(st.sampled_from(targets))
        others = [q for q in control_pool if q != target]
        chosen = draw(st.lists(st.sampled_from(others), unique=True)) if others else []
        controls = tuple((q, draw(st.integers(0, 1))) for q in chosen)
        params = tuple(draw(angles) for _ in range(_KIND_ARITY[kind]))
        return Gate(kind, target, params, controls)

    start = draw(st.sampled_from(["ancilla prefix", "work target", "work only"]))
    everyone = work + anc
    gates = []
    if start == "ancilla prefix" and anc:
        gates += [gate(anc, anc) for _ in range(draw(st.integers(1, 4)))]
    elif start == "work target":
        gates.append(gate(work, everyone))
    else:
        gates.append(gate(work, work))
    gates += [gate(everyone, everyone) for _ in range(draw(st.integers(0, 8)))]
    postselect = tuple((q, draw(st.integers(0, 1))) for q in anc)
    return Circuit(work, anc, tuple(gates), postselect)


@settings(max_examples=100, deadline=None)
@given(random_circuits(), st.data())
def test_random_circuits_against_dense_oracle(circuit, data):
    want = oracle_block(circuit)
    effective = effective_operator(circuit)
    assert np.max(np.abs(effective.matrix - want)) <= 1e-12
    n_work = len(circuit.work_qubits)
    for j in range(2**n_work):
        bits = format(j, f"0{n_work}b")
        norm2 = float(np.sum(np.abs(want[:, j]) ** 2))
        assert abs(effective.success_probabilities[bits] - norm2) <= 1e-12
    j = data.draw(st.integers(0, 2**n_work - 1))
    column, probability = run(circuit, format(j, f"0{n_work}b"))
    assert np.max(np.abs(column - want[:, j])) <= 1e-12
    assert abs(probability - float(np.sum(np.abs(want[:, j]) ** 2))) <= 1e-12
    # the shared ancilla prefix and the batched columns change no value
    assert np.array_equal(column, effective.matrix[:, j])


def generic_update(block, n, gate):
    """The reference kernel: gather both halves with index masks and apply
    u00 * a0 + u01 * a1, u10 * a0 + u11 * a1 (qubit ids are positions)."""
    rows = np.arange(block.shape[0])
    target_bit = 1 << (n - 1 - gate.target)
    matched = (rows & target_bit) == 0
    for q, state in gate.controls:
        matched &= ((rows >> (n - 1 - q)) & 1) == state
    lower = rows[matched]
    upper = lower | target_bit
    u = gate.matrix2()
    a0, a1 = block[lower].copy(), block[upper].copy()
    block[lower] = u[0, 0] * a0 + u[0, 1] * a1
    block[upper] = u[1, 0] * a0 + u[1, 1] * a1


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6), st.sampled_from([1, 2, 3, 8]), st.data())
def test_kernels_repeat_the_generic_arithmetic(n, cols, data):
    """Every kernel gives exactly the values of the generic update: the
    bit-identity contract of the statevector module."""
    kind = data.draw(st.sampled_from(sorted(_KIND_ARITY)))
    target = data.draw(st.integers(0, n - 1))
    others = [q for q in range(n) if q != target]
    chosen = data.draw(st.lists(st.sampled_from(others), unique=True)) if others else []
    controls = tuple((q, data.draw(st.integers(0, 1))) for q in chosen)
    angles = st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False)
    gate = Gate(kind, target, tuple(data.draw(angles) for _ in range(_KIND_ARITY[kind])),
                controls)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    scales = 10.0 ** rng.integers(-30, 3, size=(2**n, cols))
    block = (rng.normal(size=(2**n, cols)) + 1j * rng.normal(size=(2**n, cols))) * scales
    want = block.copy()
    generic_update(want, n, gate)
    statevector._simulate((gate,), block, {q: q for q in range(n)})
    assert np.array_equal(block, want)


@settings(max_examples=60, deadline=None)
@given(random_circuits(), st.integers(1, 7))
def test_sliced_updates_are_exact(circuit, chunk):
    """Updating large halves slice by slice changes no value."""
    whole = effective_operator(circuit).matrix
    saved = statevector._CHUNK
    statevector._CHUNK = chunk
    try:
        sliced = effective_operator(circuit).matrix
    finally:
        statevector._CHUNK = saved
    assert np.array_equal(sliced, whole)


def test_shared_prefix_is_exact():
    """Running the prepare tree once for all columns changes no value:
    each column equals a per-column run, which simulates every gate."""
    prep = (Gate("ry", 2, (0.7,)), Gate("ry", 3, (1.1,), ((2, 1),)), Gate("h", 3, (), ((2, 0),)))
    body = (Gate("x", 0, (), ((2, 1), (3, 0))), Gate("phase", 1, (0.3,), ((3, 1),)),
            Gate("y", 1, (), ((2, 0),)), Gate("rz", 0, (0.9,), ((3, 1),)))
    unprep = tuple(g.adjoint() for g in reversed(prep))
    circuit = Circuit((0, 1), (2, 3), prep + body + unprep, ((2, 0), (3, 0)))
    assert statevector._ancilla_prefix_length(circuit) == 3
    effective = effective_operator(circuit)
    for j in range(4):
        column, probability = run(circuit, format(j, "02b"))
        assert np.array_equal(column, effective.matrix[:, j])
        assert probability == effective.success_probabilities[format(j, "02b")]


def test_probabilities_are_raw():
    # no ancilla: the success probability of an unnormalized input is its
    # raw squared norm, not clipped to 1
    circuit = Circuit((0,), (), (Gate("h", 0),), ())
    out, probability = run_state(circuit, np.array([2.0, 0.0]))
    assert probability == pytest.approx(4.0)
    assert np.allclose(out, [math.sqrt(2), math.sqrt(2)])


def test_probability_above_input_norm_raises():
    nan_gate = Gate("ry", 1, (0.5,))
    object.__setattr__(nan_gate, "params", (math.nan,))  # bypass validation
    circuit = Circuit((0,), (1,), (nan_gate,), ((1, 0),))
    with pytest.raises(ValueError, match="success probability"):
        effective_operator(circuit)
    with pytest.raises(ValueError, match="success probability"):
        run(circuit, "0")
    healthy = Circuit((0,), (1,), (Gate("h", 1),), ((1, 0),))
    with pytest.raises(ValueError, match="success probability"):
        run_state(healthy, np.array([math.nan, 0.0]))


def test_block_budget(monkeypatch):
    # su3(15) mu: 8 work + 12 ancilla qubits, a 4 GiB block
    wide = Circuit(tuple(range(8)), tuple(range(8, 20)), (),
                   tuple((q, 0) for q in range(8, 20)))
    with pytest.raises(ValueError, match="budget"):
        effective_operator(wide)
    # 2 work + 1 ancilla: 8 rows x 4 columns x 16 bytes = 512 bytes
    small = Circuit((0, 1), (2,), (Gate("h", 2),), ((2, 0),))
    monkeypatch.setattr(statevector, "MAX_BLOCK_BYTES", 512)
    assert effective_operator(small).matrix.shape == (4, 4)
    monkeypatch.setattr(statevector, "MAX_BLOCK_BYTES", 511)
    with pytest.raises(ValueError, match="budget"):
        effective_operator(small)
    # a single column is 8 x 16 = 128 bytes
    monkeypatch.setattr(statevector, "MAX_BLOCK_BYTES", 128)
    run(small, "01")
    monkeypatch.setattr(statevector, "MAX_BLOCK_BYTES", 127)
    with pytest.raises(ValueError, match="budget"):
        run(small, "01")
