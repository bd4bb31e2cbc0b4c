"""Statevector engine: gate application, post-selected runs, cup and cap.

apply_gate is checked against a brute-force oracle that walks every basis
state and applies the control/target logic by bit inspection.
"""

import math

import numpy as np
import pytest

from cqs.duality_compiler import Circuit, Gate, compile_exact, compile_paper
from cqs.frobenius import FrobeniusSpec, build_eta
from cqs.statevector import (
    MAX_QUBITS,
    StateVector,
    apply_gate,
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


def test_from_bitstring_and_zero():
    s = StateVector.from_bitstring("101")
    assert s.qubit_count == 3
    assert s.amplitudes[0b101] == 1.0
    assert s.norm() == pytest.approx(1.0)
    assert np.array_equal(StateVector.zero(2).amplitudes, [1, 0, 0, 0])
    with pytest.raises(ValueError):
        StateVector.from_bitstring("10a")


def test_statevector_validation():
    with pytest.raises(ValueError):
        StateVector(np.zeros(3), 2)
    with pytest.raises(ValueError):
        StateVector(np.zeros(2), 25)  # beyond the qubit budget
    s = StateVector(np.array([1.0, 0.0]), 1)
    with pytest.raises(ValueError):
        s.amplitudes[0] = 2.0


def test_apply_gate_against_oracle():
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
        got = apply_gate(StateVector(vec, n), gate).amplitudes
        want = dense_gate_oracle(gate, n) @ vec
        assert np.max(np.abs(got - want)) < 1e-12


def test_apply_gate_out_of_range():
    s = StateVector.zero(2)
    with pytest.raises(ValueError):
        apply_gate(s, Gate("x", 2))
    with pytest.raises(ValueError):
        apply_gate(s, Gate("x", 0, (), ((5, 1),)))


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
    state, scale = cup(StateVector.from_bitstring("100"), 1, 2)
    assert scale == pytest.approx(math.sqrt(2))
    want = np.zeros(8, dtype=complex)
    want[0b100] = 1 / math.sqrt(2)
    want[0b111] = 1 / math.sqrt(2)
    assert np.allclose(state.amplitudes, want)
    # pair qubits given out of order and apart
    state, _ = cup(StateVector.from_bitstring("0100"), 3, 0)
    assert np.flatnonzero(state.amplitudes).tolist() == [0b0100, 0b1101]


def test_cup_requires_fresh_qubits():
    state = apply_gate(StateVector.zero(2), Gate("x", 1))
    with pytest.raises(ValueError):
        cup(state, 0, 1)
    with pytest.raises(ValueError):
        cup(StateVector.zero(2), 0, 0)
    with pytest.raises(ValueError):
        cup(StateVector.zero(2), 0, 5)


def test_cap_projection_weight():
    rng = np.random.default_rng(29)
    vec = rng.normal(size=8) + 1j * rng.normal(size=8)
    vec /= np.linalg.norm(vec)
    state = StateVector(vec, 3)
    reduced, weight = cap(state, 0, 2)
    # direct projection: qubit 1 survives; (q0, q2) projected on the pair
    want = np.zeros(2, dtype=complex)
    for q1_bit in range(2):
        want[q1_bit] = (vec[int(f"0{q1_bit}0", 2)] + vec[int(f"1{q1_bit}1", 2)]) / math.sqrt(2)
    assert np.allclose(reduced.amplitudes, want)
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
                reduced, weight = cap(StateVector(vec, n), q1, q2)
                assert reduced.qubit_count == n - 2
                assert np.allclose(reduced.amplitudes, want, atol=1e-14)
                assert weight == pytest.approx(float(np.sum(np.abs(want) ** 2)))


def test_snake_identity():
    # bend a wire: cup on fresh (1, 2), then cap on (0, 1) moves the state
    # to qubit 2 at half amplitude (the two normalized halves of the pair)
    rng = np.random.default_rng(31)
    psi = rng.normal(size=2) + 1j * rng.normal(size=2)
    psi /= np.linalg.norm(psi)
    start = np.kron(psi, [1, 0, 0, 0]).astype(complex)
    bent, cup_scale = cup(StateVector(start, 3), 1, 2)
    final, weight = cap(bent, 0, 1)
    assert np.allclose(final.amplitudes, psi / 2)
    assert cup_scale * math.sqrt(2) == pytest.approx(2.0)  # undoes the 1/2
    assert weight == pytest.approx(0.25)


def test_cap_orthogonal_branch():
    reduced, weight = cap(StateVector.from_bitstring("01"), 0, 1)
    assert weight == 0.0
    assert reduced.qubit_count == 0
    assert reduced.amplitudes.shape == (1,)
