"""Dense statevector simulation with post-selection.

Basis-state labels are big-endian: qubit 0 is the leftmost bit.  Circuits
are simulated with the work register first and ancillas after, all ancillas
starting in |0>.  Post-selection projects the ancillas onto their required
bits without renormalizing; the squared norm of the surviving work-register
vector is the success probability.

cup and cap realize the unnormalized pair creation sum_k |kk> and pair
annihilation sum_k <kk| of the underlying dagger structure: cup writes a
normalized Bell pair onto two fresh qubits and returns the bookkept sqrt(2)
scale, cap consumes two qubits and returns the projection weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .duality_compiler import Circuit, Gate

__all__ = [
    "MAX_QUBITS",
    "MAX_WORK_QUBITS",
    "StateVector",
    "EffectiveOperator",
    "apply_gate",
    "run",
    "run_state",
    "effective_operator",
    "cup",
    "cap",
]

MAX_QUBITS = 24
MAX_WORK_QUBITS = 12


@dataclass(frozen=True, eq=False)
class StateVector:
    """Amplitudes over 2**qubit_count basis states (qubit 0 = leftmost bit)."""

    amplitudes: np.ndarray
    qubit_count: int

    def __post_init__(self):
        if not 0 <= self.qubit_count <= MAX_QUBITS:
            raise ValueError(f"qubit_count must be in [0, {MAX_QUBITS}]")
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.shape != (2**self.qubit_count,):
            raise ValueError("amplitude vector has the wrong length")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @staticmethod
    def from_bitstring(bits: str) -> "StateVector":
        if any(ch not in "01" for ch in bits):
            raise ValueError(f"bad basis label {bits!r}")
        n = len(bits)
        amps = np.zeros(2**n, dtype=complex)
        amps[int(bits, 2) if bits else 0] = 1.0
        return StateVector(amps, n)

    @staticmethod
    def zero(n: int) -> "StateVector":
        return StateVector.from_bitstring("0" * n)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def _control_masks(n: int, gate: Gate, position: dict) -> tuple[int, int, int]:
    target_bit = 1 << (n - 1 - position[gate.target])
    ctrl_mask = 0
    ctrl_value = 0
    for q, state in gate.controls:
        bit = 1 << (n - 1 - position[q])
        ctrl_mask |= bit
        ctrl_value |= bit * state
    return target_bit, ctrl_mask, ctrl_value


def _apply_inplace(amps: np.ndarray, n: int, gate: Gate, position: dict) -> None:
    """Apply a gate to a (2**n, batch) amplitude block in place."""
    target_bit, ctrl_mask, ctrl_value = _control_masks(n, gate, position)
    indices = np.arange(amps.shape[0])
    lower = indices[
        ((indices & target_bit) == 0) & ((indices & ctrl_mask) == ctrl_value)
    ]
    upper = lower | target_bit
    u = gate.matrix2()
    a0 = amps[lower].copy()
    a1 = amps[upper].copy()
    amps[lower] = u[0, 0] * a0 + u[0, 1] * a1
    amps[upper] = u[1, 0] * a0 + u[1, 1] * a1


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Apply one gate; qubit ids are register positions."""
    n = state.qubit_count
    referenced = [gate.target, *(q for q, _ in gate.controls)]
    if any(not 0 <= q < n for q in referenced):
        raise ValueError("gate references a qubit outside the register")
    amps = state.amplitudes.reshape(-1, 1).copy()
    _apply_inplace(amps, n, gate, {q: q for q in range(n)})
    return StateVector(amps.reshape(-1), n)


def _simulate_block(circuit: Circuit, block: np.ndarray) -> np.ndarray:
    n = circuit.n_qubits
    position = {q: i for i, q in enumerate(circuit.qubit_order())}
    for gate in circuit.gates:
        _apply_inplace(block, n, gate, position)
    return block


def _check_sizes(circuit: Circuit) -> tuple[int, int]:
    n_work = len(circuit.work_qubits)
    n_anc = len(circuit.ancilla_qubits)
    if n_work + n_anc > MAX_QUBITS:
        raise ValueError(f"circuit exceeds {MAX_QUBITS} qubits")
    if {q for q, _ in circuit.postselect} != set(circuit.ancilla_qubits):
        raise ValueError("every ancilla must be post-selected exactly once")
    return n_work, n_anc


def _postselect_mask(circuit: Circuit) -> int:
    n_anc = len(circuit.ancilla_qubits)
    offset = {q: i for i, q in enumerate(circuit.ancilla_qubits)}
    mask = 0
    for q, bit in circuit.postselect:
        mask |= bit << (n_anc - 1 - offset[q])
    return mask


def run_state(circuit: Circuit, work_vector: np.ndarray) -> tuple[np.ndarray, float]:
    """Run the circuit on an arbitrary work-register vector.

    Returns the post-selected, unnormalized work-register vector and the
    success probability (its squared norm, for a normalized input).
    """
    n_work, n_anc = _check_sizes(circuit)
    work_vector = np.asarray(work_vector, dtype=complex).reshape(-1)
    if work_vector.shape != (2**n_work,):
        raise ValueError("work vector has the wrong length")
    block = np.zeros((2 ** (n_work + n_anc), 1), dtype=complex)
    stride = 2**n_anc
    block[::stride, 0] = work_vector
    _simulate_block(circuit, block)
    mask = _postselect_mask(circuit)
    out = block[mask::stride, 0].copy()
    probability = float(np.clip(np.sum(np.abs(out) ** 2), 0.0, 1.0))
    return out, probability


def run(circuit: Circuit, input_bits: str) -> tuple[np.ndarray, float]:
    """Run the circuit on a work-register basis state given as a bitstring."""
    n_work = len(circuit.work_qubits)
    if len(input_bits) != n_work or any(ch not in "01" for ch in input_bits):
        raise ValueError(f"input must be {n_work} bits of 0/1, got {input_bits!r}")
    vec = np.zeros(2**n_work, dtype=complex)
    vec[int(input_bits, 2)] = 1.0
    return run_state(circuit, vec)


@dataclass(frozen=True, eq=False)
class EffectiveOperator:
    """The post-selected block of a circuit on its work register, with the
    per-basis-state success probabilities."""

    matrix: np.ndarray
    success_probabilities: dict

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=complex)
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)


def effective_operator(circuit: Circuit) -> EffectiveOperator:
    """Extract the full post-selected block column by column (batched)."""
    n_work, n_anc = _check_sizes(circuit)
    if n_work > MAX_WORK_QUBITS:
        raise ValueError(f"effective operator extraction supports up to {MAX_WORK_QUBITS} work qubits")
    dim_work = 2**n_work
    stride = 2**n_anc
    block = np.zeros((dim_work * stride, dim_work), dtype=complex)
    for j in range(dim_work):
        block[j * stride, j] = 1.0
    _simulate_block(circuit, block)
    mask = _postselect_mask(circuit)
    matrix = block[mask::stride, :].copy()
    probabilities = {
        format(j, f"0{n_work}b"): float(np.clip(np.sum(np.abs(matrix[:, j]) ** 2), 0.0, 1.0))
        for j in range(dim_work)
    }
    return EffectiveOperator(matrix, probabilities)


def _pair_index(n: int, q1: int, q2: int, bit: int) -> tuple:
    """Index into a (2,)*n amplitude tensor fixing qubits q1 and q2 to `bit`."""
    if q1 == q2 or not (0 <= q1 < n and 0 <= q2 < n):
        raise ValueError("cup/cap need two distinct in-range qubits")
    index = [slice(None)] * n
    index[q1] = index[q2] = bit
    return tuple(index)


def cup(state: StateVector, q1: int, q2: int) -> tuple[StateVector, float]:
    """Write a Bell pair (|00> + |11>) / sqrt(2) onto two fresh |0> qubits.

    Returns (new state, sqrt(2)): the scale by which the unnormalized pair
    creation sum_k |kk> exceeds the stored normalized pair.
    """
    n = state.qubit_count
    zeros = _pair_index(n, q1, q2, 0)
    amps = state.amplitudes.reshape((2,) * n)
    occupied = np.abs(amps)
    occupied[zeros] = 0.0
    if np.max(occupied, initial=0.0) > 1e-12:
        raise ValueError("cup targets must be fresh |0> qubits")
    out = np.zeros_like(amps)
    out[zeros] = amps[zeros] / math.sqrt(2)
    out[_pair_index(n, q1, q2, 1)] = amps[zeros] / math.sqrt(2)
    return StateVector(out.reshape(-1), n), math.sqrt(2)


def cap(state: StateVector, q1: int, q2: int) -> tuple[StateVector, float]:
    """Project two qubits onto the normalized pair (<00| + <11|) / sqrt(2)
    and drop them from the register.

    Returns (reduced state, projection weight); the weight is the success
    probability for a normalized input.
    """
    n = state.qubit_count
    amps = state.amplitudes.reshape((2,) * n)
    # the remaining axes keep their order, so the flattened branch is the
    # reduced register's amplitude vector
    branch = (
        (amps[_pair_index(n, q1, q2, 0)] + amps[_pair_index(n, q1, q2, 1)]) / math.sqrt(2)
    ).reshape(-1)
    weight = float(np.sum(np.abs(branch) ** 2))
    return StateVector(branch, n - 2), weight
