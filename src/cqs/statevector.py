"""Dense statevector simulation with post-selection.

Basis-state labels are big-endian: qubit 0 is the leftmost bit.  Circuits
are simulated on the work register plus ancillas, all ancillas starting in
|0>.  Post-selection projects the ancillas onto their required bits without
renormalizing; the squared norm of the surviving work-register vector is the
success probability.  Probabilities are reported raw, never clipped: one
above (1 + 1e-12) times the input's squared norm, or NaN, raises ValueError.

Gate application follows the strided-view layout of Haener & Steiger
(arXiv:1704.01127).  A C-contiguous (2**n, cols) amplitude block is reshaped
so that every control and the target get a length-2 axis of their own, each
run of untouched qubits between them is merged into one axis, and the
trailing run also absorbs the column axis.  Fixing each control axis at its
required state and the target axis at 0 and 1 gives two basic-indexing
views, `lo` and `hi`, of exactly the matched rows; no index arrays, masks or
gathered copies are made.  Each gate kind has its own kernel on the two
views: x swaps them, z negates `hi`, y swaps them and multiplies by -i / +i,
phase scales both, ry is a real rotation on float64 views of the halves,
and rz and h take the generic update with `Gate.matrix2()`.  Halves larger
than _CHUNK amplitudes are updated slice by slice so that each slice and its
temporaries stay in cache.

The block puts the ancillas on its leading (most significant) axes and the
work register after them.  A select gate controlled on every ancilla then
touches one contiguous run of rows, and the post-selected block is one
contiguous slab.

`effective_operator` simulates all 2**n_work basis columns at once.  The
leading gates that touch ancillas only (the state-preparation tree of an
LCU circuit) act identically on every column, so they run once on the
2**n_anc ancilla vector, which is then written into every column before the
remaining gates run on the whole block.  `effective_operator` and
`run_state` check the block's size against MAX_BLOCK_BYTES before they
allocate it.

Bit-identity contract: every kernel performs, on every nonzero amplitude,
the same floating-point operations as the generic update
u00 * a0 + u01 * a1, u10 * a0 + u11 * a1 (a term with a zero matrix entry
only adds a signed zero).  The shared prefix gives each column the same
operations on the same values as simulating the prefix in that column, so
neither the layout nor the prefix changes a bit of the nonzero results.
`run_state` takes arbitrary input vectors, for which a precomputed prefix
would round differently, so it simulates every gate.

cup and cap realize the unnormalized pair creation sum_k |kk> and pair
annihilation sum_k <kk| of the underlying dagger structure.  Both take an
amplitude vector (any array-like of length 2**n, n <= MAX_QUBITS, qubit 0
the leftmost bit) and return a new complex ndarray: cup writes a normalized
Bell pair onto two fresh qubits and returns the bookkept sqrt(2) scale, cap
consumes two qubits and returns the reduced vector with its projection
weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .duality_compiler import Circuit, Gate

__all__ = [
    "MAX_QUBITS",
    "MAX_WORK_QUBITS",
    "MAX_BLOCK_BYTES",
    "EffectiveOperator",
    "run",
    "run_state",
    "effective_operator",
    "cup",
    "cap",
]

MAX_QUBITS = 24
MAX_WORK_QUBITS = 12
# largest amplitude block (complex128, rows x columns) a simulation allocates
MAX_BLOCK_BYTES = 1 << 30
PROBABILITY_SLACK = 1e-12
# gates whose halves exceed this many amplitudes run in slices of about this
# size, so a slice and its temporaries stay in cache
_CHUNK = 1 << 12


def _halves(block: np.ndarray, n: int, target: int, controls: list) -> tuple:
    """Views (lo, hi) of the rows of a C-contiguous (2**n, cols) block where
    the target holds 0 / 1 and every (position, state) control matches."""
    shape = []
    index = []
    target_axis = 0
    last = -1
    for pos, state in sorted([*controls, (target, -1)]):
        if pos - last > 1:
            shape.append(1 << (pos - last - 1))
            index.append(slice(None))
        if state < 0:
            target_axis = len(index)
        shape.append(2)
        index.append(state)
        last = pos
    shape.append(block.shape[1] << (n - 1 - last))
    index.append(slice(None))
    view = block.reshape(shape)
    index[target_axis] = 0
    lo = view[tuple(index)]
    index[target_axis] = 1
    return lo, view[tuple(index)]


# Complex products are formed as `u * a` into a fresh array, the form of the
# generic update: numpy's vectorized complex multiply may round `a * u`, or
# an in-place product, differently in the last bit.


def _swap(lo: np.ndarray, hi: np.ndarray, gate: Gate) -> None:
    lo_copy = lo.copy()
    lo[...] = hi
    hi[...] = lo_copy


def _swap_times_i(lo: np.ndarray, hi: np.ndarray, gate: Gate) -> None:
    u = gate.matrix2()  # [[0, -i], [i, 0]]
    lo_copy = lo.copy()
    np.multiply(u[0, 1], hi, out=lo)
    np.multiply(u[1, 0], lo_copy, out=hi)


def _negate_hi(lo: np.ndarray, hi: np.ndarray, gate: Gate) -> None:
    np.negative(hi, out=hi)


def _scale(lo: np.ndarray, hi: np.ndarray, gate: Gate) -> None:
    u = gate.matrix2()
    lo[...] = u[0, 0] * lo
    hi[...] = u[1, 1] * hi


def _rotate_y(lo: np.ndarray, hi: np.ndarray, gate: Gate) -> None:
    # matrix2() is [[c, -s], [s, c]] with zero imaginary parts, so the
    # complex products of the generic update reduce to these real ones
    half = gate.params[0] / 2
    c, s = math.cos(half), math.sin(half)
    a0, a1 = lo.view(np.float64), hi.view(np.float64)
    a0_copy = a0.copy()
    a0 *= c
    a0 -= s * a1
    a1 *= c
    a1 += s * a0_copy


def _matrix_update(lo: np.ndarray, hi: np.ndarray, gate: Gate) -> None:
    u = gate.matrix2()
    new_lo = u[0, 0] * lo
    new_lo += u[0, 1] * hi
    new_hi = u[1, 0] * lo
    new_hi += u[1, 1] * hi
    lo[...] = new_lo
    hi[...] = new_hi


_KERNELS = {
    "x": _swap,
    "y": _swap_times_i,
    "z": _negate_hi,
    "phase": _scale,
    "ry": _rotate_y,
    "rz": _matrix_update,
    "h": _matrix_update,
}


def _simulate(gates, block: np.ndarray, position: dict) -> None:
    """Apply gates in order to a C-contiguous (2**n, cols) block in place;
    `position` maps qubit ids to register positions 0..n-1."""
    n = len(position)
    for gate in gates:
        controls = [(position[q], state) for q, state in gate.controls]
        lo, hi = _halves(block, n, position[gate.target], controls)
        kernel = _KERNELS[gate.kind]
        if lo.size <= _CHUNK:
            kernel(lo, hi, gate)
            continue
        step = max(1, _CHUNK * lo.shape[0] // lo.size)
        for start in range(0, lo.shape[0], step):
            kernel(lo[start : start + step], hi[start : start + step], gate)


def _check_sizes(circuit: Circuit, columns: int) -> tuple[int, int]:
    """(n_work, n_anc) after checking the qubit count, the post-selection
    and the size of a block of `columns` columns."""
    n_work = len(circuit.work_qubits)
    n_anc = len(circuit.ancilla_qubits)
    if n_work + n_anc > MAX_QUBITS:
        raise ValueError(f"circuit exceeds {MAX_QUBITS} qubits")
    if {q for q, _ in circuit.postselect} != set(circuit.ancilla_qubits):
        raise ValueError("every ancilla must be post-selected exactly once")
    block_bytes = 2 ** (n_work + n_anc) * columns * 16
    if block_bytes > MAX_BLOCK_BYTES:
        raise ValueError(
            f"the amplitude block needs {block_bytes} bytes, over the "
            f"{MAX_BLOCK_BYTES}-byte budget"
        )
    return n_work, n_anc


def _postselect_mask(circuit: Circuit) -> int:
    n_anc = len(circuit.ancilla_qubits)
    offset = {q: i for i, q in enumerate(circuit.ancilla_qubits)}
    mask = 0
    for q, bit in circuit.postselect:
        mask |= bit << (n_anc - 1 - offset[q])
    return mask


def _checked_probability(vector: np.ndarray, input_norm2: float, label: str) -> float:
    """Raw squared norm of a post-selected vector; fails (NaN included) when
    it exceeds the input's squared norm by more than PROBABILITY_SLACK."""
    probability = float(np.sum(np.abs(vector) ** 2))
    if not probability <= (1 + PROBABILITY_SLACK) * input_norm2:
        raise ValueError(
            f"success probability {probability!r} for input {label} exceeds "
            f"the input's squared norm {input_norm2!r}"
        )
    return probability


def _register_positions(circuit: Circuit) -> dict:
    """Block positions: ancillas first, so a gate controlled on every
    ancilla touches one contiguous run of rows."""
    return {q: i for i, q in enumerate(circuit.ancilla_qubits + circuit.work_qubits)}


def run_state(circuit: Circuit, work_vector: np.ndarray) -> tuple[np.ndarray, float]:
    """Run the circuit on an arbitrary work-register vector.

    Returns the post-selected, unnormalized work-register vector and the
    success probability (its squared norm, for a normalized input).
    """
    n_work, n_anc = _check_sizes(circuit, 1)
    work_vector = np.asarray(work_vector, dtype=complex).reshape(-1)
    if work_vector.shape != (2**n_work,):
        raise ValueError("work vector has the wrong length")
    dim_work = 2**n_work
    block = np.zeros((2**n_anc * dim_work, 1), dtype=complex)
    block[:dim_work, 0] = work_vector
    _simulate(circuit.gates, block, _register_positions(circuit))
    kept = _postselect_mask(circuit) * dim_work
    out = block[kept : kept + dim_work, 0].copy()
    input_norm2 = float(np.sum(np.abs(work_vector) ** 2))
    return out, _checked_probability(out, input_norm2, "vector")


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


def _ancilla_prefix_length(circuit: Circuit) -> int:
    """Number of leading gates whose target and controls are all ancillas."""
    ancillas = set(circuit.ancilla_qubits)
    for count, gate in enumerate(circuit.gates):
        if gate.target not in ancillas or any(q not in ancillas for q, _ in gate.controls):
            return count
    return len(circuit.gates)


def effective_operator(circuit: Circuit) -> EffectiveOperator:
    """Extract the full post-selected block, all columns at once."""
    n_work = len(circuit.work_qubits)
    if n_work > MAX_WORK_QUBITS:
        raise ValueError(f"effective operator extraction supports up to {MAX_WORK_QUBITS} work qubits")
    n_work, n_anc = _check_sizes(circuit, 2**n_work)
    dim_work = 2**n_work
    dim_anc = 2**n_anc
    prefix = _ancilla_prefix_length(circuit)
    ancilla_state = np.zeros((dim_anc, 1), dtype=complex)
    ancilla_state[0, 0] = 1.0
    ancilla_position = {q: i for i, q in enumerate(circuit.ancilla_qubits)}
    _simulate(circuit.gates[:prefix], ancilla_state, ancilla_position)
    block = np.zeros((dim_anc * dim_work, dim_work), dtype=complex)
    columns = np.arange(dim_work)
    block.reshape(dim_anc, dim_work, dim_work)[:, columns, columns] = ancilla_state
    _simulate(circuit.gates[prefix:], block, _register_positions(circuit))
    kept = _postselect_mask(circuit) * dim_work
    matrix = block[kept : kept + dim_work].copy()
    probabilities = {}
    for j in range(dim_work):
        bits = format(j, f"0{n_work}b")
        probabilities[bits] = _checked_probability(matrix[:, j], 1.0, bits)
    return EffectiveOperator(matrix, probabilities)


def _amplitude_tensor(amplitudes) -> tuple[np.ndarray, int]:
    """A length-2**n amplitude vector as a complex (2,)*n tensor, and n."""
    amps = np.asarray(amplitudes, dtype=complex)
    size = amps.size
    if amps.ndim != 1 or size == 0 or size & (size - 1):
        raise ValueError("amplitudes must be a vector of length 2**n")
    n = size.bit_length() - 1
    if n > MAX_QUBITS:
        raise ValueError(f"amplitude vector exceeds {MAX_QUBITS} qubits")
    return amps.reshape((2,) * n), n


def _pair_index(n: int, q1: int, q2: int, bit: int) -> tuple:
    """Index into a (2,)*n amplitude tensor fixing qubits q1 and q2 to `bit`."""
    if q1 == q2 or not (0 <= q1 < n and 0 <= q2 < n):
        raise ValueError("cup/cap need two distinct in-range qubits")
    index = [slice(None)] * n
    index[q1] = index[q2] = bit
    return tuple(index)


def cup(amplitudes, q1: int, q2: int) -> tuple[np.ndarray, float]:
    """Write a Bell pair (|00> + |11>) / sqrt(2) onto two fresh |0> qubits.

    Returns (new amplitudes, sqrt(2)): the scale by which the unnormalized
    pair creation sum_k |kk> exceeds the stored normalized pair.
    """
    amps, n = _amplitude_tensor(amplitudes)
    zeros = _pair_index(n, q1, q2, 0)
    occupied = np.abs(amps)
    occupied[zeros] = 0.0
    if np.max(occupied, initial=0.0) > 1e-12:
        raise ValueError("cup targets must be fresh |0> qubits")
    out = np.zeros_like(amps)
    out[zeros] = amps[zeros] / math.sqrt(2)
    out[_pair_index(n, q1, q2, 1)] = amps[zeros] / math.sqrt(2)
    return out.reshape(-1), math.sqrt(2)


def cap(amplitudes, q1: int, q2: int) -> tuple[np.ndarray, float]:
    """Project two qubits onto the normalized pair (<00| + <11|) / sqrt(2)
    and drop them from the register.

    Returns (reduced amplitudes, projection weight); the weight is the
    success probability for a normalized input.
    """
    amps, n = _amplitude_tensor(amplitudes)
    # the remaining axes keep their order, so the flattened branch is the
    # reduced register's amplitude vector
    branch = (
        (amps[_pair_index(n, q1, q2, 0)] + amps[_pair_index(n, q1, q2, 1)]) / math.sqrt(2)
    ).reshape(-1)
    weight = float(np.sum(np.abs(branch) ** 2))
    return branch, weight
