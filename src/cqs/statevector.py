"""Dense statevector simulation with post-selection.

Basis-state labels are big-endian: qubit 0 is the leftmost bit.  Circuits
are simulated on the work register plus ancillas, all ancillas starting in
|0>.  Post-selection projects the ancillas onto their required bits without
renormalizing; the squared norm of the surviving work-register vector is the
success probability.  Probabilities are reported raw, never clipped: one
above 1 + 1e-12, or NaN, raises ValueError.

Gate application follows the strided-view layout of Haener & Steiger
(arXiv:1704.01127).  Gates are applied in runs: a run is a maximal stretch of
consecutive gates that share one controls object and that no ancilla
retirement (below) splits, such as the select gates of one LCU term,
which the compilers give one shared control list.  Each run reshapes the
C-contiguous (2**n, cols) amplitude block once, so that every control of
the run, every retired ancilla and every distinct target of the run get
a length-2 axis of their own, each stretch of untouched qubits between
them is merged into one axis, and the trailing stretch also absorbs the
column axis.  Fixing each control axis at its required state gives one
basic-indexing view of exactly the matched rows; a gate of the run then
fixes its own target axis at 0 and 1 to get two views, `lo` and `hi`.
No index arrays, masks or gathered copies are made.  Each gate kind has
its own kernel on the two views: x swaps them, z negates `hi`, y swaps
them and multiplies by -i / +i, phase scales both, ry is a real rotation
on float64 views of the halves, and rz and h take the generic update with
`Gate.matrix2()`.  Halves larger than _CHUNK amplitudes are updated slice
by slice so that each slice and its temporaries stay in cache.

The block puts the ancillas on its leading (most significant) axes and the
work register after them.  A select gate controlled on every ancilla then
touches one contiguous run of rows, and the post-selected block is one
contiguous slab.

One function, `_postselected`, simulates a list of work-register basis
columns: `effective_operator` passes all 2**n_work of them, `run` the one
column of its input.  The leading gates that touch ancillas only (the
state-preparation tree of an LCU circuit) act identically on every column,
so they run once on the 2**n_anc ancilla vector, which is then written into
each column before the remaining gates run on the block.  Retirement is the
mirror of that prefix at the other end of the circuit: once a gate is the
last one to touch an ancilla (as target or control), the ancilla is
retired, and every later gate gets it as an extra control fixed at its
post-selected bit.  The trailing gates (the unprepare tree of an LCU
circuit) then update only the rows that can still reach the kept slab,
without copying or reshaping the block.  The block's size is checked
against MAX_BLOCK_BYTES before it is allocated.

Bit-identity contract: every kernel performs, on every nonzero amplitude,
the same floating-point operations as the generic update
u00 * a0 + u01 * a1, u10 * a0 + u11 * a1 (a term with a zero matrix entry
only adds a signed zero).  The shared prefix gives each column the same
operations on the same values as simulating the prefix in that column.
Retirement leaves only dead rows stale: no gate touches a retired ancilla
again, so a row holding its other bit never feeds a row holding the kept
bit, and every row that does reach the kept slab gets the same operations
on the same values.  A run's shared view changes no operation either: a
gate's `lo` and `hi` in it hold exactly the amplitude pairs its own
one-gate view would hold, matched by the same controls and retired
ancillas, with the other targets of the run as extra axes that the
elementwise kernels treat like any other, and the gates still run one
after another in circuit order.  So neither the layout, the runs, the
prefix nor retirement changes a bit of the nonzero results.

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
from .frobenius import MAX_DOCUMENT_QUBITS

__all__ = [
    "MAX_QUBITS",
    "MAX_BLOCK_BYTES",
    "EffectiveOperator",
    "run",
    "effective_operator",
    "cup",
    "cap",
]

MAX_QUBITS = 24
# largest amplitude block (complex128, rows x columns) a simulation allocates
MAX_BLOCK_BYTES = 1 << 30
PROBABILITY_SLACK = 1e-12
# gates whose halves exceed this many amplitudes run in slices of about this
# size, so a slice and its temporaries stay in cache
_CHUNK = 1 << 12


# the index pairs that select the 0 and 1 halves of axis k of a view
_AXIS_HALVES = [((slice(None),) * k + (0,), (slice(None),) * k + (1,))
                for k in range(2 * MAX_QUBITS + 2)]


def _run_view(block: np.ndarray, n: int, targets: set, fixed: list) -> tuple:
    """A view of the rows of a C-contiguous (2**n, cols) block where every
    (position, state) of `fixed` matches, with a length-2 axis of its own
    for each target position, and a map from each target to the index
    pair that selects its (lo, hi) halves in that view."""
    entries = fixed + [(t, -1) for t in targets]
    entries.sort()
    shape = []
    index = []
    halves = {}
    free = 0  # the axes of the view so far
    last = -1
    for pos, state in entries:
        if pos - last > 1:
            shape.append(1 << (pos - last - 1))
            index.append(slice(None))
            free += 1
        if state < 0:
            halves[pos] = _AXIS_HALVES[free]
            free += 1
            state = slice(None)
        shape.append(2)
        index.append(state)
        last = pos
    shape.append(block.shape[1] << (n - 1 - last))
    index.append(slice(None))
    return block.reshape(shape)[tuple(index)], halves


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


def _simulate(gates, block: np.ndarray, position: dict, retire=None) -> None:
    """Apply gates in order to a C-contiguous (2**n, cols) block in place;
    `position` maps qubit ids to register positions 0..n-1.  `retire` maps
    a gate index to (position, state) controls that gate and every later
    gate also get.  Each run of consecutive gates that share one controls
    object, and that no `retire` index splits, shares one view of the
    block (see _run_view)."""
    n = len(position)
    retire = retire or {}
    fixed = []
    start = 0
    while start < len(gates):
        fixed += retire.get(start, ())
        controls = gates[start].controls
        stop = start + 1
        while stop < len(gates) and gates[stop].controls is controls and stop not in retire:
            stop += 1
        run = gates[start:stop]
        pinned = [(position[q], state) for q, state in controls] + fixed
        view, halves = _run_view(block, n, {position[g.target] for g in run}, pinned)
        for gate in run:
            lo_index, hi_index = halves[position[gate.target]]
            lo, hi = view[lo_index], view[hi_index]
            kernel = _KERNELS[gate.kind]
            if lo.size <= _CHUNK:
                kernel(lo, hi, gate)
                continue
            step = max(1, _CHUNK * lo.shape[0] // lo.size)
            for first in range(0, lo.shape[0], step):
                kernel(lo[first : first + step], hi[first : first + step], gate)
        start = stop


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


def _checked_probability(vector: np.ndarray, label: str) -> float:
    """Raw squared norm of a post-selected basis-input column; fails (NaN
    included) when it exceeds 1 by more than PROBABILITY_SLACK."""
    probability = float(np.sum(np.abs(vector) ** 2))
    if not probability <= 1 + PROBABILITY_SLACK:
        raise ValueError(f"success probability {probability!r} for input {label} exceeds 1")
    return probability


def _register_positions(circuit: Circuit) -> dict:
    """Block positions: ancillas first, so a gate controlled on every
    ancilla touches one contiguous run of rows."""
    return {q: i for i, q in enumerate(circuit.ancilla_qubits + circuit.work_qubits)}


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
        if gate.target not in ancillas or not ancillas.issuperset(gate.controls.qubits):
            return count
    return len(circuit.gates)


def _retirements(circuit: Circuit, prefix: int) -> dict:
    """Maps the index of a gate after the shared prefix to the ancillas
    that no gate from it on touches, as (block position, post-selected bit)
    controls: those that gate and every later gate also get.  An ancilla
    retires right after its last gate, at index 0 if no gate after the
    prefix touches it."""
    position = {q: i for i, q in enumerate(circuit.ancilla_qubits)}
    body = circuit.gates[prefix:]
    last = {}
    for index in range(len(body) - 1, -1, -1):
        if len(last) == len(position):
            break
        gate = body[index]
        for q in (gate.target, *gate.controls.qubits):
            if q in position and q not in last:
                last[q] = index
    retire = {}
    for q, bit in circuit.postselect:
        retire.setdefault(last.get(q, -1) + 1, []).append((position[q], bit))
    return retire


def _postselected(circuit: Circuit, columns: list) -> np.ndarray:
    """Post-selected work-register rows for the work basis inputs
    `columns`: column j of the result is the circuit's output on input
    columns[j].  The ancilla-only prefix runs once, on the ancilla register;
    the rest runs on the block, where each ancilla is retired after its last
    gate: later gates run only on the rows holding its post-selected bit
    (see _retirements).  The kept slab is sliced from the unchanged layout."""
    n_work, n_anc = _check_sizes(circuit, len(columns))
    dim_work, dim_anc = 2**n_work, 2**n_anc
    prefix = _ancilla_prefix_length(circuit)
    ancilla_state = np.zeros((dim_anc, 1), dtype=complex)
    ancilla_state[0, 0] = 1.0
    ancilla_position = {q: i for i, q in enumerate(circuit.ancilla_qubits)}
    _simulate(circuit.gates[:prefix], ancilla_state, ancilla_position)
    count = len(columns)
    block = np.zeros((dim_anc * dim_work, count), dtype=complex)
    block.reshape(dim_anc, dim_work, count)[:, columns, np.arange(count)] = ancilla_state
    _simulate(circuit.gates[prefix:], block, _register_positions(circuit),
              _retirements(circuit, prefix))
    kept = _postselect_mask(circuit) * dim_work
    return block[kept : kept + dim_work].copy()


def run(circuit: Circuit, input_bits: str) -> tuple[np.ndarray, float]:
    """Run the circuit on a work-register basis state given as a bitstring.

    Returns the post-selected, unnormalized work-register vector and the
    success probability, its squared norm.
    """
    n_work = len(circuit.work_qubits)
    if len(input_bits) != n_work or any(ch not in "01" for ch in input_bits):
        raise ValueError(f"input must be {n_work} bits of 0/1, got {input_bits!r}")
    out = _postselected(circuit, [int(input_bits, 2)])[:, 0]
    return out, _checked_probability(out, input_bits)


def effective_operator(circuit: Circuit) -> EffectiveOperator:
    """Extract the full post-selected block, all columns at once."""
    n_work = len(circuit.work_qubits)
    if n_work > MAX_DOCUMENT_QUBITS:
        raise ValueError(f"effective operator extraction supports up to {MAX_DOCUMENT_QUBITS} work qubits")
    matrix = _postselected(circuit, list(range(2**n_work)))
    probabilities = {}
    for j in range(2**n_work):
        bits = format(j, f"0{n_work}b")
        probabilities[bits] = _checked_probability(matrix[:, j], bits)
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
