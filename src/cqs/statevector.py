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
its own kernel on the two views: x swaps them, z negates the float64 view
of `hi`, y swaps them and multiplies by -i / +i, phase scales both, ry is
a real rotation on float64 views of the halves, and rz and h take the
generic update with `Gate.matrix2()`.  Halves larger than _CHUNK
amplitudes are updated slice by slice so that each slice and its
temporaries stay in cache.

Ry gates run in levels instead of runs.  A level is a stretch of
consecutive ry gates on one target under one control qubit set, each
under a distinct pattern of it, with no retirement inside: one level of
an LCU's binary Ry tree, a uniformly controlled rotation (Mottonen et al.,
quant-ph/0407010).  When the control set sits on consecutive register
positions, as it does in every compiled LCU, the level takes one view
with those positions merged into one pattern axis, and each slice of
consecutive pattern values, of about _CHUNK amplitudes, is one rotation
with per-pattern cos and sin arrays that broadcast over the slice; a
pattern with no gate splits the slice.  A lone ry, or a level whose
control set is not consecutive, runs as a level of one gate with its
controls fixed.  Levels are found from the gate list alone, so parsed
circuits get them too.

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
without copying or reshaping the block.  A level whose target retires
right after it writes only the half of its rows that holds the
post-selected bit, and leaves the other half stale.  The block's size is
checked against MAX_BLOCK_BYTES before it is allocated.

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
after another in circuit order.  A level's gates touch disjoint rows, one
pattern each, and none of them reads a row another writes, so one pass
equals running them in order; each amplitude gets the rotation's own
operations with its gate's cos and sin, element by element.  The kept
half of a retiring level gets exactly the operations the full rotation
gives it, and the stale half holds the retired bit that no later gate
and no kept row reads.  So neither the layout, the runs, the levels, the
kept-half writes, the prefix nor retirement changes a bit of the nonzero
results.

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


def _run_view(block: np.ndarray, n: int, targets: set, fixed: list,
              pattern: tuple = ()) -> tuple:
    """A view of the rows of a C-contiguous (2**n, cols) block where every
    (position, state) of `fixed` matches, with a length-2 axis of its own
    for each target position, and a map from each target to the index
    pair that selects its (lo, hi) halves in that view.  A `pattern`
    (first, width) merges positions first .. first + width - 1 into one
    axis of length 2**width, indexed by their bits read big-endian; its
    axis in the view is returned third (None without a pattern)."""
    entries = fixed + [(t, -1) for t in targets]
    if pattern:
        entries.append((pattern[0], -2))
    entries.sort()
    shape = []
    index = []
    halves = {}
    pattern_axis = None
    free = 0  # the axes of the view so far
    last = -1
    for pos, state in entries:
        if pos - last > 1:
            shape.append(1 << (pos - last - 1))
            index.append(slice(None))
            free += 1
        last = pos
        if state == -2:
            pattern_axis = free
            free += 1
            shape.append(1 << pattern[1])
            index.append(slice(None))
            last += pattern[1] - 1
            continue
        if state < 0:
            halves[pos] = _AXIS_HALVES[free]
            free += 1
            state = slice(None)
        shape.append(2)
        index.append(state)
    shape.append(block.shape[1] << (n - 1 - last))
    index.append(slice(None))
    return block.reshape(shape)[tuple(index)], halves, pattern_axis


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
    # flips the sign bits of both parts, as the complex negative does
    hi = hi.view(np.float64)
    np.negative(hi, out=hi)


def _scale(lo: np.ndarray, hi: np.ndarray, gate: Gate) -> None:
    u = gate.matrix2()
    lo[...] = u[0, 0] * lo
    hi[...] = u[1, 1] * hi


def _rotate_y(lo: np.ndarray, hi: np.ndarray, c, s, keep=None) -> None:
    """Ry on the halves: matrix2() is [[c, -s], [s, c]] with zero imaginary
    parts, so the complex products of the generic update reduce to these
    real ones.  c and s are floats, or arrays that broadcast over the
    halves along a level's pattern axis.  With `keep` 0 or 1 only that
    half is written, with the operations the full update gives it."""
    a0, a1 = lo.view(np.float64), hi.view(np.float64)
    if keep == 0:
        a0 *= c
        a0 -= s * a1
        return
    if keep == 1:
        a1 *= c
        a1 += s * a0
        return
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
    "rz": _matrix_update,
    "h": _matrix_update,
}


def _in_slices(kernel, lo: np.ndarray, hi: np.ndarray, *args) -> None:
    """kernel(lo, hi, *args), on slices of about _CHUNK amplitudes along
    the first axis when the halves are larger."""
    if lo.size <= _CHUNK:
        kernel(lo, hi, *args)
        return
    step = max(1, _CHUNK * lo.shape[0] // lo.size)
    for first in range(0, lo.shape[0], step):
        kernel(lo[first : first + step], hi[first : first + step], *args)


def _level_patterns(gates, start: int, position: dict, retire: dict) -> tuple[list, list]:
    """The pattern values of the level of ry gates that starts at
    gates[start], and the sorted positions of its control set.

    A level is a stretch of consecutive ry gates on one target under one
    control qubit set, each under a distinct pattern of it, with no
    `retire` index inside: one level of an Ry tree, a uniformly controlled
    rotation.  A pattern's value reads the control states as a big-endian
    number, in position order.  Only a set on consecutive positions makes
    a level of more than one gate, since only such a set merges into one
    axis of the block."""
    first = gates[start]
    target, qubits = first.target, first.controls.qubits
    spots = sorted(position[q] for q in qubits)
    if not spots or spots[-1] - spots[0] != len(spots) - 1:
        return [0], spots
    shift = {q: spots[-1] - position[q] for q in qubits}
    values, seen = [], set()
    for index in range(start, len(gates)):
        gate = gates[index]
        controls = gate.controls
        if (gate.kind != "ry" or gate.target != target or (values and index in retire)
                or (controls.qubits is not qubits and controls.qubits != qubits)):
            break
        value = 0
        for q, state in controls:
            value |= state << shift[q]
        if value in seen:
            break
        seen.add(value)
        values.append(value)
    return values, spots


def _rotate_level(gates, start: int, block: np.ndarray, position: dict, fixed: list,
                  retire: dict) -> int:
    """Apply the level of ry gates that starts at gates[start] (see
    _level_patterns), with the rows of `fixed` pinned, and return the index
    after it.  The level takes one view with its control set merged into
    one pattern axis, and each slice of consecutive pattern values, of up
    to about _CHUNK amplitudes, is one `_rotate_y` call with per-pattern cos
    and sin arrays.  A level of one gate, or one whose single pattern
    already exceeds _CHUNK amplitudes, runs gate by gate with each gate's
    controls fixed.  When the `retire` index after the level retires its
    target, only the half holding the post-selected bit is written."""
    values, spots = _level_patterns(gates, start, position, retire)
    stop = start + len(values)
    spot = position[gates[start].target]
    keep = next((bit for pos, bit in retire.get(stop, ()) if pos == spot), None)
    n = len(position)
    # patterns per slice; the shifted size is one pattern's share of a half
    step = _CHUNK // (block.size >> (len(fixed) + len(spots) + 1))
    if len(values) == 1 or step == 0:
        for gate in gates[start:stop]:
            half = gate.params[0] / 2
            pinned = [(position[q], state) for q, state in gate.controls] + fixed
            view, halves, _ = _run_view(block, n, {spot}, pinned)
            lo_index, hi_index = halves[spot]
            _in_slices(_rotate_y, view[lo_index], view[hi_index],
                       math.cos(half), math.sin(half), keep)
        return stop
    view, halves, axis = _run_view(block, n, {spot}, fixed, (spots[0], len(spots)))
    lo_index, hi_index = halves[spot]
    lo, hi = view[lo_index], view[hi_index]
    if len(lo_index) - 1 < axis:
        axis -= 1  # the target axis before it is gone from the halves
    order = sorted(range(len(values)), key=values.__getitem__)
    values = [values[i] for i in order]
    half_angles = [gates[start + i].params[0] / 2 for i in order]
    shape = (-1,) + (1,) * (lo.ndim - 1 - axis)
    cos = np.array(list(map(math.cos, half_angles))).reshape(shape)
    sin = np.array(list(map(math.sin, half_angles))).reshape(shape)
    lead = (slice(None),) * axis
    begin = 0
    for end in range(1, len(values) + 1):
        if end < len(values) and end - begin < step and values[end] == values[end - 1] + 1:
            continue
        rows = lead + (slice(values[begin], values[end - 1] + 1),)
        _rotate_y(lo[rows], hi[rows], cos[begin:end], sin[begin:end], keep)
        begin = end
    return stop


def _simulate(gates, block: np.ndarray, position: dict, retire=None) -> None:
    """Apply gates in order to a C-contiguous (2**n, cols) block in place;
    `position` maps qubit ids to register positions 0..n-1.  `retire` maps
    a gate index to (position, state) controls that gate and every later
    gate also get.  Each level of ry gates (see _level_patterns) runs as
    one pass over one view of the block, in slices of about _CHUNK
    amplitudes, and a level right before its target's retirement writes
    only the half that holds the post-selected bit (see _rotate_level).
    Each run of other consecutive gates that share one controls object,
    and that no `retire` index splits, shares one view of the block (see
    _run_view).  Neither changes a bit of the kept rows: a level's gates
    touch disjoint rows and none reads a row another writes, and a kept
    half gets the operations the full rotation gives it."""
    n = len(position)
    retire = retire or {}
    fixed = []
    start = 0
    while start < len(gates):
        fixed += retire.get(start, ())
        if gates[start].kind == "ry":
            start = _rotate_level(gates, start, block, position, fixed, retire)
            continue
        controls = gates[start].controls
        stop = start + 1
        while (stop < len(gates) and gates[stop].controls is controls
               and gates[stop].kind != "ry" and stop not in retire):
            stop += 1
        run = gates[start:stop]
        pinned = [(position[q], state) for q, state in controls] + fixed
        view, halves, _ = _run_view(block, n, {position[g.target] for g in run}, pinned)
        for gate in run:
            lo_index, hi_index = halves[position[gate.target]]
            _in_slices(_KERNELS[gate.kind], view[lo_index], view[hi_index], gate)
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
