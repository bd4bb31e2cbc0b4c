"""Dense statevector simulation with post-selection.

Basis-state labels are big-endian: qubit 0 is the leftmost bit.  Circuits
are simulated on the work register plus ancillas, all ancillas starting in
|0>.  Post-selection projects the ancillas onto their required bits without
renormalizing; the squared norm of the surviving work-register vector is the
success probability.  Probabilities are reported raw, never clipped: one
above 1 + 1e-12, or NaN, raises ValueError.

Gate application follows the strided-view layout of Haener & Steiger
(arXiv:1704.01127).  Every gate list is planned before it runs: its
schedule (see _schedule) is a list of steps, each one reshape of the
C-contiguous (2**n, cols) amplitude block into a view and a list of kernel
calls on that view.  Each step is a single gate or a level (below).  A
gate's view gives each of its controls, each retired ancilla and its
target a length-2 axis of its own, merges each stretch of untouched
qubits between them into one axis, and lets the trailing stretch also
absorb the column axis.  Fixing each control axis at its required state
gives one basic-indexing view of exactly the matched rows; fixing the
target axis at 0 and 1 then gives two views, `lo` and `hi`.  No index
arrays, masks or gathered copies are made.  Each gate kind has its own
kernel on the two views: x swaps them, z negates the float64 view of
`hi`, y swaps them and multiplies by -i / +i, phase scales both, ry is a
real rotation on float64 views of the halves, and rz and h take the
generic update with `Gate.matrix2()`.  Halves larger than _CHUNK
amplitudes are updated slice by slice along their first axis, and an
entry of that axis of more than _WINDOW amplitudes in turn, so that no
call's temporaries outgrow a window, whatever the shape of the halves.

Levels.  A run is a maximal stretch of consecutive gates that share one
controls object and that no ancilla retirement (below) splits, such as
the gates of one LCU term, which the compilers give one shared control
list.  Runs under distinct patterns of one control qubit set run as one
step when that set sits on consecutive register positions, as it does in
every compiled LCU.  A level is a stretch of such runs, each a branch: an
optional phase followed by x, y, z or ry gates on increasing target
positions, with no retirement inside.  Each level of an LCU's prepare and
unprepare trees is one, a uniformly controlled rotation whose branches
are single ry gates (Mottonen et al., quant-ph/0407010), and so is its
select stage, one branch per term.  The level's view merges the control
positions into one pattern axis.  The level runs in chunks of
consecutive patterns of about _CHUNK amplitudes, and each chunk goes slot
by slot: one pass of the phases, with per-pattern factors
exp(i theta) * (1 + 0j), then, target by target, one kernel call per
stretch of consecutive patterns whose branches hold the same kind there,
ry with per-pattern cos and sin arrays; a pattern with no gate in the
slot splits the stretch.  A pattern whose rows alone exceed _CHUNK
amplitudes is a chunk of its own, whose calls are sliced as a single
gate's are.  Levels are found from the gate list alone, so parsed
circuits get them too.  Every gate keeps its own kernel: a level batches
kernel calls across branches and folds no gates together.

The block puts the ancillas on its leading (most significant) axes and the
work register after them.  A select gate controlled on every ancilla then
touches one contiguous run of rows, and the post-selected block is one
contiguous slab.

One function, `_postselected`, simulates a list of work-register basis
columns: `effective_operator` passes all 2**n_work of them, `run` the one
column of its input.  It runs each simulation from one plan, built in
one step (see _plan): the prefix and the phases after it (see Windows
below) are found first, and the bytes they allocate are checked against
MAX_BLOCK_BYTES before anything is allocated; only then are the ancilla
state the prefix produces and the schedule of each phase made.  A plan
is made once per circuit and column count, and per value of _WINDOW and
_CHUNK, and is kept for as long as its circuit lives, in a cache keyed
weakly on the (frozen) circuit; a plan the budget refuses is never
cached.  A later simulation of the circuit on as many columns checks the
plan's bytes against the budget again and then only runs kernels.  The
leading gates that touch ancillas only (the state-preparation tree of an
LCU circuit) act identically on every column, so they run once on the
2**n_anc ancilla vector, which is then written into each column before
the remaining gates run on the block.
Retirement is the mirror of that prefix at the other end of each phase:
once a gate is the last of its phase to touch an ancilla (as target or
control), the ancilla is retired, and every later gate of the phase gets
it as an extra control fixed at its post-selected bit.  The trailing
gates (the unprepare tree of an LCU circuit) then update only the rows
that can still reach the kept slab, without copying or reshaping the
block.  An ry gate whose target retires right after it or its level
writes only the half of its rows that holds the post-selected bit, and
leaves the other half stale.

Planning.  Verification (`verify_compiled`, and so `reproduce_paper` and
`cqs verify`) simulates each circuit it compiles once, so each of its
plans is used once and paid in full.  So planning makes few passes: the
window plan reads each gate once, each phase splits its gate list into
runs in one more pass (see _runs), and levels are found from the runs.
What a plan shares lives in its layouts (see _Layout), which die once
the plan is made: each control list's value, which gives both its
window and its pattern in a level, is summed once per plan, and the
windows share one layout, so each level geometry's view, halves and
chunking are made once per plan rather than once per window.

Windows: cache blocking along the ancillas, after Haener & Steiger.  In an
LCU circuit every select gate, and every unprepare level of the later
("low") half of the ancillas, is controlled on each of the first
ceil(n_anc / 2) ("top") ancillas, the block's most significant axes, so it
touches the rows of one window: one pattern of the top ancillas.  A block
of more than _WINDOW amplitudes then runs in two phases after the prefix.
Each window in turn zeroes one buffer of the low ancillas and the work
register, writes its slice of the prefix state into it, runs its own gates
in circuit order with the top controls skipped (the window fixes them),
and copies the rows where the low ancillas hold their post-selected bits
into a top block of the top ancillas and the work register.  The remaining
gates, which touch no low ancilla, then run on the top block, and the kept
slab is sliced from it.  The plan allocates the ancilla vector, the buffer
and the top block, 2**-floor(n_anc / 2) + 2**-ceil(n_anc / 2) of the
whole block, which is never allocated.  A circuit that does not fit this
plan, such as a paper-mode circuit, or a smaller block, runs as one window
of the whole block, with no top ancilla (see _window_plan); its top block
is the kept slab.  A circuit with no ancilla runs in place: its buffer is
the kept slab, so it allocates no top block, and the top-block term of
its planned bytes, which MAX_BLOCK_BYTES checks, is an upper bound.

Bit-identity contract: every kernel performs, on every nonzero amplitude,
the same floating-point operations as the generic update
u00 * a0 + u01 * a1, u10 * a0 + u11 * a1 (a term with a zero matrix entry
only adds a signed zero).  The shared prefix gives each column the same
operations on the same values as simulating the prefix in that column.
Retirement leaves only dead rows stale: no gate of the phase touches a
retired ancilla again, and a phase hands on only the rows where its
ancillas hold their post-selected bits, so a row holding the other bit
never feeds a kept row, and every row that does reach the kept slab gets
the same operations on the same values.  A level's branches touch
disjoint rows, one pattern each, and none of them reads a row another
writes; so running a level chunk by chunk and slot by slot gives every
row the gates of its own branch in the branch's own order, the phase
first as in the branch, and each amplitude gets its gate's kernel with
its gate's own parameters, element by element, since a per-pattern array
holds the very factor, cos or sin that the gate's own call would use.  The kept
half of a retiring ry gets exactly the operations the full rotation
gives it, and the stale half holds the retired bit that no later gate
and no kept row reads.  A gate of the window phase touches the rows of
one window only, so grouping those gates by window, each group still in
circuit order, gives every row the same operations in the same order;
the gates of a level split across windows keep the level contract in
each.  Once the low ancillas have retired, every later gate on the
whole block touches only rows where they hold their post-selected bits,
which are the rows the top block holds.  A plan depends on its circuit,
the column count, _WINDOW and _CHUNK alone, which key it, and never on
the input columns, which enter only through the buffer; so a reused plan
runs the very kernel calls that a fresh one would.  Within a plan, a
shared view, halves list or controls value is the one each step would
make for itself from the same geometry or control list, so sharing them
changes no kernel call either.  So neither the layout, the levels, the
kept-half writes, the prefix, retirement, the windows, what a plan
shares nor plan reuse changes a bit of the nonzero results.
"""

from __future__ import annotations

import cmath
import functools
import math
import weakref
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
]

MAX_QUBITS = 24
# most bytes a simulation plan may allocate: the ancilla vector, the window
# buffer and the top block (complex128), not the whole block it windows;
# checked on every simulation, a cached plan's included
MAX_BLOCK_BYTES = 1 << 30
PROBABILITY_SLACK = 1e-12
# kernels whose halves exceed this many amplitudes run in slices of about
# this size where their shape allows (see _in_slices), and a level runs in
# chunks of about this size (see _level_step), so a slice and its
# temporaries stay in cache
_CHUNK = 1 << 12
# blocks larger than this many amplitudes run one ancilla window at a time
# (see _window_plan), and no kernel call's slice is larger, so each
# window's buffer and each call's temporaries stay near cache size
_WINDOW = 1 << 16


def _view(n: int, cols: int, targets, fixed: list, pattern: tuple = ()) -> tuple:
    """(shape, index, axes): block.reshape(shape)[tuple(index)] views the
    rows of a C-contiguous (2**n, cols) block where every (position,
    state) of `fixed` matches.  Each target position gets a length-2 axis
    of its own, axes[position] in the reshaped block, whose entry in
    `index` a kernel's halves set to 0 and 1; each stretch of other
    positions between them is merged into one axis, and the trailing
    stretch also absorbs the column axis.  A `pattern` (first, width)
    merges positions first .. first + width - 1 into one axis,
    axes[None], of length 2**width, indexed by their bits read
    big-endian."""
    entries = fixed + [(t, -1) for t in targets]
    if pattern:
        entries.append((pattern[0], -2))
    entries.sort()
    shape = []
    index = []
    axes = {}
    last = -1
    for pos, state in entries:
        if pos - last > 1:
            shape.append(1 << (pos - last - 1))
            index.append(slice(None))
        last = pos
        if state == -2:
            axes[None] = len(shape)
            shape.append(1 << pattern[1])
            index.append(slice(None))
            last += pattern[1] - 1
            continue
        if state < 0:
            axes[pos] = len(shape)
            state = slice(None)
        shape.append(2)
        index.append(state)
    shape.append(cols << (n - 1 - last))
    index.append(slice(None))
    return tuple(shape), index, axes


# Complex products are formed as `u * a` into a fresh array, the form of the
# generic update: numpy's vectorized complex multiply may round `a * u`, or
# an in-place product, differently in the last bit.

# the off-diagonal entries -i and +i of the y matrix, signed zeros included
_MINUS_I, _PLUS_I = Gate("y", 0).matrix2()[[0, 1], [1, 0]]


def _swap(lo: np.ndarray, hi: np.ndarray) -> None:
    lo_copy = lo.copy()
    lo[...] = hi
    hi[...] = lo_copy


def _swap_times_i(lo: np.ndarray, hi: np.ndarray) -> None:
    lo_copy = lo.copy()
    np.multiply(_MINUS_I, hi, out=lo)
    np.multiply(_PLUS_I, lo_copy, out=hi)


def _negate_hi(lo: np.ndarray, hi: np.ndarray) -> None:
    # flips the sign bits of both parts, as the complex negative does
    hi = hi.view(np.float64)
    np.negative(hi, out=hi)


def _phase_factor(theta: float) -> complex:
    # both diagonal entries of matrix2(), exp(i theta) times the identity's
    # 1 + 0j, formed by the same complex product without building the matrix
    return cmath.exp(1j * theta) * (1 + 0j)


def _scale(lo: np.ndarray, hi: np.ndarray, u) -> None:
    """The phase gate: u is a `_phase_factor`, or an array of them that
    broadcasts over the halves along a level's pattern axis."""
    lo[...] = u * lo
    hi[...] = u * hi


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


def _matrix_update(lo: np.ndarray, hi: np.ndarray, u: np.ndarray) -> None:
    new_lo = u[0, 0] * lo
    new_lo += u[0, 1] * hi
    new_hi = u[1, 0] * lo
    new_hi += u[1, 1] * hi
    lo[...] = new_lo
    hi[...] = new_hi


# the kernel of each gate kind but ry, whose kernel is _rotate_y
_KERNELS = {
    "x": _swap,
    "y": _swap_times_i,
    "z": _negate_hi,
    "phase": _scale,
    "rz": _matrix_update,
    "h": _matrix_update,
}


def _op(gate: Gate, which: int, rows, keep=None) -> tuple:
    """The op (kernel, which, rows, args) that applies `gate` to halves
    `which`, or to their `rows` when that is not None: kernel(lo, hi,
    *args).  An ry gate with `keep` 0 or 1 writes only that half (see
    _rotate_y)."""
    kind = gate.kind
    if kind == "ry":
        half = gate.params[0] / 2
        return _rotate_y, which, rows, (math.cos(half), math.sin(half), keep)
    if kind == "phase":
        return _KERNELS[kind], which, rows, (_phase_factor(gate.params[0]),)
    if kind == "rz" or kind == "h":
        return _KERNELS[kind], which, rows, (gate.matrix2(),)
    return _KERNELS[kind], which, rows, ()


def _pins(controls, position: dict) -> tuple:
    """The (position, state) pairs of the (qubit, state) `controls` on
    qubits of `position`; the caller fixes the others (see _schedule)."""
    return tuple([(position[q], state) for q, state in controls if q in position])


class _Layout:
    """A register that schedules run on, and what the schedules of one plan
    on it share.  The register is the stretch order[start:stop] of a qubit
    `order`, its qubits at `position`s 0..n-1 of a C-contiguous (2**n,
    cols) block; a caller fixes the other qubits of the order, and a
    control on one of them is skipped.  A plan makes one layout for each
    register it runs on and drops them once it is made.  Its order is the
    ancillas, then the work qubits: the window buffer, which all 2**top
    windows share, is that order without the top ancillas, and the
    ancilla vector of the prefix, which takes the buffer's `bit` and
    `values` (pass `plan`), is it without the work qubits.  The top block,
    the top ancillas and the work qubits, is no stretch of that order and
    has one of its own.

    - `bit` maps each qubit of the order to its bit in a controls value,
      the sum of the bits of the controls in state 1: the order read
      big-endian, its first qubit most significant.  So the bits of the
      buffer's value above its register spell a gate's window.
    - `values` holds the value of each controls object met, by identity,
      so that each control list is summed once per plan, however many
      windows, levels and layouts read it; the gates keep their controls
      alive.
    - `patterns` maps each control qubit set to its pattern axis (see
      _pattern).
    - `views` maps the geometry of a single-gate step, (target position,
      pins), or of a level, (pattern first, width, targets, slots, pins),
      to what _gate_step or _level_view makes of it, so steps of one
      geometry share one view and one list of halves."""

    def __init__(self, order, cols: int, start: int = 0, stop=None, plan=None):
        stop = len(order) if stop is None else stop
        self.position = {q: i for i, q in enumerate(order[start:stop])}
        self.n = stop - start
        self.cols = cols
        self.below = len(order) - stop  # the bits of a value below the register's
        if plan is None:
            self.bit = {q: 1 << (len(order) - 1 - i) for i, q in enumerate(order)}
            self.values = {}
        else:
            self.bit, self.values = plan.bit, plan.values
        self.patterns = {}
        self.views = {}

    def value(self, controls) -> int:
        """The value of `controls` (see bit), summed once per object."""
        value = self.values.get(id(controls))
        if value is None:
            value, bit = 0, self.bit
            for q, state in controls:
                if state:
                    value += bit[q]
            self.values[id(controls)] = value
        return value


def _pattern(layout: _Layout, qubits: frozenset) -> tuple:
    """(first, width, shift, mask) for a control qubit set whose qubits of
    the layout sit on the `width` consecutive positions from `first`,
    which merge into one pattern axis; () for any other set.  The value of
    a pattern reads its states on those positions as a big-endian number:
    layout.value(controls) >> shift & mask.  Found once per set and
    layout."""
    pattern = layout.patterns.get(qubits)
    if pattern is None:
        position = layout.position
        spots = sorted([position[q] for q in qubits if q in position])
        pattern = ()
        if spots and spots[-1] - spots[0] == len(spots) - 1:
            pattern = (spots[0], len(spots), layout.below + layout.n - 1 - spots[-1],
                       (1 << len(spots)) - 1)
        layout.patterns[qubits] = pattern
    return pattern


# the kinds a level's branch holds after its optional leading phase
_LETTERS = frozenset(("x", "y", "z", "ry"))


def _runs(gates, retire: dict, position: dict) -> list:
    """Each run of `gates`, the maximal stretches of consecutive gates that
    share one controls object with no `retire` index inside, as [start,
    controls, slots], in one pass.  slots is None unless the run is a
    branch, an optional phase followed by x, y, z or ry gates on
    increasing target positions; then slots[-1] is its phase and slots[p]
    its gate on target position p."""
    runs = []
    controls = run = slots = None
    for index, gate in enumerate(gates):
        if gate.controls is not controls or index in retire:
            controls, slots, last = gate.controls, {}, -1
            run = [index, controls, slots]
            runs.append(run)
        if slots is not None:
            kind = gate.kind
            if kind in _LETTERS and (spot := position[gate.target]) > last:
                slots[spot] = gate
                last = spot
            elif kind == "phase" and not slots:
                slots[-1] = gate
            else:
                run[2] = slots = None
    return runs


def _level(layout: _Layout, runs: list, index: int, retire: dict) -> tuple:
    """(level, end) for the branch runs[index]: the level it starts, as
    (first, width, branches), its pattern axis (see _pattern) and a map
    from each of its runs' pattern values to the run's slots, or None if
    no later run joins it; and the index in `runs` after the level.

    A level is a stretch of consecutive runs under one control qubit set,
    each under a distinct pattern of it and each a branch, with no
    `retire` index inside: one level of an Ry tree, whose runs are single
    gates, a uniformly controlled rotation; or a stretch of an LCU's
    select stage, one run per term.  Only a set on consecutive positions
    makes a level, since only such a set merges into one axis of the
    block; its pattern axis is looked up once a second run could join."""
    _, controls, slots = runs[index]
    qubits = controls.qubits
    branches = None
    end = index + 1
    while end < len(runs):
        start, following, next_slots = runs[end]
        if next_slots is None or start in retire:
            break
        if following.qubits is not qubits and following.qubits != qubits:
            break
        if branches is None:
            pattern = _pattern(layout, qubits)
            if not pattern:
                break
            first, width, shift, mask = pattern
            branches = {layout.value(controls) >> shift & mask: slots}
        value = layout.value(following) >> shift & mask
        if value in branches:
            break
        branches[value] = next_slots
        end += 1
    if branches is None or len(branches) < 2:
        return None, index + 1
    return (first, width, branches), end


@functools.lru_cache(maxsize=1 << 12)
def _rows(dim: int, start: int, stop: int) -> tuple:
    """The index of entries start .. stop - 1 along dimension `dim` of a
    kernel's halves; one object shared by every op that takes them."""
    return (slice(None),) * dim + (slice(start, stop),)


def _per_pattern(values: list, shape: tuple) -> np.ndarray:
    """values as an array of `shape`, which broadcasts them along a
    level's pattern axis; a copy, since a reshaped view would keep its
    base array alive in the plan as well."""
    return np.array(values).reshape(shape).copy()


def _halves(index: list, axis: int) -> tuple:
    """The (lo, hi) indices that fix `axis` of a `_view` index at 0 and 1."""
    lo, hi = index.copy(), index.copy()
    lo[axis], hi[axis] = 0, 1
    return tuple(lo), tuple(hi)


def _in_slices(kernel, lo: np.ndarray, hi: np.ndarray, args: tuple) -> None:
    """kernel(lo, hi, *args), on slices of about _CHUNK amplitudes along
    the first axis of the halves, and of no more than one entry of that
    axis.  An entry of more than _WINDOW amplitudes is sliced in turn, so
    that no call's temporaries outgrow a window.  Only a single gate's op
    or one pattern's is that large (see _level_step), and its args fit
    halves of any shape."""
    if lo.size > _WINDOW * lo.shape[0]:
        for first in range(lo.shape[0]):
            _in_slices(kernel, lo[first], hi[first], args)
        return
    step = max(1, _CHUNK * lo.shape[0] // lo.size)
    for first in range(0, lo.shape[0], step):
        kernel(lo[first : first + step], hi[first : first + step], *args)


def _gate_step(layout: _Layout, gate: Gate, pins: tuple, keep) -> tuple:
    """The step of one gate with `pins`, its controls and the retired
    ancillas, fixed: one target axis and one op.  An ry gate with `keep`
    0 or 1 writes only that half (see _rotate_y).  The view and halves are
    made once per target position and pins in a layout."""
    spot = layout.position[gate.target]
    view = layout.views.get((spot, pins))
    if view is None:
        shape, index, axes = _view(layout.n, layout.cols, (spot,), list(pins))
        view = layout.views[spot, pins] = shape, [_halves(index, axes[spot])]
    return view[0], view[1], [_op(gate, 0, None, keep)]


def _group_op(group: list, first: int, last: int, which: int, dim: int, trailing: tuple,
              keep) -> tuple:
    """The op of a level that applies the gates `group`, two or more of one
    kind on one slot, to pattern values first .. last of halves `which`
    (see _level_step), with per-pattern parameter arrays of shape
    `trailing`; an ry group with `keep` 0 or 1 writes only that half."""
    kind = group[0].kind
    rows = _rows(dim, first, last + 1)
    if kind == "ry":
        half_angles = [gate.params[0] / 2 for gate in group]
        return _rotate_y, which, rows, (_per_pattern(list(map(math.cos, half_angles)), trailing),
                                        _per_pattern(list(map(math.sin, half_angles)), trailing),
                                        keep)
    if kind == "phase":
        factors = [_phase_factor(gate.params[0]) for gate in group]
        return _KERNELS[kind], which, rows, (_per_pattern(factors, trailing),)
    return _KERNELS[kind], which, rows, ()


def _level_view(layout: _Layout, key: tuple) -> tuple:
    """(shape, halves, where, step) of a level of `key` (first, width,
    targets, slots, pins) on the layout: one view with its target
    positions split, its control set merged into one pattern axis of
    2**width values at position `first` and `pins` fixed; the halves of
    each slot; `where` maps each slot, in order, to its (halves index,
    pattern dimension, trailing shape); and the patterns per chunk.  The
    phases, slot -1, take the halves of the level's first target, since
    they scale both; the pattern dimension indexes the pattern axis in
    the halves, and a per-pattern array of the trailing shape broadcasts
    along it.  The shifted size in `step` is one pattern's share of a
    half."""
    first, width, targets, slots, pins = key
    shape, index, axes = _view(layout.n, layout.cols, targets, list(pins), (first, width))
    pattern = axes[None]
    # the free axes of the view before and after the pattern axis, which
    # each target's halves have one fewer of on its own side
    before = sum(entry.__class__ is slice for entry in index[:pattern])
    after = sum(entry.__class__ is slice for entry in index[pattern + 1:])
    lowest = targets[0]
    halves, where = [], {}
    for slot in slots:
        axis = axes[lowest if slot < 0 else slot]
        if slot != lowest or slots[0] >= 0:  # else the phases' halves serve
            halves.append(_halves(index, axis))
        if axis < pattern:
            where[slot] = (len(halves) - 1, before - 1, (-1,) + (1,) * after)
        else:
            where[slot] = (len(halves) - 1, before, (-1,) + (1,) * (after - 1))
    step = max(1, _CHUNK // ((layout.cols << layout.n) >> (len(pins) + width + 1)))
    return shape, halves, where, step


def _level_step(layout: _Layout, level: tuple, pins: tuple, retiring: dict) -> tuple:
    """The step of a level (first, width, branches) of two or more
    branches (see _level), with `pins`, the retired ancillas, fixed: one
    view with the control set merged into one pattern axis (see
    _level_view, made once per geometry in a layout).  The level runs in
    chunks of at most `step` branches, in pattern order, so that a chunk
    stays in cache; each chunk takes one slot after another, the phases
    first and then each target position in increasing order.  A slot
    makes one kernel call for each stretch of consecutive pattern values
    whose branches hold a gate of one kind there (see _group_op); a
    pattern with no gate in the slot splits the stretch; a stretch of
    one pattern takes the gate's own op on that pattern's rows, which
    alone may exceed _CHUNK amplitudes and are then sliced (see
    _execute).  An ry slot whose target is in `retiring` writes only the
    half holding the post-selected bit."""
    first, width, branches = level
    values, ordered = zip(*sorted(branches.items()))
    slots = sorted(set().union(*ordered))
    targets = slots
    if slots[0] < 0:  # a phase's target is split too
        position = layout.position
        targets = sorted(set(slots[1:]).union(
            [position[branch[-1].target] for branch in ordered if -1 in branch]))
    key = (first, width, tuple(targets), tuple(slots), pins)
    view = layout.views.get(key)
    if view is None:
        view = layout.views[key] = _level_view(layout, key)
    shape, halves, where, step = view
    ops = []
    count = len(values)
    for chunk in range(0, count, step):
        chunk_stop = min(count, chunk + step)
        for slot, (which, dim, trailing) in where.items():
            begin = chunk
            while begin < chunk_stop:
                gate = ordered[begin].get(slot)
                end = begin + 1
                if gate is None:
                    begin = end
                    continue
                group = [gate]
                while end < chunk_stop and values[end] == values[end - 1] + 1:
                    other = ordered[end].get(slot)
                    if other is None or other.kind != gate.kind:
                        break
                    group.append(other)
                    end += 1
                keep = retiring.get(gate.target) if retiring else None
                if end - begin == 1:
                    rows = _rows(dim, values[begin], values[begin] + 1)
                    ops.append(_op(gate, which, rows, keep))
                else:
                    ops.append(_group_op(group, values[begin], values[end - 1], which, dim,
                                         trailing, keep))
                begin = end
    return shape, halves, ops


def _schedule(gates, layout: _Layout, retire=None) -> list:
    """The steps that apply `gates` in order to a C-contiguous (2**n,
    cols) block of `layout` in place.  `retire` maps a gate index to
    (qubit, state) controls that gate and every later gate also get.  A
    control on a qubit outside the layout is skipped: the caller has fixed
    that qubit, as a window fixes its top ancillas (see _window_plan).

    Each level (see _level) of two or more branches is one step, run in
    chunks of about _CHUNK amplitudes (see _level_step); every other gate
    is one step of its own (see _gate_step).  Each gate is scanned once,
    in the pass that splits `gates` into runs (see _runs); levels are then
    found from the runs.  An ry gate whose target retires right after it
    writes only the half holding the post-selected bit.  A step is (shape, halves, ops), run by _execute on
    view = block.reshape(shape): halves lists (lo, hi) index pairs into
    the view, and each op (kernel, which, rows, args) runs kernel(lo, hi,
    *args) on the halves of pair `which`, or on their `rows` when it is
    not None.  No step changes a bit of the kept rows: a level's branches
    touch disjoint rows, and none reads a row another writes, and a kept
    half gets the operations the full rotation gives it."""
    position = layout.position
    retire = retire or {}
    runs = _runs(gates, retire, position)
    steps = []
    fixed = ()
    r = 0
    while r < len(runs):
        start, controls, slots = runs[r]
        if start in retire:
            fixed += _pins(retire[start], position)
        level, end = _level(layout, runs, r, retire) if slots is not None else (None, r + 1)
        stop = runs[end][0] if end < len(runs) else len(gates)
        retiring = dict(retire[stop]) if stop in retire else {}
        if level is not None:
            steps.append(_level_step(layout, level, fixed, retiring))
        else:
            pins = _pins(controls, position) + fixed
            for i in range(start, stop - 1):
                steps.append(_gate_step(layout, gates[i], pins, None))
            gate = gates[stop - 1]
            steps.append(_gate_step(layout, gate, pins, retiring.get(gate.target)))
        r = end
    return steps


def _execute(steps: list, block: np.ndarray) -> None:
    """Run the steps of a `_schedule` on a C-contiguous block in place,
    each a single gate or a level; halves of more than _CHUNK amplitudes
    run in slices (see _in_slices)."""
    for shape, halves, ops in steps:
        view = block.reshape(shape)
        pairs = [(view[lo], view[hi]) for lo, hi in halves]
        for kernel, which, rows, args in ops:
            lo, hi = pairs[which]
            if rows is not None:
                lo, hi = lo[rows], hi[rows]
            if lo.size <= _CHUNK:
                kernel(lo, hi, *args)
            else:
                _in_slices(kernel, lo, hi, args)


def _check_sizes(circuit: Circuit) -> tuple[int, int]:
    """(n_work, n_anc) after checking the qubit count and the
    post-selection."""
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


def _checked_probabilities(kept: np.ndarray, labels: list) -> dict:
    """Raw squared norm of each post-selected basis-input column of `kept`,
    keyed by its input's label, in one pass over the transposed block,
    whose contiguous rows sum pairwise exactly as each column alone would;
    fails (NaN included) on the first that exceeds 1 by more than
    PROBABILITY_SLACK."""
    probabilities = (np.abs(np.ascontiguousarray(kept.T)) ** 2).sum(axis=1).tolist()
    for label, probability in zip(labels, probabilities):
        if not probability <= 1 + PROBABILITY_SLACK:
            raise ValueError(f"success probability {probability!r} for input {label} exceeds 1")
    return dict(zip(labels, probabilities))


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
    held = set()  # the control qubit sets found to hold ancillas only, by identity
    for count, gate in enumerate(circuit.gates):
        if gate.target not in ancillas:
            return count
        qubits = gate.controls.qubits
        if id(qubits) not in held:
            if not ancillas.issuperset(qubits):
                return count
            held.add(id(qubits))
    return len(circuit.gates)


def _retirements(gates, postselect) -> dict:
    """Maps the index of a gate of `gates` to the ancillas that no gate
    from it on touches, as (ancilla, post-selected bit) controls of
    `postselect`: those that gate and every later gate also get.  An
    ancilla retires right after its last gate, at index 0 if no gate
    touches it."""
    untouched = {q for q, _ in postselect}
    last = {}
    for index in range(len(gates) - 1, -1, -1):
        if not untouched:
            break
        gate = gates[index]
        if gate.target in untouched:
            last[gate.target] = index
            untouched.discard(gate.target)
        if not untouched.isdisjoint(gate.controls.qubits):
            for q in untouched.intersection(gate.controls.qubits):
                last[q] = index
            untouched.difference_update(gate.controls.qubits)
    retire = {}
    for q, bit in postselect:
        retire.setdefault(last.get(q, -1) + 1, []).append((q, bit))
    return retire


def _window_plan(circuit: Circuit, body, columns: int) -> tuple[int, int, list, _Layout]:
    """(top, split, windows, buffer): how `_postselected` runs the gates
    `body` after the prefix on `columns` columns.

    The first `top` ancillas pick a window, one of their 2**top patterns.
    body[:split] runs window by window on the layout `buffer` of the other
    qubits: windows[w] lists, in circuit order, the gates whose controls
    on the top ancillas spell w, the bits of their controls value above
    the buffer's own (see _Layout).  body[split:] runs on the rows where
    the other, low, ancillas hold their post-selected bits.  That needs
    every gate of body[:split] to be controlled on every top ancilla, so
    that it targets none of them and touches the rows of one window, and
    body[split:] to touch no low ancilla.  In an LCU circuit body[:split]
    is the select stage and the unprepare levels of the low ancillas.
    Each phase, each window and then body[split:], retires its ancillas
    after their last gate in its own gate list (see _retirements).
    Windows pay only on blocks of more than _WINDOW amplitudes with three
    or more ancillas, and top is then ceil(n_anc / 2); otherwise top is 0:
    one window of the whole body, with split = len(body)."""
    ancillas, work = circuit.ancilla_qubits, circuit.work_qubits
    if len(ancillas) >= 3 and columns << circuit.n_qubits > _WINDOW:
        top = (len(ancillas) + 1) // 2
        top_qubits, low_qubits = frozenset(ancillas[:top]), frozenset(ancillas[top:])
        buffer = _Layout(ancillas + work, columns, top)
        windows = [[] for _ in range(2**top)]
        values, n, window, previous = buffer.values, buffer.n, None, None
        for gate in body:
            controls = gate.controls
            if controls is not previous:
                # a controls object with a value has passed this check before
                if id(controls) not in values and not top_qubits <= controls.qubits:
                    break
                window, previous = windows[buffer.value(controls) >> n], controls
            window.append(gate)
        split = sum(map(len, windows))
        if all(gate.target not in low_qubits and low_qubits.isdisjoint(gate.controls.qubits)
               for gate in body[split:]):
            return top, split, windows, buffer
    return 0, len(body), [body], _Layout(ancillas + work, columns)


# each circuit's plans, keyed by what they depend on besides the circuit;
# a plan dies with its circuit
_PLANS = weakref.WeakKeyDictionary()


def _check_budget(planned: int) -> None:
    if planned > MAX_BLOCK_BYTES:
        raise ValueError(
            f"the simulation plan allocates {planned} bytes, over the "
            f"{MAX_BLOCK_BYTES}-byte budget"
        )


def _plan(circuit: Circuit, count: int) -> tuple:
    """(planned bytes, top, state, window steps, remaining steps): how
    `_postselected` simulates `circuit` on `count` columns, made once and
    then reused for as long as the circuit lives, with every value that
    shapes it, _WINDOW and _CHUNK, in its key.

    It is built in one step.  The sizes are checked, and the ancilla-only
    prefix and the window plan of the gates after it (see _window_plan)
    are found; the bytes the plan allocates, the ancilla vector, one
    buffer of the low ancillas and the work register, and a top block of
    the top ancillas and the work register, are checked against
    MAX_BLOCK_BYTES before any of them is allocated, and a plan the budget
    refuses is not cached.  Then the prefix runs once on the 2**n_anc
    ancilla vector, giving `state`, and each phase, each window and then
    the remaining gates, gets the `_schedule` of its gate list with its
    own retirements (see _retirements).  Each phase has its own layout;
    the windows share the buffer's.  A cached plan keeps its bytes, and
    every later call checks them against the budget again."""
    plans = _PLANS.get(circuit)
    key = (count, _WINDOW, _CHUNK)
    if plans is not None and key in plans:
        _check_budget(plans[key][0])
        return plans[key]
    n_work, n_anc = _check_sizes(circuit)
    prefix = _ancilla_prefix_length(circuit)
    top, split, windows, buffer = _window_plan(circuit, circuit.gates[prefix:], count)
    planned = (2**n_anc + (2 ** (n_anc - top) + 2**top) * 2**n_work * count) * 16
    _check_budget(planned)
    ancillas, work, postselect = circuit.ancilla_qubits, circuit.work_qubits, circuit.postselect
    state = np.zeros((2**n_anc, 1), dtype=complex)
    state[0, 0] = 1.0
    _execute(_schedule(circuit.gates[:prefix], _Layout(ancillas + work, 1, 0, n_anc, buffer)),
             state)
    state.setflags(write=False)
    window_steps = [_schedule(gates, buffer, _retirements(gates, postselect)) for gates in windows]
    rest = circuit.gates[prefix + split:]
    rest_steps = []  # a plan of one window leaves no gate to the top block
    if rest:
        top_block = _Layout(ancillas[:top] + work + ancillas[top:], count, 0, top + n_work)
        rest_steps = _schedule(rest, top_block, _retirements(rest, postselect))
    plan = planned, top, state, window_steps, rest_steps
    _PLANS.setdefault(circuit, {})[key] = plan
    return plan


def _postselected(circuit: Circuit, columns: list) -> np.ndarray:
    """Post-selected work-register rows for the work basis inputs
    `columns`: column j of the result is the circuit's output on input
    columns[j].  It only runs kernels, on the plan of the circuit on as
    many columns (see _plan).  The ancilla state after the prefix is
    written into each window's slice of the buffer, which each window
    reuses; each window leaves the rows of its low ancillas' post-selected
    bits in the top block, where the remaining gates run.  In each phase
    an ancilla is retired after its last gate: later gates run only on
    the rows holding its post-selected bit (see _retirements).  The kept
    slab is sliced from the top block.  A circuit with no ancilla runs in
    place: its buffer is the kept slab, so no top block is allocated and
    the plan's top-block bytes are an upper bound."""
    count = len(columns)
    _, top, state, windows, rest = _plan(circuit, count)
    dim_work = 2 ** len(circuit.work_qubits)
    dim_low = len(state) >> top
    mask = _postselect_mask(circuit)
    kept_low = mask % dim_low * dim_work
    buffer = np.zeros((dim_low * dim_work, count), dtype=complex)
    # with no ancilla the buffer is the kept slab and the top block both
    top_block = (buffer if len(state) == 1
                 else np.empty((len(windows) * dim_work, count), dtype=complex))
    entries = (slice(None), columns, np.arange(count))
    for window, steps in enumerate(windows):
        if window:
            buffer.fill(0)  # np.zeros gave the first window fresh zero pages
        buffer.reshape(dim_low, dim_work, count)[entries] = (
            state[window * dim_low : (window + 1) * dim_low])
        _execute(steps, buffer)
        if top_block is not buffer:
            top_block[window * dim_work : (window + 1) * dim_work] = (
                buffer[kept_low : kept_low + dim_work])
    _execute(rest, top_block)
    kept = mask // dim_low * dim_work
    return top_block[kept : kept + dim_work]


def run(circuit: Circuit, input_bits: str) -> tuple[np.ndarray, float]:
    """Run the circuit on a work-register basis state given as a bitstring.

    Returns the post-selected, unnormalized work-register vector and the
    success probability, its squared norm.
    """
    n_work = len(circuit.work_qubits)
    if len(input_bits) != n_work or any(ch not in "01" for ch in input_bits):
        raise ValueError(f"input must be {n_work} bits of 0/1, got {input_bits!r}")
    kept = _postselected(circuit, [int(input_bits, 2)])
    return kept[:, 0], _checked_probabilities(kept, [input_bits])[input_bits]


def effective_operator(circuit: Circuit) -> EffectiveOperator:
    """Extract the full post-selected block, all columns at once."""
    n_work = len(circuit.work_qubits)
    if n_work > MAX_DOCUMENT_QUBITS:
        raise ValueError(f"effective operator extraction supports up to {MAX_DOCUMENT_QUBITS} work qubits")
    matrix = _postselected(circuit, list(range(2**n_work)))
    labels = [format(j, f"0{n_work}b") for j in range(2**n_work)]
    return EffectiveOperator(matrix, _checked_probabilities(matrix, labels))

