"""Compilation of non-unitary operators into ancilla-assisted, post-selected
circuits.

Two modes are provided.  "exact" mode expands the full operator over Pauli
strings and emits a standard prepare / select / unprepare
linear-combination-of-unitaries (LCU) circuit whose post-selected block
equals the operator divided by the L1 weight of its expansion.  "paper"
mode reproduces the fixed per-work-qubit template construction: each work
qubit gets a normalized single-qubit factor, realized by the same LCU on
k - 1 ancillas for a factor of k <= 2 terms, or by a two-ancilla
preparation, a four-way select and Hadamard unpreparation for three or
four terms.

Every compiler returns one block type, a `(Circuit, CompileReport)` pair
built by one assembler, `_block`, which post-selects every ancilla on 0.
`compile_factor` compiles one qubit's factor; `compile_paper` concatenates
those blocks, whose ancillas are distinct, so the result is their tensor
product.  Both modes emit their prepare and select stages through one
helper, `_prepare_select`.  The ancillas are prepared with one binary Ry
tree, `prep_tree` (Grover-Rudolph, quant-ph/0208112; Mottonen et al.,
quant-ph/0407010).  Each node sums the masses L and R of its two halves
correctly rounded (`math.fsum`, or one IEEE addition for two leaves) and
takes the angle 2 atan(sqrt(R / L)) when R <= L, else
pi - 2 atan(sqrt(L / R)): a correctly rounded sum, one ratio of at
most 1, a root and an arctangent, so no ratio is clamped and small
angles keep their relative precision.  The figure angles theta1-theta4
and w_top of paper mode are named angles of these trees.

Every control list of an LCU is a pattern of its ancilla register: a
prefix of the register matched to the bits of a tree node or a leaf.
`_pattern_table` checks the register once and builds each pattern from
its parent by appending one of two shared (ancilla, bit) pairs, so a
compile checks no pattern pair by pair, every pattern of one length
shares one qubit set, and all the gates under one pattern share one
controls object.

An LCU's skeleton is the part its support fixes and its weights do not:
the pattern table of its ancilla register and each branch's
parameter-free select gates, the x, y and z of its Pauli letters.  A
generator and its dagger (mu and delta, eta and eps) expand over the same
Pauli strings, and a change of beta changes no string, so `_SKELETONS`
keeps the skeletons for reuse, least recently used first.  Its key is
made of checked values only: the ancilla ids of the checked register, the
leaf count, the `operator.index`-normalized targets, and the support,
each branch's (pattern, letters).  Each call still checks its register,
masses, targets and phases, and builds the gates that carry angles: the
Ry prepare tree, the select phases and the unprepare adjoints.  The kept
skeletons hold at most _SKELETON_BUDGET gates plus controls; a larger
skeleton is built and used but not kept.

`emit_text` renders each control list once per declaration: a
`_Controls` keeps its operands text with the work and ancilla ids it was
rendered under, so the lists that compiles share through a kept pattern
table are rendered by the first emit on their register, and every later
emit under the same ids takes the text as it is.

Validity is a property of each LCU stage, not of each gate.  The prepare
tree checks its masses and takes its targets from the checked register,
the select stage checks its targets and phases once (`_prepare_select`),
and `Gate.adjoint` negates the angle of a valid gate, so all three build
their gates through the unchecked `Gate._trusted`: an su3(15) mu circuit
builds 30910 gates without checking each.  The gates equal, field by
field, what the checked constructor would build, every refusal keeps the
constructor's message, and `Circuit` still checks every target and each
control qubit set.

Gates act on single targets with arbitrary (qubit, state) control lists;
no decomposition into a restricted native set is attempted.
"""

from __future__ import annotations

import cmath
import math
import operator
import sys
from collections import OrderedDict
from dataclasses import dataclass
from itertools import repeat
from typing import Sequence, Union

import numpy as np

from .frobenius import (
    DenseOperator,
    FrobeniusSpec,
    GENERATOR_ARITY,
    PhaseConvention,
    _index,
    _real,
    generator_terms,
)
from .pauli import (
    PAULI_1Q,
    PAULI_LETTERS,
    FactoredOperator,
    NormalizedFactor,
    _as_matrix,
    normalize_factor,
    pauli_expand,
)

__all__ = [
    "GATE_KINDS",
    "Gate",
    "Circuit",
    "CompileReport",
    "prep_tree",
    "compile_factor",
    "paper_factored_form",
    "compile_paper",
    "compile_exact",
    "emit_text",
]

# kind -> number of real parameters
GATE_KINDS = {
    "ry": 1,
    "rz": 1,
    "phase": 1,
    "x": 0,
    "y": 0,
    "z": 0,
    "h": 0,
}

# Matrices of the parameter-free kinds, looked up by kind so matrix2 needs
# no per-call conversion; x, y and z are the Pauli matrices of pauli.PAULI_1Q.
_FIXED_KIND_MATRICES = {letter.lower(): PAULI_1Q[letter] for letter in "XYZ"}
_FIXED_KIND_MATRICES["h"] = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def _finite(value) -> float:
    value = _real(value)
    if not math.isfinite(value):
        raise ValueError(f"gate parameters must be finite, got {value!r}")
    return value


def _objects(items, key: str) -> list:
    """A document field that must be a list of JSON objects."""
    if not isinstance(items, list) or not all(map(isinstance, items, repeat(dict))):
        raise ValueError(f"{key!r} must be a list of objects")
    return items


class _Controls(tuple):
    """A checked control list: (qubit, state) pairs of integers with states
    0 or 1 and distinct qubits, and `qubits`, the set of its qubits.

    Built once per distinct list and shared by every gate that uses it, so
    a long run of gates under one ancilla pattern checks the pattern once.
    The compilers check each LCU's ancilla register once and take every
    pattern from its `_pattern_table`, whose entries are valid by
    construction.  Qubits and states refuse booleans, as document fields
    do.  It compares and hashes as the plain tuple of its pairs.

    `_emitted` is `emit_text`'s rendering of the list, (declaration,
    operands text), kept with the list so the circuits that share it
    render it once per declaration; (None, "") until it is emitted.
    """

    _emitted = (None, "")

    def __new__(cls, pairs=()):
        checked, qubits = [], set()
        for q, s in pairs:
            if q.__class__ is not int:  # a bool is no int here: _index refuses it
                q = _index(q)
            if s.__class__ is not int:
                s = _index(s)
            if s not in (0, 1):
                raise ValueError("control states must be 0 or 1")
            if q in qubits:
                raise ValueError("control qubits must be distinct from each other and the target")
            qubits.add(q)
            checked.append((q, s))
        return cls._trusted(checked, frozenset(qubits))

    @classmethod
    def _trusted(cls, pairs, qubits: frozenset) -> "_Controls":
        """Controls of pairs already known to be valid, whose qubits are
        exactly `qubits`; nothing is checked."""
        self = super().__new__(cls, pairs)
        self.qubits = qubits
        return self


# the controls of every uncontrolled gate
_NO_CONTROLS = _Controls()


# slotted: a compiled circuit holds up to tens of thousands of gates, and a
# per-gate __dict__ is one more object for the garbage collector to scan
@dataclass(frozen=True, eq=False, slots=True, init=False)
class Gate:
    """One single-qubit gate, optionally controlled.

    `controls` is a tuple of (qubit, state) pairs; the gate fires on basis
    states where every control qubit holds its required state bit.  The
    `phase` kind multiplies the matched branch by exp(i * param) regardless
    of the target's state (a plain global phase when uncontrolled).  Qubit
    ids and control states must be integers (Python or numpy); a float such
    as 1.9 raises TypeError rather than being truncated, and so does a
    boolean control qubit or state.  Parameters must be finite real
    numbers; strings, bytes and booleans raise TypeError.

    The constructor is written out, not generated: it makes every check in
    one pass and sets each field once, since compiled circuits build tens
    of thousands of gates.  A parameter tuple of one plain finite float
    is kept as it is; any other parameters go through the full check.
    Controls are checked once per distinct value: a list a gate receives
    is checked and stored as a shared `_Controls`; each gate still checks
    its target is not among them.

    `_trusted` builds a gate with no check at all.  Only the compiler
    stages of this module call it, `adjoint` included, and each holds the
    invariant the constructor would establish: a known kind, a plain
    `int` target, a tuple of exactly the kind's number of plain finite
    floats, and a `_Controls` that does not hold the target.  The stages
    check their inputs once instead of once per gate (see the module
    docstring); outside input, such as `Circuit.from_dict`, goes through
    the constructor.
    """

    kind: str
    target: int
    params: tuple[float, ...] = ()
    controls: tuple[tuple[int, int], ...] = _NO_CONTROLS

    def __init__(self, kind: str, target: int, params: tuple[float, ...] = (),
                 controls: tuple[tuple[int, int], ...] = _NO_CONTROLS):
        arity = GATE_KINDS.get(kind)
        if arity is None:
            raise ValueError(f"unknown gate kind {kind!r}")
        if params or params.__class__ is not tuple:  # () needs no checks
            if not (params.__class__ is tuple and len(params) == 1
                    and params[0].__class__ is float and -math.inf < params[0] < math.inf):
                params = tuple([_finite(p) for p in params])
        if len(params) != arity:
            raise ValueError(f"{kind} takes {arity} parameter(s)")
        if target.__class__ is not int:
            target = operator.index(target)
        if controls.__class__ is not _Controls:
            controls = _Controls(controls) or _NO_CONTROLS
        if target in controls.qubits:
            raise ValueError("control qubits must be distinct from each other and the target")
        _set_kind(self, kind)
        _set_target(self, target)
        _set_params(self, params)
        _set_controls(self, controls)

    def matrix2(self) -> np.ndarray:
        """The 2x2 matrix applied to the target on matched branches."""
        if not self.params:
            return _FIXED_KIND_MATRICES[self.kind]
        (theta,) = self.params
        if self.kind == "ry":
            c, s = math.cos(theta / 2), math.sin(theta / 2)
            return np.array([[c, -s], [s, c]], dtype=complex)
        if self.kind == "rz":
            return np.array(
                [[cmath.exp(-1j * theta / 2), 0], [0, cmath.exp(1j * theta / 2)]]
            )
        # phase: a branch-global phase
        return cmath.exp(1j * theta) * np.eye(2, dtype=complex)

    @classmethod
    def _trusted(cls, kind: str, target: int, params: tuple[float, ...],
                 controls: _Controls) -> "Gate":
        """A gate of fields already known to be valid; nothing is checked
        (see the class docstring for who may call it)."""
        self = _new_object(cls)
        _set_kind(self, kind)
        _set_target(self, target)
        _set_params(self, params)
        _set_controls(self, controls)
        return self

    def adjoint(self) -> "Gate":
        if self.params:  # ry, rz and phase: the negated angle of a valid gate is valid
            return Gate._trusted(self.kind, self.target, (-self.params[0],), self.controls)
        return self  # x, y, z, h are self-adjoint

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "params": list(self.params),
            "target": self.target,
            "controls": [{"q": q, "state": s} for q, s in self.controls],
        }


# the slot setters of Gate's fields, which its __init__ calls directly
# instead of going through the frozen __setattr__
_set_kind, _set_target, _set_params, _set_controls = (
    getattr(Gate, name).__set__ for name in ("kind", "target", "params", "controls"))
_new_object = object.__new__


def _controls_from_dict(items: list, shared: dict) -> _Controls:
    """The checked controls of a gate document's `controls` objects.

    A list met before in the same circuit document is taken from `shared`
    before anything is checked, so all its gates share one object.  The
    lookup key holds the type of every field next to its value: True == 1
    == 1.0 with equal hashes, so a key of values alone would let a refused
    boolean or float list through after an equal integer one.  A list
    whose key cannot be made (a missing field, an unhashable value) is
    one the full check refuses, with the error it always raised.
    """
    try:
        fields = []  # flat, so a stored key is one object for the collector
        for c in items:
            q, s = c["q"], c["state"]
            fields += (q.__class__, q, s.__class__, s)
        key = tuple(fields)
        controls = shared.get(key)
    except (KeyError, TypeError):
        key = controls = None
    if controls is None:
        controls = _Controls((_index(c["q"]), _index(c["state"])) for c in items)
        if key is not None:
            shared[key] = controls
    return controls


def _gate_from_dict(doc: dict, shared: dict) -> Gate:
    """Parse a gate document, taking its checked controls from `shared`
    when the same list is there already (`_controls_from_dict`), so the
    gates of one circuit document share their control lists as compiled
    circuits do."""
    params = doc.get("params", [])
    if not isinstance(params, list):
        raise ValueError("gate 'params' must be a list")
    controls = _controls_from_dict(_objects(doc.get("controls", []), "controls"), shared)
    target = _index(doc["target"])
    return Gate(doc["kind"], target, tuple(params), controls)


@dataclass(frozen=True, eq=False)
class Circuit:
    """Gate list over a work register plus post-selected ancillas.

    Basis-state labels cover the work register only, in declared order,
    its first qubit the leftmost bit; where the ancillas sit in the
    simulated register is the simulator's choice.  Qubit ids and
    post-selected bits must be integers, as in `Gate`.

    Every gate's target and controls must be declared qubits.  A control
    qubit set is checked once per distinct object, keyed by its identity
    (its gates keep it alive), since compiled gates share one set per
    pattern length; every target is still checked on its own.
    """

    work_qubits: tuple[int, ...]
    ancilla_qubits: tuple[int, ...]
    gates: tuple[Gate, ...]
    postselect: tuple[tuple[int, int], ...]

    def __post_init__(self):
        index = operator.index
        object.__setattr__(self, "work_qubits", tuple(index(q) for q in self.work_qubits))
        object.__setattr__(self, "ancilla_qubits", tuple(index(q) for q in self.ancilla_qubits))
        object.__setattr__(self, "gates", tuple(self.gates))
        post = tuple((index(q), index(b)) for q, b in self.postselect)
        object.__setattr__(self, "postselect", post)
        declared = self.work_qubits + self.ancilla_qubits
        if len(set(declared)) != len(declared):
            raise ValueError("qubit ids must be unique")
        if not self.work_qubits:
            raise ValueError("a circuit needs at least one work qubit")
        anc = set(self.ancilla_qubits)
        known = set(declared)
        for q, b in self.postselect:
            if q not in anc:
                raise ValueError("postselect may reference ancillas only")
            if b not in (0, 1):
                raise ValueError("postselect bits must be 0 or 1")
        if len({q for q, _ in self.postselect}) != len(self.postselect):
            raise ValueError("duplicate postselect entries")
        # ids of the control qubit sets already found declared; every set is
        # kept alive by its gates, and the compilers share one set among many
        declared_sets = set()
        for gate in self.gates:
            qubits = gate.controls.qubits
            if gate.target in known:
                if id(qubits) in declared_sets:
                    continue
                if known.issuperset(qubits):
                    declared_sets.add(id(qubits))
                    continue
            for q in (gate.target, *(q for q, _ in gate.controls)):
                if q not in known:
                    raise ValueError(f"gate references undeclared qubit {q}")

    @property
    def n_qubits(self) -> int:
        return len(self.work_qubits) + len(self.ancilla_qubits)

    def to_dict(self) -> dict:
        return {
            "qubits": [{"id": q, "role": "work"} for q in self.work_qubits]
            + [{"id": q, "role": "ancilla"} for q in self.ancilla_qubits],
            "gates": [g.to_dict() for g in self.gates],
            "postselect": [{"q": q, "bit": b} for q, b in self.postselect],
        }

    @staticmethod
    def from_dict(doc: dict) -> "Circuit":
        """Parse a circuit document; any malformed one raises ValueError,
        a missing field included, which the message names.  Integer fields
        refuse JSON booleans and every qubit's role must be `work` or
        `ancilla`."""
        if not isinstance(doc, dict):
            raise ValueError("a circuit document must be a JSON object")
        try:
            roles: dict = {"work": [], "ancilla": []}
            for qubit in _objects(doc["qubits"], "qubits"):
                role = qubit["role"]
                if role not in roles:
                    raise ValueError(f"unknown qubit role {role!r}")
                roles[role].append(_index(qubit["id"]))
            shared: dict = {}
            gates = tuple(_gate_from_dict(g, shared) for g in _objects(doc["gates"], "gates"))
            post = tuple((_index(p["q"]), _index(p["bit"]))
                         for p in _objects(doc["postselect"], "postselect"))
            return Circuit(tuple(roles["work"]), tuple(roles["ancilla"]), gates, post)
        except KeyError as exc:
            raise ValueError(f"malformed circuit: missing field {exc}") from exc
        except (TypeError, OverflowError) as exc:
            # a field of the wrong JSON type, such as a list where a number goes
            raise ValueError(f"malformed circuit: {exc}") from exc


@dataclass(frozen=True)
class CompileReport:
    """Summary of one compilation: mode tag, ancilla budget, number of terms
    realized, the nominal scale s with effective operator = target / s, and
    the named rotation/phase angles of the construction."""

    mode: str
    ancilla_count: int
    term_count: int
    nominal_scale: complex
    angles: tuple[tuple[str, float], ...]

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "ancilla_count": self.ancilla_count,
            "term_count": self.term_count,
            "nominal_scale": [self.nominal_scale.real, self.nominal_scale.imag],
            "angles": [[name, value] for name, value in self.angles],
        }


def _block(mode: str, gates: Sequence[Gate], work: Sequence[int], ancillas: Sequence[int],
           scale: float, term_count: int,
           angles: Sequence[tuple[str, float]]) -> tuple[Circuit, CompileReport]:
    """The compiled block of `gates` on the `work` qubits and `ancillas`,
    every ancilla post-selected on 0, and its report."""
    circuit = Circuit(work, ancillas, gates, tuple((a, 0) for a in ancillas))
    return circuit, CompileReport(mode, len(ancillas), term_count, complex(scale), tuple(angles))


def _pattern_table(ancillas: Sequence[int], leaves: int) -> list[list[_Controls]]:
    """The controls of every ancilla pattern an LCU on `ancillas` with
    `leaves` leaves uses, row by row.

    Entry p of row l matches ancillas[:l] to the bits of p, the first
    ancilla most significant; row l lists the prefixes of the first
    `leaves` leaves, ceil(leaves / 2**(m - l)) of them for m ancillas.
    The register is checked once, as one `_Controls`; entry p of row l is
    entry p >> 1 of row l - 1 plus one of two shared (ancilla, bit) pairs,
    and every entry of a row shares one `qubits` set.  Row 0 is the
    empty `_NO_CONTROLS`.
    """
    register = _Controls((a, 0) for a in ancillas)
    m = len(register)
    if leaves > 2**m:
        raise ValueError(f"{leaves} masses do not fit {m} ancilla(s)")
    table = [[_NO_CONTROLS]]
    for level, (ancilla, _) in enumerate(register):
        qubits = frozenset(q for q, _ in register[: level + 1])
        bits = ((ancilla, 0), (ancilla, 1))
        above = table[-1]
        width = -(-leaves // 2 ** (m - 1 - level))  # the row's ceil division
        table.append([_Controls._trusted(above[p >> 1] + (bits[p & 1],), qubits)
                      for p in range(width)])
    return table


def _atan_root(small: float, big: float) -> float:
    """atan(sqrt(small / big)) for 0 <= small <= big, big > 0; a ratio
    below the normal float range takes the two roots apart instead, so it
    keeps its relative precision."""
    ratio = small / big
    if ratio < sys.float_info.min:
        return math.atan(math.sqrt(small) / math.sqrt(big))
    return math.atan(math.sqrt(ratio))


def _mass(leaves: list, first: int, count: int) -> float:
    """The correctly rounded sum of the `count` leaf masses from
    leaves[first]: one leaf is its own mass and IEEE addition rounds a sum
    of two correctly, so only more leaves need `math.fsum`.  A zero sum
    may differ from fsum's in its sign alone, which gives the same tree
    angle."""
    if count == 1:
        return leaves[first]
    if count == 2:
        return leaves[first] + leaves[first + 1]
    return math.fsum(leaves[first : first + count])


def _checked_mass(mass: Sequence[float]) -> list[float]:
    """The masses of a prepare tree as plain floats, refused unless each
    is non-negative and their sum is positive and finite."""
    leaves = [float(v) for v in mass]
    if not all(v >= 0.0 for v in leaves):
        raise ValueError("masses must be non-negative")
    try:
        total = math.fsum(leaves)
    except OverflowError:  # fsum raises where a float sum would give inf
        total = math.inf
    if not 0.0 < total < math.inf:
        raise ValueError("masses must have a positive finite sum")
    return leaves


def _tree_gates(leaves: list[float],
                table: list[list[_Controls]]) -> tuple[list[Gate], list[tuple[str, float]]]:
    """`prep_tree` of the `_checked_mass` `leaves`, with the node controls
    of level l taken from row l of `table`, the `_pattern_table` of the
    ancillas for len(leaves) leaves.

    Every angle is a plain finite float, and the target of level l comes
    from the checked register: the last pair of row l + 1 holds ancilla l
    as an `int`.  So it builds its gates unchecked (`Gate._trusted`)."""
    m = len(table) - 1
    leaves = leaves + [0.0] * (2**m - len(leaves))  # the zero padding
    gates: list[Gate] = []
    named: list[tuple[str, float]] = []
    trusted = Gate._trusted
    for level in range(m):
        ancilla = table[level + 1][0][-1][0]
        half = 2 ** (m - 1 - level)
        # the prefixes past the row hold no mass, so they get no gate
        for prefix, controls in enumerate(table[level]):
            middle = (2 * prefix + 1) * half
            right = _mass(leaves, middle, half)
            if right == 0.0:
                continue
            left = _mass(leaves, middle - half, half)
            if right <= left:
                theta = 2.0 * _atan_root(right, left)
            else:
                theta = math.pi - 2.0 * _atan_root(left, right)
            gates.append(trusted("ry", ancilla, (theta,), controls))
            named.append((f"prep_l{level}_p{prefix}", theta))
    return gates, named


def prep_tree(
    mass: Sequence[float], ancillas: Sequence[int]
) -> tuple[list[Gate], list[tuple[str, float]]]:
    """Ry tree sending |0...0> on `ancillas` to amplitudes sqrt(mass / sum(mass)).

    Leaf k is the ancilla pattern k (first ancilla most significant); the
    mass is padded with zeros to 2**len(ancillas) leaves.  The node at level
    l with prefix p splits its mass between its halves L and R, each the
    correctly rounded sum of its leaf masses (see _mass), with Ry(theta) on
    ancilla l, controlled on the prefix bits: theta = 2 atan(sqrt(R / L))
    when R <= L, else pi - 2 atan(sqrt(L / R)).  A node with R = 0 gets no
    gate.  Returns the gates and their angles named `prep_l<l>_p<p>`.
    """
    table = _pattern_table(ancillas, len(mass))
    return _tree_gates(_checked_mass(mass), table)


# the gate kind of each non-identity Pauli letter of a select branch
_SELECT_KINDS = {"X": "x", "Y": "y", "Z": "z"}

# The most gates plus controls that the kept LCU skeletons hold together
# (see _Skeletons).  Each costs about 155 B (tracemalloc), so the default
# keeps at most about 19 MiB, plus the keys' letter strings, about one
# string per branch; the su3(15) mu/delta skeleton holds 27 135, about
# 4 MiB (2.5 MiB of table, 1.5 MiB of select gates).  Once a table is
# emitted, each of its controls also keeps its operands text (see
# emit_text): the 7680 of the su3(15) mu/delta table then keep 1.14 MiB
# more, about 156 B each (tracemalloc), so a store full of emitted
# 12-pair tables would keep about 19 MiB more.
_SKELETON_BUDGET = 2**17


class _Skeletons:
    """The LCU skeletons kept for reuse, least recently used first, each
    under its key (see `_skeleton`), and `retained`, the number of gates
    plus controls they hold.

    `put` keeps a skeleton only while `retained` stays within
    _SKELETON_BUDGET, read at each call: it evicts the least recently used
    skeletons to make room, and keeps none larger than the whole budget.
    """

    def __init__(self):
        self.entries: OrderedDict = OrderedDict()  # key -> (table, selects, size)
        self.retained = 0

    def get(self, key):
        skeleton = self.entries.get(key)
        if skeleton is not None:
            self.entries.move_to_end(key)
        return skeleton

    def put(self, key, skeleton) -> None:
        size = skeleton[2]
        if size > _SKELETON_BUDGET:
            return
        while self.retained + size > _SKELETON_BUDGET:
            self.retained -= self.entries.popitem(last=False)[1][2]
        self.entries[key] = skeleton
        self.retained += size

    def clear(self) -> None:
        self.entries.clear()
        self.retained = 0


_SKELETONS = _Skeletons()


def _skeleton(register: tuple[int, ...], leaves: int, targets: tuple[int, ...],
              patterns: tuple, letters: tuple) -> tuple:
    """(table, selects, size): the `_pattern_table` of the checked ancilla
    `register` for `leaves` leaves, the parameter-free select gates of each
    branch (patterns[b], letters[b]), and the number of gates plus
    controls the two hold, taken from `_SKELETONS` when kept there.

    Every part of the key is checked already: the register's ids passed
    its `_Controls` check, which refuses the booleans and floats that hash
    equal to integers, and `operator.index` makes each target a plain
    `int`.  Under the last row's `pattern`, each letter maps to its kind
    through `_SELECT_KINDS` and acts on its target unchecked
    (`Gate._trusted`); any other letter but I goes to the checked
    constructor as its lower case, so one that names no kind raises
    before anything is kept.
    """
    key = (register, leaves, targets, patterns, letters)
    skeleton = _SKELETONS.get(key)
    if skeleton is None:
        table = _pattern_table(register, leaves)
        row = table[-1]
        trusted = Gate._trusted
        selects = []
        for pattern, word in zip(patterns, letters):
            controls = row[pattern]
            gates = []
            for target, letter in zip(targets, word):
                kind = _SELECT_KINDS.get(letter)
                if kind is not None:
                    gates.append(trusted(kind, target, (), controls))
                elif letter != "I":
                    gates.append(Gate(letter.lower(), target, (), controls))
            selects.append(tuple(gates))
        size = sum(map(len, table)) + sum(map(len, selects))
        skeleton = (table, tuple(selects), size)
        _SKELETONS.put(key, skeleton)
    return skeleton


def _prepare_select(mass: Sequence[float], ancillas: Sequence[int], patterns: Sequence[int],
                    letters: Sequence[str], phases: Sequence[float],
                    targets: Sequence[int]) -> tuple[list[Gate], list[Gate], list]:
    """The prepare and select stages of an LCU on `ancillas`: the gates of
    `prep_tree(mass, ancillas)`, the select gates and the tree's named
    angles.  Under its ancilla pattern patterns[b], a leaf index below
    len(mass), branch b puts a nonzero phases[b] on `targets[0]`, then
    each non-identity letter of letters[b] on its target.  Both stages
    take their controls from one `_pattern_table`, so all the gates of one
    branch share one controls object.  The caller appends the unprepare
    stage.

    The table and the letters' gates are the LCU's skeleton (`_skeleton`),
    reused by every call of the same register, leaf count, targets and
    support.  Every call checks its inputs once, as `Gate` would check
    each gate, and then builds its prepare and phase gates unchecked
    (`Gate._trusted`): the register as one `_Controls`, the masses, each
    target through `operator.index`, refusing one in the ancilla register,
    which every branch pattern controls, and each phase that is not a
    plain finite float through the parameter check.
    """
    register = tuple([q for q, _ in _Controls((a, 0) for a in ancillas)])
    leaves = _checked_mass(mass)
    targets = tuple([operator.index(t) for t in targets])
    if not set(register).isdisjoint(targets):
        raise ValueError("control qubits must be distinct from each other and the target")
    patterns = tuple(patterns)
    table, selects, _ = _skeleton(register, len(leaves), targets, patterns, tuple(letters))
    prep, named = _tree_gates(leaves, table)
    row = table[-1]
    select: list[Gate] = []
    trusted = Gate._trusted
    for pattern, phase, gates in zip(patterns, phases, selects):
        if phase != 0.0:
            if not (phase.__class__ is float and -math.inf < phase < math.inf):
                phase = _finite(phase)
            select.append(trusted("phase", targets[0], (phase,), row[pattern]))
        select += gates
    return prep, select, named


def compile_factor(factor: NormalizedFactor, target: int,
                   ancilla_start: int) -> tuple[Circuit, CompileReport]:
    """Compile one normalized factor of k terms onto the work qubit
    `target`, allocating fresh ancilla ids from `ancilla_start` upward.

    A factor of k <= 2 terms is the LCU of `compile_exact`: it selects its
    terms on k - 1 ancillas between a `prep_tree` and its adjoint, so the
    block weights are the tree's masses, the L1 magnitudes.  A three- or
    four-term factor selects on two ancillas (pattern = index in IXYZ) and
    unprepares with Hadamards, so the block weights are half the tree's
    amplitudes, the L2 magnitudes.  The block is the factor divided by its
    nominal scale: 1 for k <= 2, 2 for k = 3 or 4.  The report's angles are
    the tree's named angles.  `ancilla_start` must be an integer:
    booleans and floats raise TypeError whatever the term count.
    """
    ancilla_start = _index(ancilla_start)
    k = len(factor.letters)
    if k <= 2:
        ancillas = tuple(range(ancilla_start, ancilla_start + k - 1))
        patterns, mass = range(k), factor.magnitudes
    else:
        ancillas = (ancilla_start, ancilla_start + 1)
        patterns = tuple(PAULI_LETTERS.index(letter) for letter in factor.letters)
        mass = [0.0] * 4
        for pattern, magnitude in zip(patterns, factor.magnitudes):
            mass[pattern] = magnitude * magnitude
    prep, select, angles = _prepare_select(mass, ancillas, patterns, factor.letters,
                                           factor.phases, (target,))
    if k <= 2:
        unprep, scale = [gate.adjoint() for gate in reversed(prep)], 1.0
    else:
        unprep, scale = [Gate("h", a, ()) for a in ancillas], 2.0
    return _block("paper", prep + select + unprep, (target,), ancillas, scale, k, angles)


# Pauli coefficients of the single-qubit ket-bra |a><b|, whose flattened
# entries are row 2a + b of the 4x4 identity
_KETBRA_1Q = {
    (a, b): pauli_expand(np.eye(4, dtype=complex)[2 * a + b].reshape(2, 2))
    for a in (0, 1) for b in (0, 1)
}


def _paper_factors(op_name: str, spec: FrobeniusSpec) -> tuple[NormalizedFactor, ...]:
    """The normalized factor of each work qubit, by the template tidy-up
    rule: write the operator as one rank-1 ket-bra term per irrep, fold
    each term's scalar weight into its first qubit's single-qubit piece,
    sum the pieces per qubit independently, then normalize every resulting
    bracket once (L1 for one/two-term brackets, L2 for three/four-term
    ones); the bracket scales are dropped."""
    if op_name not in _ANGLE_LAYOUT:
        raise ValueError("paper mode covers mu, delta, eta and eps")
    n_qubits = spec.encoding.bits_per_circle * max(GENERATOR_ARITY[op_name])
    brackets: list[dict[str, complex]] = [dict() for _ in range(n_qubits)]
    for out_bits, in_bits, weight in generator_terms(op_name, spec, padded=True):
        for q in range(n_qubits):
            piece = _KETBRA_1Q[(int(out_bits[q]), int(in_bits[q]))]
            factor = weight if q == 0 else 1.0
            for letter, c in piece.items():
                brackets[q][letter] = brackets[q].get(letter, 0.0) + factor * c
    return tuple(normalize_factor(bracket)[0] for bracket in brackets)


def paper_factored_form(op_name: str, spec: FrobeniusSpec) -> FactoredOperator:
    """The per-qubit factored (product) approximation of one generator:
    the coefficients of the normalized factors that `compile_paper`
    compiles.  The sum of rank-1 terms is generally not a product, so this
    form differs from the true operator by a quantifiable residual.
    """
    return FactoredOperator(tuple(f.coefficients() for f in _paper_factors(op_name, spec)))


def _reported_phase(coefficient: complex, spec: FrobeniusSpec) -> float:
    """Phase magnitude for the angle table.

    When a bracket coefficient is a single positive multiple of one irrep's
    weight exp(-i * beta * C2), report the un-wrapped exponent beta * C2;
    otherwise report |principal arg|.
    """
    principal = float(np.angle(coefficient))
    if spec.convention is PhaseConvention.PAPER_LITERAL:
        for entry in spec.table:
            exponent = spec.beta * float(entry.casimir)
            if abs(coefficient * cmath.exp(1j * exponent) - abs(coefficient)) <= 1e-9 * max(
                abs(coefficient), 1.0
            ):
                return exponent
    return abs(principal)


# which tree angles carry the figure names: (name, work qubit, the term
# counts its factor block must have, prep_tree angle name); the row is
# absent when that block has another term count
_TWO, _FOUR = (2,), (3, 4)
_MERGE_ANGLES = (("theta1", 0, _TWO, "prep_l0_p0"), ("theta2", 1, _TWO, "prep_l0_p0"),
                 ("theta3", 2, _FOUR, "prep_l1_p0"), ("theta4", 2, _FOUR, "prep_l1_p1"))
_UNIT_ANGLES = (("theta1", 0, _FOUR, "prep_l1_p0"), ("theta2", 0, _FOUR, "prep_l1_p1"),
                ("theta3", 1, _FOUR, "prep_l1_p0"), ("theta4", 1, _FOUR, "prep_l1_p1"))
_ANGLE_LAYOUT = {"mu": _MERGE_ANGLES, "delta": _MERGE_ANGLES,
                 "eta": _UNIT_ANGLES, "eps": _UNIT_ANGLES}

# named phase-gate angles: (name, work qubit, Pauli letter)
_PHASE_LAYOUT = {
    "mu": (("theta5", 0, "I"),),
    "delta": (),
    "eta": (("theta5", 0, "I"), ("theta6", 0, "X"), ("theta7", 0, "Y")),
    "eps": (),
}


def compile_paper(op_name: str, spec: FrobeniusSpec) -> tuple[Circuit, CompileReport]:
    """Compile the factored template form of one generator.

    Work qubit q carries the `compile_factor` block of normalized factor q,
    on ancillas of its own, so the circuit is their tensor product: its
    post-selected block equals paper_factored_form(op_name, spec), built
    from the same factors, divided by the product of the blocks' nominal
    scales (a factor 2 per Hadamard-unprepared three- or four-term block),
    and its term count is their sum.
    """
    factors = _paper_factors(op_name, spec)
    n_work = len(factors)
    gates: list[Gate] = []
    ancillas: list[int] = []
    reports: list[CompileReport] = []
    nominal = 1.0
    term_count = 0
    for q, factor in enumerate(factors):
        circuit, report = compile_factor(factor, q, n_work + len(ancillas))
        gates.extend(circuit.gates)
        ancillas.extend(circuit.ancilla_qubits)
        reports.append(report)
        nominal *= report.nominal_scale.real
        term_count += report.term_count
    angles: list[tuple[str, float]] = []
    # a small table can have fewer work qubits than the figure names
    for name, q, term_counts, tree_angle in _ANGLE_LAYOUT[op_name]:
        if q < n_work and reports[q].term_count in term_counts:
            # a tree node that needed no gate has angle 0
            angles.append((name, dict(reports[q].angles).get(tree_angle, 0.0)))
    for name, q, letter in _PHASE_LAYOUT[op_name]:
        coefficient = factors[q].coefficients().get(letter) if q < n_work else None
        if coefficient is not None:
            angles.append((name, _reported_phase(coefficient, spec)))
    for q, report in enumerate(reports):
        if report.term_count in _FOUR:
            angles.append((f"w_top_q{q}", dict(report.angles).get("prep_l0_p0", 0.0)))
    return _block("paper", gates, range(n_work), ancillas, nominal, term_count, angles)


def compile_exact(op: Union[DenseOperator, np.ndarray]) -> tuple[Circuit, CompileReport]:
    """Compile a square operator exactly via its Pauli expansion.

    With expansion sum_k alpha_k P_k and s = sum_k |alpha_k|, the circuit
    prepares ancilla amplitudes sqrt(|alpha_k| / s) with `prep_tree`,
    applies each phased P_k under the ancilla pattern k, unprepares, and
    post-selects the all-zeros pattern, leaving the block op / s.  Work
    registers up to 8 qubits are accepted.
    """
    mat = _as_matrix(op)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("exact compilation needs a square operator")
    n_work = mat.shape[0].bit_length() - 1
    if 2**n_work != mat.shape[0]:
        raise ValueError("operator size must be a power of two")
    if not 1 <= n_work <= 8:
        raise ValueError("exact compilation supports 1 to 8 work qubits")
    terms = pauli_expand(mat)
    if not terms:
        raise ValueError("cannot compile the zero operator")
    weights = np.array([abs(c) for c in terms.values()])
    s = float(weights.sum())
    k_count = len(terms)
    m = (k_count - 1).bit_length()
    ancillas = tuple(range(n_work, n_work + m))
    phases = np.angle(np.fromiter(terms.values(), complex, k_count)).tolist()
    prep, select, named = _prepare_select(weights, ancillas, range(k_count), terms, phases,
                                          range(n_work))
    unprep = [gate.adjoint() for gate in reversed(prep)]
    return _block("exact", prep + select + unprep, range(n_work), ancillas, s, k_count, named)


def emit_text(circuit: Circuit) -> str:
    """Flat-text rendering of a circuit.

    Format: `work` / `ancilla` declaration lines, then one line per gate as
    `<c...><kind>(<params>) <controls...>, <target>;` where each control
    adds a `c` prefix and a control on state 0 is written with a leading
    `!`, then `postselect <q> -> <bit>;` lines.  Floats use shortest
    round-trip repr, so equal circuits emit byte-equal text.

    Each controls object keeps its operands text on itself, in
    `_Controls._emitted`, as the pair (declaration, text), the declaration
    being (work_qubits, ancilla_qubits), the qubit ids in declared order.
    A controls object whose pair holds this circuit's declaration costs
    one comparison, so the LCU patterns that compiles share through their
    pattern tables (mu and delta, eta and eps, every beta at one
    truncation) are rendered once per declaration, not once per call.
    The key is the ids, not the names: names are positional (`q<i>`,
    `a<i>`), so the same gates declared in another order have the same
    names on other qubits.

    Any other list is rendered and its pair overwritten: it is rendered
    once per distinct value in this call and memoized by value.  The LCU
    patterns of a compiled circuit each extend a pattern one pair shorter,
    rendered before, so each costs one lookup of that prefix and one
    concatenation; any other list is rendered in one pass from the operand
    strings, each made once per (qubit, state) pair, so a list costs time
    linear in its length.  The controls of a parsed document are all
    fresh, so they all take this path.  A run of gates that share one
    controls object costs one lookup.  Each gate line is one f-string
    ending in its target's name and semicolon, and the lines are joined
    once.  Each parameter's repr is made once per magnitude, since
    repr(-x) is "-" + repr(x) for x > 0; zeros of either sign go straight
    to repr, since 0.0 and -0.0 are one key but print apart.
    """
    declaration = (circuit.work_qubits, circuit.ancilla_qubits)
    names = {q: f"q{i}" for i, q in enumerate(circuit.work_qubits)}
    names.update((q, f"a{i}") for i, q in enumerate(circuit.ancilla_qubits))
    lines = ["work " + ", ".join(names[q] for q in circuit.work_qubits) + ";"]
    if circuit.ancilla_qubits:
        lines.append("ancilla " + ", ".join(names[q] for q in circuit.ancilla_qubits) + ";")
    operand = {(q, state): ("" if state else "!") + name + ", "
               for q, name in names.items() for state in (0, 1)}
    # each gate line ends in its target's name and the semicolon
    tails = {q: name + ";" for q, name in names.items()}
    # control list (a _Controls, or a plain tuple prefix of one) -> operands
    rendered: dict[tuple, str] = {(): ""}

    def operands_of(controls: tuple) -> str:
        text = rendered.get(controls)
        if text is None:
            text = rendered.get(controls[:-1])
            if text is None:
                text = "".join([operand[pair] for pair in controls])
            else:
                text += operand[controls[-1]]
            rendered[controls] = text
        return text

    # positive magnitude -> repr
    reprs: dict[float, str] = {}
    # a kept declaration found equal to this one, compared by identity after
    equal = declaration
    controls = None
    for gate in circuit.gates:
        if gate.controls is not controls:
            controls = gate.controls
            kept, operands = controls._emitted
            if kept is not equal:
                if kept == declaration:
                    equal = kept
                else:
                    operands = operands_of(controls)
                    controls._emitted = (declaration, operands)
            prefix = "c" * len(controls)
        if gate.params:
            (x,) = gate.params  # every parametrized kind takes one
            if x:
                magnitude = -x if x < 0 else x
                param = reprs.get(magnitude)
                if param is None:
                    param = reprs[magnitude] = repr(magnitude)
                if x < 0:
                    param = "-" + param
            else:
                param = repr(x)
            lines.append(f"{prefix}{gate.kind}({param}) {operands}{tails[gate.target]}")
        else:
            lines.append(f"{prefix}{gate.kind} {operands}{tails[gate.target]}")
    for q, bit in circuit.postselect:
        lines.append(f"postselect {names[q]} -> {bit};")
    lines.append("")  # the text ends in a newline
    return "\n".join(lines)
