"""Compilation of non-unitary operators into ancilla-assisted, post-selected
circuits.

Two modes are provided.  "paper" mode reproduces the fixed per-work-qubit
template construction: each work qubit gets a normalized single-qubit factor
realized either by one Ry-conjugated controlled branch pair (two-term
factors) or by a two-ancilla state preparation, a four-way controlled
select and Hadamard unpreparation (three/four-term factors).  "exact" mode
expands the full operator over Pauli strings and emits a standard
prepare / select / unprepare linear-combination-of-unitaries circuit whose
post-selected block equals the operator divided by the L1 weight of its
expansion.

Both modes prepare their ancillas with one binary Ry tree, `prep_tree`
(Grover-Rudolph, quant-ph/0208112; Mottonen et al., quant-ph/0407010).
Each node takes the angle 2 atan2(sqrt(R), sqrt(L)) from the masses L and
R of its two halves, so no ratio is clamped and small angles keep their
relative precision.  The figure angles theta1-theta4 and w_top of paper
mode are named angles of these trees.

Gates act on single targets with arbitrary (qubit, state) control lists;
no decomposition into a restricted native set is attempted.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .frobenius import (
    DenseOperator,
    FrobeniusSpec,
    GENERATOR_ARITY,
    PhaseConvention,
    generator_terms,
)
from .pauli import (
    PAULI_1Q,
    PAULI_LETTERS,
    FactoredOperator,
    NormalizedFactor,
    _as_matrix,
    _factor_dict,
    normalize_factor,
    pauli_expand,
)

__all__ = [
    "GATE_KINDS",
    "Gate",
    "Circuit",
    "CompileReport",
    "FactorFragment",
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
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"gate parameters must be finite, got {value!r}")
    return value


def _objects(items, key: str) -> list:
    """A document field that must be a list of JSON objects."""
    if not isinstance(items, list) or not all(isinstance(item, dict) for item in items):
        raise ValueError(f"{key!r} must be a list of objects")
    return items


@dataclass(frozen=True, eq=False)
class Gate:
    """One single-qubit gate, optionally controlled.

    `controls` is a tuple of (qubit, state) pairs; the gate fires on basis
    states where every control qubit holds its required state bit.  The
    `phase` kind multiplies the matched branch by exp(i * param) regardless
    of the target's state (a plain global phase when uncontrolled).  Qubit
    ids and control states must be integers (Python or numpy); a float such
    as 1.9 raises TypeError rather than being truncated.
    """

    kind: str
    target: int
    params: tuple[float, ...] = ()
    controls: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        object.__setattr__(self, "params", tuple(_finite(p) for p in self.params))
        if len(self.params) != GATE_KINDS[self.kind]:
            raise ValueError(f"{self.kind} takes {GATE_KINDS[self.kind]} parameter(s)")
        object.__setattr__(self, "target", operator.index(self.target))
        ctl = tuple((operator.index(q), operator.index(s)) for q, s in self.controls)
        object.__setattr__(self, "controls", ctl)
        seen = set()
        for q, s in ctl:
            if s not in (0, 1):
                raise ValueError("control states must be 0 or 1")
            if q == self.target or q in seen:
                raise ValueError("control qubits must be distinct from each other and the target")
            seen.add(q)

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

    def adjoint(self) -> "Gate":
        if self.kind in ("ry", "rz", "phase"):
            return Gate(self.kind, self.target, (-self.params[0],), self.controls)
        return self  # x, y, z, h are self-adjoint

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "params": list(self.params),
            "target": self.target,
            "controls": [{"q": q, "state": s} for q, s in self.controls],
        }

    @staticmethod
    def from_dict(doc: dict) -> "Gate":
        params = doc.get("params", [])
        if not isinstance(params, list):
            raise ValueError("gate 'params' must be a list")
        return Gate(
            doc["kind"],
            doc["target"],
            tuple(params),
            tuple((c["q"], c["state"]) for c in _objects(doc.get("controls", []), "controls")),
        )


@dataclass(frozen=True, eq=False)
class Circuit:
    """Gate list over a work register plus post-selected ancillas.

    Register order is work qubits first (in declared order), then ancillas;
    qubit 0 is the leftmost bit of basis-state labels.  Qubit ids and
    post-selected bits must be integers, as in `Gate`.
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
        for gate in self.gates:
            for q in (gate.target, *(q for q, _ in gate.controls)):
                if q not in known:
                    raise ValueError(f"gate references undeclared qubit {q}")

    @property
    def n_qubits(self) -> int:
        return len(self.work_qubits) + len(self.ancilla_qubits)

    def qubit_order(self) -> tuple[int, ...]:
        return self.work_qubits + self.ancilla_qubits

    def to_dict(self) -> dict:
        return {
            "qubits": [{"id": q, "role": "work"} for q in self.work_qubits]
            + [{"id": q, "role": "ancilla"} for q in self.ancilla_qubits],
            "gates": [g.to_dict() for g in self.gates],
            "postselect": [{"q": q, "bit": b} for q, b in self.postselect],
        }

    @staticmethod
    def from_dict(doc: dict) -> "Circuit":
        """Parse a circuit document; any malformed one raises ValueError
        (or KeyError for a missing field)."""
        if not isinstance(doc, dict):
            raise ValueError("a circuit document must be a JSON object")
        qubits = _objects(doc["qubits"], "qubits")
        try:
            work = tuple(q["id"] for q in qubits if q["role"] == "work")
            anc = tuple(q["id"] for q in qubits if q["role"] == "ancilla")
            gates = tuple(Gate.from_dict(g) for g in _objects(doc["gates"], "gates"))
            post = tuple((p["q"], p["bit"]) for p in _objects(doc["postselect"], "postselect"))
            return Circuit(work, anc, gates, post)
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


def _pattern_controls(ancillas: Sequence[int], pattern: int) -> tuple[tuple[int, int], ...]:
    """Controls that match `ancillas` to the bits of `pattern`, the first
    ancilla holding the most significant bit."""
    top = len(ancillas) - 1
    return tuple((a, (pattern >> (top - j)) & 1) for j, a in enumerate(ancillas))


def prep_tree(
    mass: Sequence[float], ancillas: Sequence[int]
) -> tuple[list[Gate], list[tuple[str, float]]]:
    """Ry tree sending |0...0> on `ancillas` to amplitudes sqrt(mass / sum(mass)).

    Leaf k is the ancilla pattern k (first ancilla most significant); the
    mass is padded with zeros to 2**len(ancillas) leaves.  The node at level
    l with prefix p splits its mass between its halves L and R (pairwise sums
    of the leaf masses) with Ry(2 atan2(sqrt(R), sqrt(L))) on ancilla l,
    controlled on the prefix bits.  A node with R = 0 gets no gate.  Returns
    the gates and their angles named `prep_l<l>_p<p>`.
    """
    m = len(ancillas)
    leaves = [float(v) for v in mass]
    if len(leaves) > 2**m:
        raise ValueError(f"{len(leaves)} masses do not fit {m} ancilla(s)")
    if not all(v >= 0.0 for v in leaves):
        raise ValueError("masses must be non-negative")
    sums = [leaves + [0.0] * (2**m - len(leaves))]
    while len(sums[-1]) > 1:
        below = sums[-1]
        sums.append([below[i] + below[i + 1] for i in range(0, len(below), 2)])
    if not 0.0 < sums[-1][0] < math.inf:
        raise ValueError("masses must have a positive finite sum")
    gates: list[Gate] = []
    named: list[tuple[str, float]] = []
    for level in range(m):
        halves = sums[m - 1 - level]
        for prefix in range(2**level):
            left, right = halves[2 * prefix], halves[2 * prefix + 1]
            if right == 0.0:
                continue
            theta = 2.0 * math.atan2(math.sqrt(right), math.sqrt(left))
            controls = _pattern_controls(ancillas[:level], prefix)
            gates.append(Gate("ry", ancillas[level], (theta,), controls))
            named.append((f"prep_l{level}_p{prefix}", theta))
    return gates, named


@dataclass(frozen=True)
class FactorFragment:
    """Circuit piece realizing one normalized single-qubit factor.

    kind is 'single', 'two' or 'four'.  `nominal_scale` is the s with
    post-selected block = factor / s (1 for single/two, 2 for the
    Hadamard-unprepared four-way select).  `angles` are the named angles of
    its `prep_tree`.
    """

    kind: str
    gates: tuple[Gate, ...]
    ancillas: tuple[int, ...]
    postselect: tuple[tuple[int, int], ...]
    nominal_scale: float
    angles: tuple[tuple[str, float], ...] = ()

    def angle(self, name: str) -> float:
        """A named tree angle; 0.0 for a node that needed no gate."""
        return dict(self.angles).get(name, 0.0)


def _branch_gates(letter: str, phase: float, target: int,
                  controls: tuple[tuple[int, int], ...]) -> list[Gate]:
    gates = []
    if phase != 0.0:
        gates.append(Gate("phase", target, (phase,), controls))
    if letter != "I":
        gates.append(Gate(letter.lower(), target, (), controls))
    return gates


def compile_factor(factor: NormalizedFactor, target: int, ancilla_start: int) -> FactorFragment:
    """Compile one normalized factor onto `target`, allocating fresh ancilla
    ids from `ancilla_start` upward.

    A two-term factor selects its branches on one ancilla between a
    `prep_tree` and its adjoint, so the block weights are the tree's masses,
    the L1 magnitudes.  A three- or four-term factor selects on two ancillas
    (pattern = index in IXYZ) and unprepares with Hadamards, so the block
    weights are half the tree's amplitudes, the L2 magnitudes.
    """
    k = len(factor.letters)
    if k == 1:
        gates = tuple(_branch_gates(factor.letters[0], factor.phases[0], target, ()))
        return FactorFragment("single", gates, (), (), 1.0)
    if k == 2:
        ancillas, patterns = (ancilla_start,), (0, 1)
        mass = factor.magnitudes
    else:
        ancillas = (ancilla_start, ancilla_start + 1)
        patterns = tuple(PAULI_LETTERS.index(letter) for letter in factor.letters)
        mass = [0.0] * 4
        for pattern, magnitude in zip(patterns, factor.magnitudes):
            mass[pattern] = magnitude * magnitude
    prep, angles = prep_tree(mass, ancillas)
    gates = list(prep)
    for pattern, letter, phase in zip(patterns, factor.letters, factor.phases):
        gates.extend(_branch_gates(letter, phase, target, _pattern_controls(ancillas, pattern)))
    if k == 2:
        gates.extend(gate.adjoint() for gate in reversed(prep))
        kind, scale = "two", 1.0
    else:
        gates.extend(Gate("h", a, ()) for a in ancillas)
        kind, scale = "four", 2.0
    return FactorFragment(
        kind, tuple(gates), ancillas, tuple((a, 0) for a in ancillas), scale, tuple(angles)
    )


# Pauli coefficients of the single-qubit ket-bra |a><b|, whose flattened
# entries are row 2a + b of the 4x4 identity
_KETBRA_1Q = {
    (a, b): _factor_dict(np.eye(4, dtype=complex)[2 * a + b]) for a in (0, 1) for b in (0, 1)
}


def paper_factored_form(op_name: str, spec: FrobeniusSpec) -> FactoredOperator:
    """The per-qubit factored (product) approximation of one generator.

    Built by the template tidy-up rule: write the operator as one rank-1
    ket-bra term per irrep, fold each term's scalar weight into its first
    qubit's single-qubit piece, sum the pieces per qubit independently, then
    normalize every resulting bracket (L1 for one/two-term brackets, L2 for
    three/four-term ones).  The overall scale is 1 by construction; the sum
    of rank-1 terms is generally not a product, so this form differs from
    the true operator by a quantifiable residual.
    """
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
    factors = []
    for bracket in brackets:
        normalized, _scale = normalize_factor(bracket)
        factors.append(normalized.coefficients())
    return FactoredOperator(tuple(factors), 1.0)


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


# which tree angles carry the figure names: (name, fragment index, fragment
# kind, prep_tree angle name); the row is absent when the fragment has
# another kind
_MERGE_ANGLES = (("theta1", 0, "two", "prep_l0_p0"), ("theta2", 1, "two", "prep_l0_p0"),
                 ("theta3", 2, "four", "prep_l1_p0"), ("theta4", 2, "four", "prep_l1_p1"))
_UNIT_ANGLES = (("theta1", 0, "four", "prep_l1_p0"), ("theta2", 0, "four", "prep_l1_p1"),
                ("theta3", 1, "four", "prep_l1_p0"), ("theta4", 1, "four", "prep_l1_p1"))
_ANGLE_LAYOUT = {"mu": _MERGE_ANGLES, "delta": _MERGE_ANGLES,
                 "eta": _UNIT_ANGLES, "eps": _UNIT_ANGLES}

# named phase-gate angles: (name, fragment index, Pauli letter)
_PHASE_LAYOUT = {
    "mu": (("theta5", 0, "I"),),
    "delta": (),
    "eta": (("theta5", 0, "I"), ("theta6", 0, "X"), ("theta7", 0, "Y")),
    "eps": (),
}


def compile_paper(op_name: str, spec: FrobeniusSpec) -> tuple[Circuit, CompileReport]:
    """Compile the factored template form of one generator.

    The post-selected block of the returned circuit equals
    paper_factored_form(op_name, spec) divided by the reported nominal
    scale (a factor 2 per Hadamard-unprepared four-term fragment).
    """
    form = paper_factored_form(op_name, spec)
    n_work = form.n_qubits
    fragments: list[FactorFragment] = []
    brackets: list[dict[str, complex]] = []
    next_ancilla = n_work
    gates: list[Gate] = []
    ancillas: list[int] = []
    postselect: list[tuple[int, int]] = []
    nominal = 1.0
    term_count = 0
    for q in range(n_work):
        normalized, _scale = normalize_factor(form.factors[q])
        brackets.append(dict(form.factors[q]))
        fragment = compile_factor(normalized, q, next_ancilla)
        fragments.append(fragment)
        gates.extend(fragment.gates)
        ancillas.extend(fragment.ancillas)
        postselect.extend(fragment.postselect)
        next_ancilla += len(fragment.ancillas)
        nominal *= fragment.nominal_scale
        term_count += len(normalized.letters)
    circuit = Circuit(tuple(range(n_work)), tuple(ancillas), tuple(gates), tuple(postselect))
    angles: list[tuple[str, float]] = []
    # a small table can have fewer work qubits than the figure names
    for name, frag_idx, kind, tree_angle in _ANGLE_LAYOUT[op_name]:
        if frag_idx < n_work and fragments[frag_idx].kind == kind:
            angles.append((name, fragments[frag_idx].angle(tree_angle)))
    for name, frag_idx, letter in _PHASE_LAYOUT[op_name]:
        coefficient = brackets[frag_idx].get(letter) if frag_idx < n_work else None
        if coefficient is not None:
            angles.append((name, _reported_phase(coefficient, spec)))
    for q, fragment in enumerate(fragments):
        if fragment.kind == "four":
            angles.append((f"w_top_q{q}", fragment.angle("prep_l0_p0")))
    report = CompileReport(
        mode="paper",
        ancilla_count=len(ancillas),
        term_count=term_count,
        nominal_scale=complex(nominal),
        angles=tuple(angles),
    )
    return circuit, report


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
    weights = np.array([abs(t.coefficient) for t in terms])
    s = float(weights.sum())
    k_count = len(terms)
    m = (k_count - 1).bit_length()
    ancillas = tuple(range(n_work, n_work + m))
    prep, named = prep_tree(weights, ancillas)
    gates = list(prep)
    for k, term in enumerate(terms):
        controls = _pattern_controls(ancillas, k)
        phase = float(np.angle(term.coefficient))
        if phase != 0.0:
            gates.append(Gate("phase", 0, (phase,), controls))
        for q, letter in enumerate(term.string.letters):
            if letter != "I":
                gates.append(Gate(letter.lower(), q, (), controls))
    gates.extend(gate.adjoint() for gate in reversed(prep))
    circuit = Circuit(
        tuple(range(n_work)),
        ancillas,
        tuple(gates),
        tuple((a, 0) for a in ancillas),
    )
    report = CompileReport(
        mode="exact",
        ancilla_count=m,
        term_count=k_count,
        nominal_scale=complex(s),
        angles=tuple(named),
    )
    return circuit, report


def emit_text(circuit: Circuit) -> str:
    """Flat-text rendering of a circuit.

    Format: `work` / `ancilla` declaration lines, then one line per gate as
    `<c...><kind>(<params>) <controls...>, <target>;` where each control
    adds a `c` prefix and a control on state 0 is written with a leading
    `!`, then `postselect <q> -> <bit>;` lines.  Floats use shortest
    round-trip repr, so equal circuits emit byte-equal text.
    """
    names = {q: f"q{i}" for i, q in enumerate(circuit.work_qubits)}
    names.update((q, f"a{i}") for i, q in enumerate(circuit.ancilla_qubits))
    lines = ["work " + ", ".join(names[q] for q in circuit.work_qubits) + ";"]
    if circuit.ancilla_qubits:
        lines.append("ancilla " + ", ".join(names[q] for q in circuit.ancilla_qubits) + ";")
    for gate in circuit.gates:
        name = "c" * len(gate.controls) + gate.kind
        if gate.params:
            name += "(" + ",".join(repr(p) for p in gate.params) + ")"
        operands = [("" if state else "!") + names[q] for q, state in gate.controls]
        operands.append(names[gate.target])
        lines.append(f"{name} {', '.join(operands)};")
    for q, bit in circuit.postselect:
        lines.append(f"postselect {names[q]} -> {bit};")
    return "\n".join(lines) + "\n"
