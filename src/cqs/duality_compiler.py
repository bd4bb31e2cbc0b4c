"""Compilation of non-unitary operators into ancilla-assisted, post-selected
circuits.

Two modes are provided.  "paper" mode reproduces the fixed per-work-qubit
template construction: each work qubit gets a normalized single-qubit factor
realized either by one Ry-conjugated controlled branch pair (two-term
factors) or by a two-ancilla W-state preparation, a four-way controlled
select and Hadamard unpreparation (three/four-term factors).  "exact" mode
expands the full operator over Pauli strings and emits a standard
prepare / select / unprepare linear-combination-of-unitaries circuit whose
post-selected block equals the operator divided by the L1 weight of its
expansion.

Gates act on single targets with arbitrary (qubit, state) control lists;
no decomposition into a restricted native set is attempted.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

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
    normalize_factor,
    pauli_expand,
)

__all__ = [
    "GATE_KINDS",
    "Gate",
    "Circuit",
    "CompileReport",
    "FactorFragment",
    "two_term_angle",
    "prep_angles_4",
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
    of the target's state (a plain global phase when uncontrolled).
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
        ctl = tuple((int(q), int(s)) for q, s in self.controls)
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
            int(doc["target"]),
            tuple(params),
            tuple((c["q"], c["state"]) for c in _objects(doc.get("controls", []), "controls")),
        )


@dataclass(frozen=True, eq=False)
class Circuit:
    """Gate list over a work register plus post-selected ancillas.

    Register order is work qubits first (in declared order), then ancillas;
    qubit 0 is the leftmost bit of basis-state labels.
    """

    work_qubits: tuple[int, ...]
    ancilla_qubits: tuple[int, ...]
    gates: tuple[Gate, ...]
    postselect: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "work_qubits", tuple(int(q) for q in self.work_qubits))
        object.__setattr__(self, "ancilla_qubits", tuple(int(q) for q in self.ancilla_qubits))
        object.__setattr__(self, "gates", tuple(self.gates))
        object.__setattr__(self, "postselect", tuple((int(q), int(b)) for q, b in self.postselect))
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


def two_term_angle(w0: float, w1: float) -> float:
    """Rotation angle theta with cos^2(theta/2) : sin^2(theta/2) = w0 : w1."""
    if w0 < 0 or w1 < 0 or w0 + w1 <= 0:
        raise ValueError("weights must be non-negative with a positive sum")
    return 2.0 * math.acos(math.sqrt(w0 / (w0 + w1)))


def prep_angles_4(c: Sequence[float]) -> tuple[float, float, float]:
    """Angles (theta_top, theta_left, theta_right) of the two-qubit tree
    preparing amplitudes (c0, c1, c2, c3) from |00>.

    Requires non-negative amplitudes with sum of squares 1 (to 1e-9).
    """
    c = [float(v) for v in c]
    if len(c) != 4:
        raise ValueError("need exactly four amplitudes")
    if any(v < 0 for v in c):
        raise ValueError("amplitudes must be non-negative")
    total = sum(v * v for v in c)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"amplitudes must be normalized, got |c|^2 = {total}")
    left_mass = c[0] * c[0] + c[1] * c[1]
    right_mass = c[2] * c[2] + c[3] * c[3]
    theta_top = 2.0 * math.acos(min(1.0, math.sqrt(left_mass)))
    theta_left = (
        2.0 * math.acos(min(1.0, c[0] / math.sqrt(left_mass))) if left_mass > 0 else 0.0
    )
    theta_right = (
        2.0 * math.acos(min(1.0, c[2] / math.sqrt(right_mass))) if right_mass > 0 else 0.0
    )
    return theta_top, theta_left, theta_right


@dataclass(frozen=True)
class FactorFragment:
    """Circuit piece realizing one normalized single-qubit factor.

    kind is 'single', 'two' or 'four'.  `nominal_scale` is the s with
    post-selected block = factor / s (1 for single/two, 2 for the
    Hadamard-unprepared four-way select).  `phases` records the signed
    branch phases by Pauli letter as they went into the phase gates.
    """

    kind: str
    gates: tuple[Gate, ...]
    ancillas: tuple[int, ...]
    postselect: tuple[tuple[int, int], ...]
    nominal_scale: float
    theta: Optional[float] = None
    w_top: Optional[float] = None
    w_left: Optional[float] = None
    w_right: Optional[float] = None
    phases: tuple[tuple[str, float], ...] = ()


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
    ids from `ancilla_start` upward."""
    k = len(factor.letters)
    phases = tuple(zip(factor.letters, factor.phases))
    if k == 1:
        gates = tuple(_branch_gates(factor.letters[0], factor.phases[0], target, ()))
        return FactorFragment("single", gates, (), (), 1.0, phases=phases)
    if k == 2:
        anc = ancilla_start
        theta = two_term_angle(factor.magnitudes[0], factor.magnitudes[1])
        gates = [Gate("ry", anc, (theta,))]
        for state, (letter, phase) in enumerate(phases):
            gates.extend(_branch_gates(letter, phase, target, ((anc, state),)))
        gates.append(Gate("ry", anc, (-theta,)))
        return FactorFragment(
            "two", tuple(gates), (anc,), ((anc, 0),), 1.0, theta=theta, phases=phases
        )
    # three or four terms: two ancillas, W preparation, select, Hadamard pair
    slots = {letter: (m, p) for letter, m, p in
             zip(factor.letters, factor.magnitudes, factor.phases)}
    amplitudes = [slots.get(letter, (0.0, 0.0))[0] for letter in PAULI_LETTERS]
    w_top, w_left, w_right = prep_angles_4(amplitudes)
    a0, a1 = ancilla_start, ancilla_start + 1
    gates = [Gate("ry", a0, (w_top,))]
    if w_left != 0.0:
        gates.append(Gate("ry", a1, (w_left,), ((a0, 0),)))
    if w_right != 0.0:
        gates.append(Gate("ry", a1, (w_right,), ((a0, 1),)))
    for idx, letter in enumerate(PAULI_LETTERS):
        magnitude, phase = slots.get(letter, (0.0, 0.0))
        if magnitude == 0.0:
            continue
        controls = ((a0, idx >> 1), (a1, idx & 1))
        gates.extend(_branch_gates(letter, phase, target, controls))
    gates.append(Gate("h", a0, ()))
    gates.append(Gate("h", a1, ()))
    return FactorFragment(
        "four",
        tuple(gates),
        (a0, a1),
        ((a0, 0), (a1, 0)),
        2.0,
        w_top=w_top,
        w_left=w_left,
        w_right=w_right,
        phases=phases,
    )


_KETBRA_1Q = {
    (0, 0): {"I": 0.5, "Z": 0.5},
    (0, 1): {"X": 0.5, "Y": 0.5j},
    (1, 0): {"X": 0.5, "Y": -0.5j},
    (1, 1): {"I": 0.5, "Z": -0.5},
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
        raise ValueError(f"unsupported operator name {op_name!r}")
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


# which fragment angles carry the figure names, per operator
_ANGLE_LAYOUT = {
    "mu": (("theta1", 0, "theta"), ("theta2", 1, "theta"),
           ("theta3", 2, "w_left"), ("theta4", 2, "w_right")),
    "delta": (("theta1", 0, "theta"), ("theta2", 1, "theta"),
              ("theta3", 2, "w_left"), ("theta4", 2, "w_right")),
    "eta": (("theta1", 0, "w_left"), ("theta2", 0, "w_right"),
            ("theta3", 1, "w_left"), ("theta4", 1, "w_right")),
    "eps": (("theta1", 0, "w_left"), ("theta2", 0, "w_right"),
            ("theta3", 1, "w_left"), ("theta4", 1, "w_right")),
}

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
    for name, frag_idx, attr in _ANGLE_LAYOUT[op_name]:
        value = getattr(fragments[frag_idx], attr) if frag_idx < n_work else None
        if value is not None:
            angles.append((name, float(value)))
    for name, frag_idx, letter in _PHASE_LAYOUT[op_name]:
        coefficient = brackets[frag_idx].get(letter) if frag_idx < n_work else None
        if coefficient is not None:
            angles.append((name, _reported_phase(coefficient, spec)))
    for q, fragment in enumerate(fragments):
        if fragment.w_top is not None:
            angles.append((f"w_top_q{q}", float(fragment.w_top)))
    report = CompileReport(
        mode="paper",
        ancilla_count=len(ancillas),
        term_count=term_count,
        nominal_scale=complex(nominal),
        angles=tuple(angles),
    )
    return circuit, report


def _prep_tree(amplitudes: np.ndarray, ancillas: Sequence[int]) -> tuple[list[Gate], list[tuple[str, float]]]:
    """Binary-tree Ry cascade sending |0...0> to the given non-negative
    amplitude vector over the ancilla register."""
    m = len(ancillas)
    gates: list[Gate] = []
    named: list[tuple[str, float]] = []
    mass = amplitudes**2
    for level in range(m):
        block = 2 ** (m - level)
        for prefix in range(2**level):
            lo = prefix * block
            total = float(mass[lo : lo + block].sum())
            if total <= 0.0:
                continue
            left = float(mass[lo : lo + block // 2].sum())
            theta = 2.0 * math.acos(min(1.0, math.sqrt(left / total)))
            if theta == 0.0:
                continue
            controls = tuple(
                (ancillas[j], (prefix >> (level - 1 - j)) & 1) for j in range(level)
            )
            gates.append(Gate("ry", ancillas[level], (theta,), controls))
            named.append((f"prep_l{level}_p{prefix}", theta))
    return gates, named


def compile_exact(op: Union[DenseOperator, np.ndarray]) -> tuple[Circuit, CompileReport]:
    """Compile a square operator exactly via its Pauli expansion.

    With expansion sum_k alpha_k P_k and s = sum_k |alpha_k|, the circuit
    prepares ancilla amplitudes sqrt(|alpha_k| / s), applies each phased
    P_k under the ancilla pattern k, unprepares, and post-selects the
    all-zeros pattern, leaving the block op / s.  Work registers up to
    8 qubits are accepted.
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
    m = max(1, (k_count - 1).bit_length()) if k_count > 1 else 0
    ancillas = tuple(range(n_work, n_work + m))
    gates: list[Gate] = []
    named: list[tuple[str, float]] = []
    if m > 0:
        amplitudes = np.zeros(2**m)
        amplitudes[:k_count] = np.sqrt(weights / s)
        prep, named = _prep_tree(amplitudes, ancillas)
        gates.extend(prep)
    for k, term in enumerate(terms):
        controls = tuple((ancillas[j], (k >> (m - 1 - j)) & 1) for j in range(m))
        phase = float(np.angle(term.coefficient))
        if phase != 0.0:
            gates.append(Gate("phase", 0, (phase,), controls))
        for q, letter in enumerate(term.string.letters):
            if letter != "I":
                gates.append(Gate(letter.lower(), q, (), controls))
    if m > 0:
        for gate in reversed(prep):
            gates.append(gate.adjoint())
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


def _qubit_name(circuit: Circuit, qubit: int) -> str:
    if qubit in circuit.work_qubits:
        return f"q{circuit.work_qubits.index(qubit)}"
    return f"a{circuit.ancilla_qubits.index(qubit)}"


def emit_text(circuit: Circuit) -> str:
    """Flat-text rendering of a circuit.

    Format: `work` / `ancilla` declaration lines, then one line per gate as
    `<c...><kind>(<params>) <controls...>, <target>;` where each control
    adds a `c` prefix and a control on state 0 is written with a leading
    `!`, then `postselect <q> -> <bit>;` lines.  Floats use shortest
    round-trip repr, so equal circuits emit byte-equal text.
    """
    lines = []
    lines.append("work " + ", ".join(_qubit_name(circuit, q) for q in circuit.work_qubits) + ";")
    if circuit.ancilla_qubits:
        lines.append(
            "ancilla " + ", ".join(_qubit_name(circuit, q) for q in circuit.ancilla_qubits) + ";"
        )
    for gate in circuit.gates:
        name = "c" * len(gate.controls) + gate.kind
        if gate.params:
            name += "(" + ",".join(repr(p) for p in gate.params) + ")"
        operands = [
            ("" if state else "!") + _qubit_name(circuit, q) for q, state in gate.controls
        ]
        operands.append(_qubit_name(circuit, gate.target))
        lines.append(f"{name} {', '.join(operands)};")
    for q, bit in circuit.postselect:
        lines.append(f"postselect {_qubit_name(circuit, q)} -> {bit};")
    return "\n".join(lines) + "\n"
