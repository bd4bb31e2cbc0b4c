"""Dense realizations of the commutative Frobenius algebra of a truncated
2D Yang-Mills theory.

The algebra is diagonal in the irrep basis.  With Boltzmann weight
w(R) = exp(-beta * C2(R)) (or the literal imaginary variant, see
PhaseConvention) and d(R) the irrep dimension, the generators act as

    multiplication   mu:    |R> (x) |R>  ->  (w / d) |R>
    comultiplication delta: |R>          ->  (w / d) |R> (x) |R>
    unit             eta:   (nothing)    ->  d * w |R>, summed over R
    counit           eps:   |R>          ->  d * w
    cylinder:        |R>          ->  w |R>

Two layers of matrices are exposed.  Padded forms act on full qubit
registers (one fixed-width register per circle, vacuum pattern marking the
absent output/input circle) and are what the circuit compiler consumes.
Logical forms keep one register per actual circle and are rectangular
across different circle counts; they are the right objects for composing
words of generators and for the algebra identities, where "identity" means
the projector onto the encoded irrep sector.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np

from .encoding import EncodingMap
from .reptheory import RepTable

__all__ = [
    "PhaseConvention",
    "FrobeniusSpec",
    "DenseOperator",
    "boltzmann_weight",
    "build_mu",
    "build_delta",
    "build_eta",
    "build_epsilon",
    "build_cylinder",
    "logical_form",
    "compose_word",
    "generator_terms",
    "GeneratorRule",
    "GENERATORS",
    "GENERATOR_ARITY",
    "BUILDERS",
]


class PhaseConvention(Enum):
    """How the area weight exp(-beta * C2) is interpreted.

    PAPER_LITERAL keeps the exponent imaginary, exp(-i * beta * C2), which is
    the form the reference circuit constructions use; EUCLIDEAN uses the real
    heat-kernel weight exp(-beta * C2).
    """

    PAPER_LITERAL = "paper_literal"
    EUCLIDEAN = "euclidean"


def boltzmann_weight(casimir, beta: float, convention: PhaseConvention) -> complex:
    """The area weight of an irrep of casimir C2: exp(-beta * C2) under the
    euclidean convention, exp(-i * beta * C2) under the paper one.  A weight
    whose exponent leaves the float range raises ValueError naming beta and
    C2; it is never returned as inf."""
    c2 = float(casimir)
    try:
        if convention is PhaseConvention.EUCLIDEAN:
            weight = complex(math.exp(-beta * c2))
        else:
            weight = cmath.exp(-1j * beta * c2)
        if cmath.isfinite(weight):
            return weight
    except (OverflowError, ValueError):  # exp of a too large or an infinite exponent
        pass
    raise ValueError(
        f"the {convention.value} area weight at beta {beta!r} and casimir "
        f"{c2!r} leaves the float range"
    )


@dataclass(frozen=True)
class FrobeniusSpec:
    """Everything needed to build the generators: irrep table, encoding,
    default area beta and phase convention."""

    table: RepTable
    encoding: EncodingMap
    beta: float = 1.0
    convention: PhaseConvention = PhaseConvention.PAPER_LITERAL

    def __post_init__(self):
        if not self.encoding.covers(self.table):
            raise ValueError("encoding does not cover every table entry")
        if not math.isfinite(self.beta) or self.beta < 0:
            raise ValueError("beta must be finite and >= 0")

    @staticmethod
    def su3(count: int = 3, beta: float = 1.0,
            convention: PhaseConvention = PhaseConvention.PAPER_LITERAL) -> "FrobeniusSpec":
        from .encoding import default_encoding
        from .reptheory import su3_truncation

        table = su3_truncation(count)
        return FrobeniusSpec(table, default_encoding(table), beta, convention)


# widest register an operator document may declare: rows and cols are at
# most 2**12, the statevector's work-register limit (256 MiB of complex128)
MAX_DOCUMENT_QUBITS = 12


def _index(value) -> int:
    """An integer document field: `operator.index`, refusing the booleans
    it would take as 0 and 1."""
    if isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    return operator.index(value)


def _real(value) -> float:
    """A real-number field: `float`, refusing the strings and booleans it
    would parse."""
    if isinstance(value, (str, bytes, bool)):
        raise TypeError(f"expected a real number, got {value!r}")
    return float(value)


@dataclass(frozen=True, eq=False)
class DenseOperator:
    """A dense complex matrix, optionally tagged with register widths.

    For padded forms rows == 2**out_qubits and cols == 2**in_qubits; logical
    forms may be rectangular across circle counts (the widths are still
    recorded when the dimensions are powers of two).
    """

    matrix: np.ndarray
    in_qubits: Optional[int] = None
    out_qubits: Optional[int] = None

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=complex)
        if mat.ndim != 2:
            raise ValueError("operator matrix must be 2-D")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        if self.out_qubits is not None and mat.shape[0] != 2**self.out_qubits:
            raise ValueError("rows inconsistent with out_qubits")
        if self.in_qubits is not None and mat.shape[1] != 2**self.in_qubits:
            raise ValueError("cols inconsistent with in_qubits")

    @property
    def rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def cols(self) -> int:
        return self.matrix.shape[1]

    def to_dict(self) -> dict:
        entries = [
            [int(r), int(c), float(self.matrix[r, c].real), float(self.matrix[r, c].imag)]
            for r, c in zip(*np.nonzero(self.matrix))
        ]
        return {
            "rows": self.rows,
            "cols": self.cols,
            "in_qubits": self.in_qubits,
            "out_qubits": self.out_qubits,
            "entries": entries,
        }

    @staticmethod
    def from_dict(doc: dict) -> "DenseOperator":
        """Parse an operator document; any malformed one raises ValueError,
        a missing field included, which the message names."""
        if not isinstance(doc, dict):
            raise ValueError("an operator document must be a JSON object")
        try:
            entries = doc["entries"]
            if not isinstance(entries, list):
                raise ValueError("'entries' must be a list")
            rows, cols = _index(doc["rows"]), _index(doc["cols"])
            limit = 2**MAX_DOCUMENT_QUBITS
            if not (0 <= rows <= limit and 0 <= cols <= limit):
                raise ValueError(f"rows and cols must lie in [0, {limit}]")
            widths = [doc.get(key) for key in ("in_qubits", "out_qubits")]
            widths = [None if w is None else _index(w) for w in widths]
            if any(w is not None and not 0 <= w <= MAX_DOCUMENT_QUBITS for w in widths):
                raise ValueError(
                    f"in_qubits and out_qubits must lie in [0, {MAX_DOCUMENT_QUBITS}]"
                )
            mat = np.zeros((rows, cols), dtype=complex)
            seen = set()
            for r, c, re, im in entries:
                r, c, value = _index(r), _index(c), complex(_real(re), _real(im))
                if not (0 <= r < rows and 0 <= c < cols):
                    raise ValueError(f"entry ({r}, {c}) lies outside the {rows} x {cols} matrix")
                if not cmath.isfinite(value):
                    raise ValueError(f"entry ({r}, {c}) is not finite")
                if (r, c) in seen:
                    raise ValueError(f"entry ({r}, {c}) is given more than once")
                seen.add((r, c))
                mat[r, c] = value
        except KeyError as exc:
            raise ValueError(f"malformed operator: missing field {exc}") from exc
        except (TypeError, OverflowError) as exc:
            # a field of the wrong JSON type, such as a list where a number goes
            raise ValueError(f"malformed operator: {exc}") from exc
        return DenseOperator(mat, *widths)


@dataclass(frozen=True)
class GeneratorRule:
    """One generator as a sum of rank-1 terms |out><in|, one per irrep R.

    `out` and `inp` are circle patterns of the logical form (e = the encoded
    irrep R, v = the vacuum pattern; "" is the zero-circle register),
    `weight` maps (w(R), d(R)) to the term's coefficient, and `area` is the
    default beta (None: the spec's beta; the comultiplication and counit
    carry no area unless a beta is given).
    """

    out: str
    inp: str
    weight: Callable[[complex, int], complex]
    area: Optional[float]


GENERATORS = {
    "mu": GeneratorRule("e", "ee", lambda w, d: w / d, None),
    "delta": GeneratorRule("ee", "e", lambda w, d: w / d, 0.0),
    "eta": GeneratorRule("e", "", lambda w, d: d * w, None),
    "eps": GeneratorRule("", "e", lambda w, d: d * w, 0.0),
    "cylinder": GeneratorRule("e", "e", lambda w, d: w, None),
}

# generator tag -> (circles consumed, circles produced)
GENERATOR_ARITY = {tag: (len(rule.inp), len(rule.out)) for tag, rule in GENERATORS.items()}


def _rule(tag: str) -> GeneratorRule:
    try:
        return GENERATORS[tag]
    except KeyError:
        raise ValueError(f"unknown generator {tag!r}") from None


def _resolve_beta(rule: GeneratorRule, spec: FrobeniusSpec, beta: Optional[float]) -> float:
    if beta is not None:
        return float(beta)
    return spec.beta if rule.area is None else rule.area


def generator_terms(tag: str, spec: FrobeniusSpec, beta: Optional[float] = None,
                    padded: bool = False):
    """Yield (out bits, in bits, weight), one rank-1 term per irrep.

    Padded terms fill the shorter pattern out with vacuum circles on the
    right, so both registers have the generator's larger circle count.
    """
    rule = _rule(tag)
    beta = _resolve_beta(rule, spec, beta)
    out, inp = rule.out, rule.inp
    if padded:
        width = max(len(out), len(inp))
        out, inp = out.ljust(width, "v"), inp.ljust(width, "v")
    enc = spec.encoding
    for entry in spec.table:
        irrep = enc.bits(entry.label)
        try:
            weight = rule.weight(boltzmann_weight(entry.casimir, beta, spec.convention), entry.dim)
        except ValueError as exc:
            raise ValueError(f"irrep {entry.label}: {exc}") from None
        if not cmath.isfinite(weight):
            raise ValueError(f"irrep {entry.label}: the {tag} coefficient at beta {beta!r} "
                             "leaves the float range")
        yield (
            out.replace("v", enc.vacuum).replace("e", irrep),
            inp.replace("v", enc.vacuum).replace("e", irrep),
            weight,
        )


def _dense(tag: str, spec: FrobeniusSpec, beta: Optional[float], padded: bool) -> DenseOperator:
    rule = _rule(tag)
    b = spec.encoding.bits_per_circle
    a_in, a_out = len(rule.inp), len(rule.out)
    if padded:
        a_in = a_out = max(a_in, a_out)
    widest = b * max(a_in, a_out)
    if widest > MAX_DOCUMENT_QUBITS:
        raise ValueError(
            f"{tag} on {b}-qubit circles needs a {widest}-qubit register, over "
            f"the {MAX_DOCUMENT_QUBITS}-qubit limit"
        )
    mat = np.zeros((2 ** (b * a_out), 2 ** (b * a_in)), dtype=complex)
    for out_bits, in_bits, weight in generator_terms(tag, spec, beta, padded):
        mat[int(out_bits or "0", 2), int(in_bits or "0", 2)] = weight
    return DenseOperator(mat, in_qubits=b * a_in, out_qubits=b * a_out)


def logical_form(tag: str, spec: FrobeniusSpec, beta: Optional[float] = None) -> DenseOperator:
    """Rectangular matrix of one generator, one register per actual circle."""
    return _dense(tag, spec, beta, padded=False)


def build_mu(spec: FrobeniusSpec, beta: Optional[float] = None) -> DenseOperator:
    """Padded multiplication on two circle registers (output circle padded
    by vacuum)."""
    return _dense("mu", spec, beta, padded=True)


def build_delta(spec: FrobeniusSpec, beta: Optional[float] = None) -> DenseOperator:
    """Padded comultiplication; carries no area unless beta is given."""
    return _dense("delta", spec, beta, padded=True)


def build_eta(spec: FrobeniusSpec, beta: Optional[float] = None) -> DenseOperator:
    """Padded unit on a single circle register: maps the vacuum pattern to
    the weighted sum of irreps."""
    return _dense("eta", spec, beta, padded=True)


def build_epsilon(spec: FrobeniusSpec, beta: Optional[float] = None) -> DenseOperator:
    """Padded counit; carries no area unless beta is given."""
    return _dense("eps", spec, beta, padded=True)


def build_cylinder(spec: FrobeniusSpec, beta: Optional[float] = None) -> DenseOperator:
    """Area propagator: diagonal exp-weight on the encoded irrep patterns,
    zero on vacuum and unused patterns.  At beta = 0 this is the projector
    onto the irrep sector."""
    return _dense("cylinder", spec, beta, padded=True)


BUILDERS = {
    "mu": build_mu,
    "delta": build_delta,
    "eta": build_eta,
    "eps": build_epsilon,
    "cylinder": build_cylinder,
}


WordStep = tuple  # (tag, beta or None, circle position)


def compose_word(word: Sequence[WordStep], spec: FrobeniusSpec,
                 in_circles: Optional[int] = None) -> DenseOperator:
    """Evaluate a word of generators on logical forms.

    Each step is (tag, beta, position): the generator acts on the circles
    starting at `position` (the unit inserts a new circle there), tensored
    with identity on all other circles.  Steps apply first to last.  The
    empty word is the identity; if `in_circles` is omitted the minimal
    consistent starting circle count is inferred.  Positions and
    `in_circles` must be integers, as in `Gate`: a float or a boolean raises
    TypeError rather than being truncated.  A word whose widest register
    exceeds MAX_DOCUMENT_QUBITS is rejected before any allocation.

    Nothing is padded: each step applies the rank-1 terms of its
    `generator_terms` to the circles it touches, and the rows of every
    other circle pass through untouched.
    """
    steps = []  # (tag, beta, position, circles gained before the step)
    gained = need = most = low = 0
    for step in word:
        if len(step) != 3:
            raise ValueError("word steps must be (tag, beta, position) triples")
        tag, beta, pos = step
        if tag not in GENERATOR_ARITY:
            raise ValueError(f"unknown generator {tag!r}")
        pos = _index(pos)
        a_in, a_out = GENERATOR_ARITY[tag]
        steps.append((tag, beta, pos, gained))
        need, low = max(need, pos + a_in - gained), min(low, pos)
        gained += a_out - a_in
        most = max(most, gained)
    circles = (need if steps else 1) if in_circles is None else _index(in_circles)
    if circles < 0:
        raise ValueError("in_circles must be >= 0")
    if need > circles or low < 0:
        tag, pos, before = next((t, p, circles + g) for t, _b, p, g in steps
                                if p < 0 or p + GENERATOR_ARITY[t][0] > circles + g)
        raise ValueError(f"generator {tag!r} at position {pos} does not fit {before} circles")
    b = spec.encoding.bits_per_circle
    d = 2**b
    widest = circles + most
    if b * widest > MAX_DOCUMENT_QUBITS:
        raise ValueError(
            f"word reaches {widest} circles of {b} qubits, a {b * widest}-qubit "
            f"register, over the {MAX_DOCUMENT_QUBITS}-qubit limit"
        )
    acc = np.eye(d**circles, dtype=complex)
    for tag, beta, pos, _gained in steps:
        a_in, a_out = GENERATOR_ARITY[tag]
        acc = acc.reshape(d**pos, d**a_in, -1)
        out = np.zeros((d**pos, d**a_out, acc.shape[2]), dtype=complex)
        for out_bits, in_bits, weight in generator_terms(tag, spec, beta):
            out[:, int(out_bits or "0", 2)] += weight * acc[:, int(in_bits or "0", 2)]
        acc = out.reshape(-1, d**circles)
    return DenseOperator(acc, in_qubits=b * circles, out_qubits=b * (circles + gained))
