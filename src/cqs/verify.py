"""Verification: scale-aware operator comparison, the Frobenius axiom
suite, and the end-to-end reference reproduction bundle.

All comparisons are against dense matrices; nothing here samples.  The
axiom suite exercises the algebra identities on logical forms, where the
identity morphism is the projector onto the encoded irrep sector, and
works for any diagonal (label, casimir, dim) table, not only SU(3).  Each
identity is one contraction of circle axes of those forms read as tensors,
with no identity padding; its widest array has d^4 <= 2^24 entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .duality_compiler import (Circuit, CompileReport, compile_exact, compile_paper,
                               paper_factored_form)
from .frobenius import BUILDERS as _BUILDERS
from .frobenius import (GENERATOR_ARITY, MAX_DOCUMENT_QUBITS, DenseOperator, FrobeniusSpec,
                        PhaseConvention, logical_form)
from .pauli import _as_matrix, factorization_residual
from .statevector import effective_operator

__all__ = [
    "VerificationError",
    "VerifyReport",
    "compare_up_to_scale",
    "axiom_suite",
    "verify_compiled",
    "compile_generator",
    "reproduce_paper",
    "REFERENCE_ANGLES",
    "RESIDUAL_TOLERANCE",
    "ANGLE_TOLERANCE",
    "AXIOM_TOLERANCE",
]

RESIDUAL_TOLERANCE = 1e-10
ANGLE_TOLERANCE = 5e-3
AXIOM_TOLERANCE = 1e-12


class VerificationError(AssertionError):
    """A named verification failure; `check` identifies which assertion."""

    def __init__(self, check: str, message: str):
        super().__init__(f"{check}: {message}")
        self.check = check


@dataclass(frozen=True)
class VerifyReport:
    target_name: str
    mode: str
    relative_residual: float
    fitted_scale: complex
    min_success_probability: float
    max_success_probability: float
    axiom_results: tuple[tuple[str, float], ...] = ()

    def to_dict(self) -> dict:
        return {
            "target_name": self.target_name,
            "mode": self.mode,
            "relative_residual": self.relative_residual,
            "fitted_scale": [self.fitted_scale.real, self.fitted_scale.imag],
            "min_success_probability": self.min_success_probability,
            "max_success_probability": self.max_success_probability,
            "axiom_results": [[name, value] for name, value in self.axiom_results],
        }


def compare_up_to_scale(a, b) -> tuple[float, complex]:
    """Least-squares fit of a = scale * b.

    Returns (relative residual ||a - scale*b||_F / ||a||_F, fitted scale
    <b,a> / <b,b>).  A zero `a` compares with residual 0 and scale 0; a
    zero `b` is rejected.
    """
    a = _as_matrix(a)
    b = _as_matrix(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    norm_a = float(np.linalg.norm(a))
    norm_b_sq = float(np.vdot(b, b).real)
    if norm_b_sq == 0.0:
        raise ValueError("comparison baseline is the zero operator")
    if norm_a == 0.0:
        return 0.0, 0j
    scale = complex(np.vdot(b, a) / norm_b_sq)
    residual = float(np.linalg.norm(a - scale * b) / norm_a)
    return residual, scale


def _maxabs(x: np.ndarray) -> float:
    return float(np.max(np.abs(x))) if x.size else 0.0


def _contract(subscripts: str, *operands: np.ndarray) -> np.ndarray:
    # optimize=True hands each pairwise contraction to BLAS (tensordot); the
    # plain einsum loop is several times slower from 4-bit circles up
    return np.einsum(subscripts, *operands, optimize=True)


def axiom_suite(spec: FrobeniusSpec,
                overrides: Optional[Mapping[str, DenseOperator]] = None) -> list[tuple[str, float]]:
    """Max-entry deviations of the commutative-Frobenius identities.

    Identities are checked on logical forms; generators may be overridden
    (keyed by tag) to exercise the suite against corrupted data.  For
    correctly built generators every deviation is near rounding, but each
    is an absolute difference: `area_additivity` compares sphere amplitudes
    of size up to sum_R d_R^2, so under the literal convention at beta = 1
    it reads 2.79e-12 at su3(12) and 8.52e-11 at su3(31), above
    AXIOM_TOLERANCE.

    Each identity is one contraction of circle axes: a logical form is read
    as a tensor with one length-d axis per circle (d = 2^bits per circle),
    outputs first and the first circle most significant, so mu is
    mu[o, a, b] and delta is delta[a, b, i].  The widest array is a
    four-circle side of associativity, coassociativity or the Frobenius
    relation, d^4 entries.  The suite refuses circles whose mu and delta
    would need registers over the 12-qubit MAX_DOCUMENT_QUBITS before it
    builds anything, so d <= 64 and no array exceeds 2^24 entries
    (256 MiB).
    """
    bits = spec.encoding.bits_per_circle
    # mu and delta span two circles: refuse before any form is built
    if 2 * bits > MAX_DOCUMENT_QUBITS:
        raise ValueError(
            f"the axiom suite on {bits}-qubit circles needs mu and delta on "
            f"{2 * bits}-qubit registers, over the {MAX_DOCUMENT_QUBITS}-qubit limit"
        )
    overrides = dict(overrides or {})
    d = 2**bits

    def gen(tag: str, beta: Optional[float] = None) -> np.ndarray:
        if beta is None and tag in overrides:
            matrix = overrides[tag].matrix
        else:
            matrix = logical_form(tag, spec, beta).matrix
        a_in, a_out = GENERATOR_ARITY[tag]
        return matrix.reshape((d,) * (a_out + a_in))

    # the cylinder at zero area is the projector onto the irrep sector
    sector = gen("cylinder", 0.0)
    mu, delta, eps = gen("mu"), gen("delta"), gen("eps")
    beta = spec.beta
    beta_extra = 0.5 * beta + 0.25  # a generic second area
    eta_extra = gen("eta", beta_extra)
    tube = gen("cylinder", beta + beta_extra)
    beta1, beta2 = 0.3 * beta + 0.2, 0.7 * beta + 0.05
    glued = gen("cylinder", beta1) @ gen("cylinder", beta2)
    whole = gen("cylinder", beta1 + beta2)
    sphere_direct = eps @ gen("eta", beta1 + beta2)
    sphere_tubed = eps @ gen("cylinder", beta2) @ gen("eta", beta1)
    middle = _contract("abm,mxy->abxy", delta, mu)
    # each side is a d^4 array: hold one at a time beside `middle`, and free
    # `middle` before the other four-circle identities
    frobenius = max(_maxabs(_contract("aqx,bqy->abxy", delta, mu) - middle),
                    _maxabs(_contract("axp,pby->abxy", mu, delta) - middle))
    del middle
    return [
        ("commutativity", _maxabs(mu.swapaxes(1, 2) - mu)),
        ("cocommutativity", _maxabs(delta.swapaxes(0, 1) - delta)),
        ("associativity",
         _maxabs(_contract("omc,mab->oabc", mu, mu) - _contract("oam,mbc->oabc", mu, mu))),
        ("coassociativity", _maxabs(_contract("abm,mci->abci", delta, delta)
                                    - _contract("bcm,ami->abci", delta, delta))),
        ("frobenius_relation", frobenius),
        ("counit_law", max(_maxabs(_contract("m,moi->oi", eps, delta) - sector),
                           _maxabs(_contract("m,omi->oi", eps, delta) - sector))),
        ("unit_with_area", max(_maxabs(_contract("omc,m->oc", mu, eta_extra) - tube),
                               _maxabs(_contract("ocm,m->oc", mu, eta_extra) - tube))),
        ("area_additivity",
         max(_maxabs(glued - whole), _maxabs(sphere_direct - sphere_tubed))),
    ]


def compile_generator(op_name: str, spec: FrobeniusSpec,
                      mode: str) -> tuple[Circuit, CompileReport, object, str]:
    """(circuit, report, target, target name) of one generator in one mode:
    the dense generator in exact mode; in paper mode its FactoredOperator,
    left unexpanded, which paper_factored_form refuses for the cylinder."""
    if mode == "exact":
        target = _BUILDERS[op_name](spec)
        return (*compile_exact(target), target, op_name)
    if mode == "paper":
        return (*compile_paper(op_name, spec), paper_factored_form(op_name, spec),
                f"{op_name}_factored_form")
    raise ValueError(f"unknown compile mode {mode!r}")


def verify_compiled(circuit: Circuit, target, target_name: str, mode: str,
                    axiom_results: Sequence[tuple[str, float]] = ()) -> VerifyReport:
    """Simulate a compiled circuit and compare its post-selected block with
    the target (a dense operator, a product form or an array) up to one
    global scale.  An all-zero block matches no target: its relative
    residual is 1."""
    target = _as_matrix(target)
    effective = effective_operator(circuit)
    residual, scale = compare_up_to_scale(effective.matrix, target)
    if not effective.matrix.any():
        # the fit gives a zero block residual 0 at scale 0, yet a zero block
        # matches no target (the fit refuses a zero one): its residual is
        # the target's relative distance from zero
        residual = 1.0
    probabilities = list(effective.success_probabilities.values())
    return VerifyReport(
        target_name=target_name,
        mode=mode,
        relative_residual=residual,
        fitted_scale=scale,
        min_success_probability=min(probabilities),
        max_success_probability=max(probabilities),
        axiom_results=tuple((name, float(v)) for name, v in axiom_results),
    )


# Two-decimal angle values printed alongside the reference circuit figures,
# kept as annotations; assertions compare the computed column against these
# under the literal phase convention.
REFERENCE_ANGLES = {
    "mu": {
        "theta1": 1.37,
        "theta2": math.pi / 3,
        "theta3": 2.21,
        "theta4": 0.93,
        "theta5": 0.372,
        "w_top_q2": math.pi / 2,
        "w_top_q3": math.pi / 2,
    },
    "delta": {
        "theta1": 1.32,
        "theta2": math.pi / 3,
        "theta3": 2.21,
        "theta4": 0.93,
        "w_top_q2": math.pi / 2,
        "w_top_q3": math.pi / 2,
    },
    "eta": {
        "theta1": 1.77,
        "theta2": 1.37,
        "theta3": 2.21,
        "theta4": 0.93,
        "theta5": 16.0 / 3.0,
        "theta6": 0.73,
        "theta7": 0.84,
        "w_top_q0": math.pi / 2,
        "w_top_q1": math.pi / 2,
    },
    "eps": {
        "theta1": 1.85,
        "theta2": 1.29,
        "theta3": 2.21,
        "theta4": 0.93,
        "w_top_q0": math.pi / 2,
        "w_top_q1": math.pi / 2,
    },
}


def reproduce_paper(convention: PhaseConvention = PhaseConvention.PAPER_LITERAL) -> dict:
    """Full reference reproduction: build all four generators at beta = 1,
    compile in both modes, simulate, verify, and collect the golden angle
    table.

    Under the literal convention every reference angle is asserted to
    0.005 rad and every exact-mode residual to 1e-10; under the euclidean
    convention the angles are recorded but not asserted (the phases vanish
    and the rotation angles differ), which the bundle flags.  Any assertion
    failure raises a VerificationError naming the failed check.
    """
    spec = FrobeniusSpec.su3(3, beta=1.0, convention=convention)
    literal = convention is PhaseConvention.PAPER_LITERAL
    axioms = axiom_suite(spec)
    for name, deviation in axioms:
        if deviation > AXIOM_TOLERANCE:
            raise VerificationError(f"axiom:{name}", f"deviation {deviation:.3e}")
    bundle: dict = {
        "convention": convention.value,
        "beta": 1.0,
        "angles_asserted": literal,
        "axioms": [[name, value] for name, value in axioms],
        "angles": [],
        "reports": {},
        "paper_form_residuals": {},
    }
    for op_name in ("mu", "delta", "eta", "eps"):
        targets, verdicts, compiles = {}, {}, {}
        for mode in ("exact", "paper"):
            circuit, compiles[mode], target, target_name = compile_generator(op_name, spec, mode)
            # the paper form is expanded once, for its block and both residuals
            targets[mode] = _as_matrix(target)
            verdicts[mode] = verify_compiled(circuit, targets[mode], target_name, mode, axioms)
            if verdicts[mode].relative_residual > RESIDUAL_TOLERANCE:
                raise VerificationError(f"{mode}-residual:{op_name}",
                                        f"residual {verdicts[mode].relative_residual:.3e}")
        form, target = targets["paper"], targets["exact"]
        bundle["paper_form_residuals"][op_name] = {
            "raw": factorization_residual(form, target),
            "up_to_scale": compare_up_to_scale(form, target)[0],
        }
        reference = REFERENCE_ANGLES[op_name]
        for angle_name, computed in compiles["paper"].angles:
            printed = reference.get(angle_name)
            row = {
                "op": op_name,
                "name": angle_name,
                "computed": computed,
                "reference": printed,
            }
            bundle["angles"].append(row)
            if literal and printed is not None and abs(computed - printed) > ANGLE_TOLERANCE:
                raise VerificationError(
                    f"angle:{op_name}:{angle_name}",
                    f"computed {computed:.6f} vs reference {printed:.6f}",
                )
        bundle["reports"][op_name] = {
            **{mode: verdict.to_dict() for mode, verdict in verdicts.items()},
            **{f"{mode}_compile": report.to_dict() for mode, report in compiles.items()},
        }
    return bundle
