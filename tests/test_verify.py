"""Scale-aware comparison, the axiom suite, and the reproduction bundle."""

from dataclasses import replace

import numpy as np
import pytest

from cqs import verify
from cqs.duality_compiler import Circuit, Gate, compile_exact, compile_paper, paper_factored_form
from cqs.frobenius import (
    DenseOperator,
    FrobeniusSpec,
    PhaseConvention,
    build_eta,
    build_mu,
    logical_form,
)
from cqs.pauli import FactoredOperator
from cqs.reptheory import RepEntry, RepTable
from cqs.encoding import default_encoding
from cqs.verify import (
    ANGLE_TOLERANCE,
    AXIOM_TOLERANCE,
    REFERENCE_ANGLES,
    RESIDUAL_TOLERANCE,
    VerificationError,
    VerifyReport,
    axiom_suite,
    compare_up_to_scale,
    compile_generator,
    reproduce_paper,
    verify_compiled,
)


def test_compare_up_to_scale_exact_multiple():
    rng = np.random.default_rng(2)
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    a = (0.25 - 1.5j) * b
    residual, scale = compare_up_to_scale(a, b)
    assert residual < 1e-15
    assert scale == pytest.approx(0.25 - 1.5j)


def test_compare_up_to_scale_orthogonal():
    a = np.diag([1.0, 0.0]).astype(complex)
    b = np.diag([0.0, 1.0]).astype(complex)
    residual, scale = compare_up_to_scale(a, b)
    assert scale == 0.0
    assert residual == pytest.approx(1.0)


def test_compare_up_to_scale_edge_cases():
    residual, scale = compare_up_to_scale(np.zeros((2, 2)), np.eye(2))
    assert residual == 0.0 and scale == 0j
    with pytest.raises(ValueError):
        compare_up_to_scale(np.eye(2), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        compare_up_to_scale(np.eye(2), np.eye(4))


def test_compare_is_least_squares():
    # perturb and check the fit beats any nearby scale
    rng = np.random.default_rng(4)
    b = rng.normal(size=(3, 3))
    a = 2.0 * b + 0.01 * rng.normal(size=(3, 3))
    residual, scale = compare_up_to_scale(a, b)
    norm_a = np.linalg.norm(a)
    for delta in (0.05, -0.05, 0.02j):
        worse = np.linalg.norm(a - (scale + delta) * b) / norm_a
        assert worse > residual


def test_axiom_suite_su3_both_conventions():
    for convention in PhaseConvention:
        spec = FrobeniusSpec.su3(3, beta=1.0, convention=convention)
        for name, deviation in axiom_suite(spec):
            assert deviation <= AXIOM_TOLERANCE, (convention, name, deviation)


def test_axiom_suite_names():
    spec = FrobeniusSpec.su3(3, beta=1.0)
    names = [name for name, _ in axiom_suite(spec)]
    assert names == [
        "commutativity",
        "cocommutativity",
        "associativity",
        "coassociativity",
        "frobenius_relation",
        "counit_law",
        "unit_with_area",
        "area_additivity",
    ]


def test_axiom_suite_random_table():
    rng = np.random.default_rng(6)
    entries = tuple(
        RepEntry(f"R{k}", float(rng.uniform(0, 4)), int(rng.integers(1, 9)))
        for k in range(5)
    )
    table = RepTable(entries)
    spec = FrobeniusSpec(table, default_encoding(table), beta=0.8)
    for name, deviation in axiom_suite(spec):
        assert deviation <= AXIOM_TOLERANCE, (name, deviation)


def test_axiom_suite_detects_corruption():
    spec = FrobeniusSpec.su3(3, beta=1.0)
    base = logical_form("mu", spec).matrix
    # a flipped weight appears on both sides of the purely algebraic
    # identities, so only the area-matching check can see it
    flipped = base.copy()
    flipped[1, 5] *= -1.0
    results = dict(axiom_suite(spec, overrides={"mu": DenseOperator(flipped)}))
    assert results["unit_with_area"] > 1e-3
    assert results["cocommutativity"] <= AXIOM_TOLERANCE
    # coupling mismatched irreps breaks the structural identities too
    coupled = base.copy()
    coupled[1, 6] = 0.2
    results = dict(axiom_suite(spec, overrides={"mu": DenseOperator(coupled)}))
    assert results["commutativity"] > 1e-3
    assert results["frobenius_relation"] > 1e-3


def _kron_axiom_suite(spec, overrides):
    """The identities as the logical forms padded with identities: each
    side a product of np.kron chains, and the swap a d^2 x d^2 permutation
    matrix.  An oracle for axiom_suite's contraction of circle axes."""

    def gen(tag, beta=None):
        if beta is None and tag in overrides:
            return overrides[tag].matrix
        return logical_form(tag, spec, beta).matrix

    d = 2**spec.encoding.bits_per_circle
    eye = np.eye(d, dtype=complex)
    swap = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            swap[i * d + j, j * d + i] = 1.0
    sector = gen("cylinder", 0.0)
    mu, delta, eps = gen("mu"), gen("delta"), gen("eps")
    beta = spec.beta
    beta_extra = 0.5 * beta + 0.25
    eta_extra = gen("eta", beta_extra)
    tube = gen("cylinder", beta + beta_extra)
    beta1, beta2 = 0.3 * beta + 0.2, 0.7 * beta + 0.05
    pairs = {
        "commutativity": [(mu @ swap, mu)],
        "cocommutativity": [(swap @ delta, delta)],
        "associativity": [(mu @ np.kron(mu, eye), mu @ np.kron(eye, mu))],
        "coassociativity": [(np.kron(delta, eye) @ delta, np.kron(eye, delta) @ delta)],
        "frobenius_relation": [(np.kron(eye, mu) @ np.kron(delta, eye), delta @ mu),
                               (np.kron(mu, eye) @ np.kron(eye, delta), delta @ mu)],
        "counit_law": [(np.kron(eps, eye) @ delta, sector), (np.kron(eye, eps) @ delta, sector)],
        "unit_with_area": [(mu @ np.kron(eta_extra, eye), tube),
                           (mu @ np.kron(eye, eta_extra), tube)],
        "area_additivity": [
            (gen("cylinder", beta1) @ gen("cylinder", beta2), gen("cylinder", beta1 + beta2)),
            (eps @ gen("eta", beta1 + beta2), eps @ gen("cylinder", beta2) @ gen("eta", beta1)),
        ],
    }
    return [(name, max(float(np.max(np.abs(x - y))) for x, y in sides))
            for name, sides in pairs.items()]


@pytest.mark.parametrize("truncation, bits", [(1, 1), (3, 2), (7, 3)])
@pytest.mark.parametrize("convention", list(PhaseConvention))
def test_axiom_suite_matches_kron_oracle(truncation, bits, convention):
    # random complex generators are no algebra, so no identity that uses mu,
    # delta or eps cancels and each deviation is an O(1) number both
    # formulations must agree on; area additivity applies eps to both sides
    # of a cylinder gluing, so it stays at rounding level
    spec = FrobeniusSpec.su3(truncation, beta=0.6, convention=convention)
    assert spec.encoding.bits_per_circle == bits
    d = 2**bits
    rng = np.random.default_rng(100 * truncation + bits)
    shapes = {"mu": (d, d * d), "delta": (d * d, d), "eps": (1, d)}
    overrides = {tag: DenseOperator(rng.normal(size=shape) + 1j * rng.normal(size=shape))
                 for tag, shape in shapes.items()}
    got = axiom_suite(spec, overrides)
    want = _kron_axiom_suite(spec, overrides)
    assert [name for name, _ in got] == [name for name, _ in want]
    for (name, value), (_, reference) in zip(got, want):
        if name == "area_additivity":
            assert max(value, reference) <= AXIOM_TOLERANCE
            continue
        assert reference > 1e-3, name
        assert value == pytest.approx(reference, rel=1e-12, abs=0.0), name


def test_axiom_suite_five_bit_circles():
    for convention in PhaseConvention:
        spec = FrobeniusSpec.su3(16, beta=1.0, convention=convention)
        assert spec.encoding.bits_per_circle == 5
        results = dict(axiom_suite(spec))
        # the sphere half of area additivity is an absolute difference of two
        # amplitudes as large as sum d_R^2 = 4900; under the literal
        # convention it is 2.7e-12, rounding relative to that size
        sphere_scale = sum(entry.dim**2 for entry in spec.table)
        assert results.pop("area_additivity") <= AXIOM_TOLERANCE * sphere_scale
        for name, deviation in results.items():
            assert deviation <= AXIOM_TOLERANCE, (convention, name, deviation)


def test_verify_compiled_report():
    spec = FrobeniusSpec.su3(3, beta=1.0)
    target = build_mu(spec)
    circuit, report = compile_exact(target)
    vr = verify_compiled(circuit, target, "mu", "exact", axiom_suite(spec))
    assert vr.target_name == "mu"
    assert vr.relative_residual <= RESIDUAL_TOLERANCE
    # fitted scale is 1/s for an exact-mode circuit
    assert vr.fitted_scale == pytest.approx(1.0 / report.nominal_scale.real, abs=1e-12)
    assert 0.0 <= vr.min_success_probability <= vr.max_success_probability <= 1.0
    assert len(vr.axiom_results) == 8


def test_verify_compiled_refuses_a_zero_block():
    """A circuit whose only ancilla is post-selected on 1 and never flipped
    has an all-zero block.  The least-squares fit would match it to any
    target with scale 0 and residual 0; verification reports residual 1,
    the target's relative distance from zero, so no caller takes it for a
    match."""
    circuit = Circuit((0,), (1,), (Gate("h", 0),), ((1, 1),))
    vr = verify_compiled(circuit, np.eye(2), "identity", "exact")
    assert vr.relative_residual == 1.0 > RESIDUAL_TOLERANCE
    assert vr.max_success_probability == 0.0
    # the fit itself keeps its documented answer for a zero block
    assert compare_up_to_scale(np.zeros((2, 2)), np.eye(2)) == (0.0, 0j)


def test_verify_report_to_dict():
    vr = VerifyReport("mu", "exact", 1e-16, 0.6 + 0.1j, 0.0, 0.36,
                      (("commutativity", 0.0),))
    assert vr.to_dict() == {
        "target_name": "mu",
        "mode": "exact",
        "relative_residual": 1e-16,
        "fitted_scale": [0.6, 0.1],
        "min_success_probability": 0.0,
        "max_success_probability": 0.36,
        "axiom_results": [["commutativity", 0.0]],
    }


def test_verification_error_names_check():
    err = VerificationError("angle:mu:theta1", "off by 0.1")
    assert err.check == "angle:mu:theta1"
    assert "angle:mu:theta1" in str(err)
    assert isinstance(err, AssertionError)


def test_reference_angle_names_match_reports():
    spec = FrobeniusSpec.su3(3, beta=1.0)
    for op_name, reference in REFERENCE_ANGLES.items():
        _, report = compile_paper(op_name, spec)
        assert {name for name, _ in report.angles} == set(reference)


def test_reproduce_bundle_literal():
    bundle = reproduce_paper(PhaseConvention.PAPER_LITERAL)
    assert bundle["angles_asserted"] is True
    assert bundle["convention"] == "paper_literal"
    assert set(bundle["reports"]) == {"mu", "delta", "eta", "eps"}
    for op_name, doc in bundle["reports"].items():
        assert doc["exact"]["relative_residual"] <= RESIDUAL_TOLERANCE
        assert doc["paper"]["relative_residual"] <= RESIDUAL_TOLERANCE
    for row in bundle["angles"]:
        if row["reference"] is not None:
            assert abs(row["computed"] - row["reference"]) <= ANGLE_TOLERANCE


def test_reproduce_bundle_euclidean_not_asserted():
    bundle = reproduce_paper(PhaseConvention.EUCLIDEAN)
    assert bundle["angles_asserted"] is False
    # residual checks still run and pass under the real weight
    for doc in bundle["reports"].values():
        assert doc["exact"]["relative_residual"] <= RESIDUAL_TOLERANCE
    # every template phase is zero for real positive coefficients
    angles = {(r["op"], r["name"]): r["computed"] for r in bundle["angles"]}
    assert angles[("eta", "theta5")] == pytest.approx(0.0)


def test_reproduce_form_residuals_positive():
    bundle = reproduce_paper(PhaseConvention.PAPER_LITERAL)
    for op_name, residuals in bundle["paper_form_residuals"].items():
        assert residuals["raw"] > 0.1
        assert residuals["up_to_scale"] > 0.1
        assert residuals["up_to_scale"] <= residuals["raw"]


def test_compile_generator_modes():
    spec = FrobeniusSpec.su3(3, beta=1.0)
    circuit, report, target, name = compile_generator("eta", spec, "exact")
    assert name == "eta"
    assert np.array_equal(target.matrix, build_eta(spec).matrix)
    assert report == compile_exact(target)[1]
    circuit, report, target, name = compile_generator("eta", spec, "paper")
    assert name == "eta_factored_form"
    # the product form comes back unexpanded
    assert isinstance(target, FactoredOperator)
    assert report == compile_paper("eta", spec)[1]
    with pytest.raises(ValueError, match="paper mode"):
        compile_generator("cylinder", spec, "paper")
    with pytest.raises(ValueError, match="unknown compile mode 'structured'"):
        compile_generator("eta", spec, "structured")


def test_verify_compiled_expands_a_product_form():
    spec = FrobeniusSpec.su3(3, beta=1.0)
    circuit, _report = compile_paper("mu", spec)
    form = paper_factored_form("mu", spec)
    given_form = verify_compiled(circuit, form, "mu_factored_form", "paper")
    given_matrix = verify_compiled(circuit, form.matrix(), "mu_factored_form", "paper")
    assert given_form == given_matrix
    assert given_form.relative_residual <= RESIDUAL_TOLERANCE


def _inflate_paper_mode(monkeypatch):
    checked = verify.verify_compiled

    def inflated(circuit, target, target_name, mode, axiom_results=()):
        report = checked(circuit, target, target_name, mode, axiom_results)
        return replace(report, relative_residual=1.0) if mode == "paper" else report

    monkeypatch.setattr(verify, "verify_compiled", inflated)


def _move_theta1(monkeypatch):
    angles = {op: dict(reference) for op, reference in REFERENCE_ANGLES.items()}
    angles["mu"]["theta1"] += 0.01
    monkeypatch.setattr(verify, "REFERENCE_ANGLES", angles)


@pytest.mark.parametrize("check, corrupt", [
    ("axiom:commutativity", lambda mp: mp.setattr(verify, "AXIOM_TOLERANCE", -1.0)),
    ("exact-residual:mu", lambda mp: mp.setattr(verify, "RESIDUAL_TOLERANCE", -1.0)),
    ("paper-residual:mu", _inflate_paper_mode),
    ("angle:mu:theta1", _move_theta1),
])
def test_reproduce_paper_names_the_failed_check(monkeypatch, check, corrupt):
    corrupt(monkeypatch)
    with pytest.raises(VerificationError) as failure:
        reproduce_paper(PhaseConvention.PAPER_LITERAL)
    assert failure.value.check == check
