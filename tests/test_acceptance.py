"""Acceptance suite: one test per criterion, tolerances pinned inline.

Each test prints a single `ACCEPTANCE <n> <name>: PASS` line on success
(visible under pytest -s); with -v the per-test PASSED/FAILED line serves
the same purpose.  Expected numbers are either re-derived in the test from
first principles or frozen golden values recorded on the first verified
run and regression-checked since.
"""

import cmath
import hashlib
import io
import json
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from cqs import cli
from cqs.duality_compiler import compile_exact, compile_paper, emit_text, prep_tree
from cqs.encoding import default_encoding
from cqs.frobenius import (
    FrobeniusSpec,
    PhaseConvention,
    build_delta,
    build_epsilon,
    build_eta,
    build_mu,
)
from cqs.pauli import factorization_residual, pauli_expand, pauli_reconstruct
from cqs.reptheory import RepEntry, RepTable, casimir_su3, dim_su3
from cqs.statevector import effective_operator
from cqs.verify import axiom_suite, compare_up_to_scale
from cqs.duality_compiler import paper_factored_form

RESIDUAL_TOL = 1e-10
ENTRY_TOL = 1e-12
ANGLE_TOL = 5e-3
AXIOM_TOL = 1e-12
ROUNDTRIP_TOL = 1e-12

W = cmath.exp(-16j / 3)


def _spec():
    return FrobeniusSpec.su3(3, beta=1.0, convention=PhaseConvention.PAPER_LITERAL)


def test_criterion_1_su3_table():
    """Casimir and dimension values, exact rational arithmetic."""
    assert casimir_su3(0, 0) == Fraction(0)
    assert casimir_su3(1, 0) == Fraction(16, 3)
    assert casimir_su3(0, 1) == Fraction(16, 3)
    assert dim_su3(0, 0) == 1
    assert dim_su3(1, 0) == 3
    assert dim_su3(0, 1) == 3
    print("ACCEPTANCE 1 su3-table: PASS")


def test_criterion_2_operator_construction():
    """Padded generators at beta = 1 match the printed ket-bra expansions
    entrywise to 1e-12."""
    spec = _spec()
    mu = np.zeros((16, 16), dtype=complex)
    mu[0b1100, 0b1111] = 1.0
    mu[0b1000, 0b1010] = W / 3
    mu[0b0100, 0b0101] = W / 3
    delta = np.zeros((16, 16), dtype=complex)
    delta[0b1111, 0b1100] = 1.0
    delta[0b1010, 0b1000] = 1 / 3
    delta[0b0101, 0b0100] = 1 / 3
    eta = np.zeros((4, 4), dtype=complex)
    eta[0b11, 0b00] = 1.0
    eta[0b10, 0b00] = 3 * W
    eta[0b01, 0b00] = 3 * W
    eps = np.zeros((4, 4), dtype=complex)
    eps[0b00, 0b11] = 1.0
    eps[0b00, 0b10] = 3.0
    eps[0b00, 0b01] = 3.0
    for build, expected in ((build_mu, mu), (build_delta, delta),
                            (build_eta, eta), (build_epsilon, eps)):
        assert np.max(np.abs(build(spec).matrix - expected)) <= ENTRY_TOL, build
    print("ACCEPTANCE 2 operator-construction: PASS")


# printed two-decimal angle values next to each circuit template
PRINTED = {
    "mu": {"theta1": 1.37, "theta2": math.pi / 3, "theta3": 2.21, "theta4": 0.93,
           "w_top_q2": math.pi / 2, "w_top_q3": math.pi / 2},
    "delta": {"theta1": 1.32, "theta2": math.pi / 3, "theta3": 2.21, "theta4": 0.93,
              "w_top_q2": math.pi / 2, "w_top_q3": math.pi / 2},
    "eta": {"theta1": 1.77, "theta2": 1.37, "theta3": 2.21, "theta4": 0.93,
            "w_top_q0": math.pi / 2, "w_top_q1": math.pi / 2},
    "eps": {"theta1": 1.85, "theta2": 1.29, "theta3": 2.21, "theta4": 0.93,
            "w_top_q0": math.pi / 2, "w_top_q1": math.pi / 2},
}


def test_criterion_3_angle_reproduction():
    """Every printed rotation angle comes out of the prep_tree angles
    within 0.005 rad."""
    spec = _spec()
    for op_name, printed in PRINTED.items():
        _, report = compile_paper(op_name, spec)
        computed = dict(report.angles)
        for name, value in printed.items():
            assert abs(computed[name] - value) <= ANGLE_TOL, (op_name, name, computed[name])
    # the two shared angles hit their closed forms exactly
    assert dict(prep_tree((1.5, 0.5), (0,))[1])["prep_l0_p0"] == pytest.approx(
        math.pi / 3, abs=1e-15)
    c = np.array([0.5, 1.0, 1.0, 0.5]) / math.sqrt(2.5)
    angles = dict(prep_tree(c * c, (0, 1))[1])
    assert angles["prep_l0_p0"] == pytest.approx(math.pi / 2, abs=1e-12)
    assert angles["prep_l1_p0"] == pytest.approx(2.21, abs=ANGLE_TOL)
    assert angles["prep_l1_p1"] == pytest.approx(0.93, abs=ANGLE_TOL)
    print("ACCEPTANCE 3 angle-reproduction: PASS")


def test_criterion_4_exact_mode_end_to_end():
    """compile_exact round trip: effective block vs target, residual 1e-10."""
    spec = _spec()
    for build in (build_mu, build_delta, build_eta, build_epsilon):
        target = build(spec)
        circuit, report = compile_exact(target)
        effective = effective_operator(circuit)
        residual, scale = compare_up_to_scale(effective.matrix, target.matrix)
        assert residual <= RESIDUAL_TOL, (build, residual)
        assert scale.real == pytest.approx(1.0 / report.nominal_scale.real, abs=1e-9)
    print("ACCEPTANCE 4 exact-mode: PASS")


# golden form-vs-operator residuals, frozen from the first verified run
GOLDEN_FORM_RESIDUALS = {
    "mu": (1.5688776084841927, 0.7293499156816772),
    "delta": (1.5495600548660138, 0.7078173123014037),
    "eta": (0.7285917978932687, 0.6697982993394941),
    "eps": (0.7035513932823535, 0.6260990336999411),
}

_BUILDERS = {"mu": build_mu, "delta": build_delta, "eta": build_eta, "eps": build_epsilon}


def test_criterion_5_paper_mode_fidelity():
    """Paper-mode circuits reproduce the factored form to 1e-10; the form's
    distance to the true operator is positive and matches the golden values."""
    spec = _spec()
    for op_name, (golden_raw, golden_fitted) in GOLDEN_FORM_RESIDUALS.items():
        form = paper_factored_form(op_name, spec)
        circuit, report = compile_paper(op_name, spec)
        effective = effective_operator(circuit)
        residual, scale = compare_up_to_scale(effective.matrix, form.matrix())
        assert residual <= RESIDUAL_TOL, (op_name, residual)
        assert scale.real == pytest.approx(1.0 / report.nominal_scale.real, abs=1e-9)
        target = _BUILDERS[op_name](spec)
        raw = factorization_residual(form, target)
        fitted, _ = compare_up_to_scale(form.matrix(), target.matrix)
        assert raw > 0.0 and fitted > 0.0
        assert raw == pytest.approx(golden_raw, abs=1e-9), op_name
        assert fitted == pytest.approx(golden_fitted, abs=1e-9), op_name
    print("ACCEPTANCE 5 paper-mode-fidelity: PASS")


def test_criterion_6_axiom_suite():
    """All eight identities to 1e-12: SU(3) under both conventions plus 20
    random tables of size at most 6."""
    for convention in PhaseConvention:
        spec = FrobeniusSpec.su3(3, beta=1.0, convention=convention)
        for name, deviation in axiom_suite(spec):
            assert deviation <= AXIOM_TOL, (convention, name, deviation)
    rng = np.random.default_rng(2026)
    conventions = list(PhaseConvention)
    for trial in range(20):
        size = int(rng.integers(1, 7))
        entries = tuple(
            RepEntry(f"R{k}", float(rng.uniform(0.0, 5.0)), int(rng.integers(1, 10)))
            for k in range(size)
        )
        table = RepTable(entries)
        spec = FrobeniusSpec(
            table,
            default_encoding(table),
            beta=float(rng.uniform(0.0, 2.0)),
            convention=conventions[trial % 2],
        )
        for name, deviation in axiom_suite(spec):
            assert deviation <= AXIOM_TOL, (trial, name, deviation)
    print("ACCEPTANCE 6 axiom-suite: PASS")


def test_criterion_7_pauli_roundtrip():
    """Expand/reconstruct to 1e-12 on 100 random operators, and the exact
    projector and ladder expansions."""
    rng = np.random.default_rng(777)
    for trial in range(100):
        n = int(rng.integers(1, 5))
        dim = 2**n
        mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        back = pauli_reconstruct(pauli_expand(mat), n)
        assert np.max(np.abs(back - mat)) <= ROUNDTRIP_TOL, trial

    assert pauli_expand(np.array([[1, 0], [0, 0]])) == {"I": 0.5, "Z": 0.5}
    assert pauli_expand(np.array([[0, 0], [0, 1]])) == {"I": 0.5, "Z": -0.5}
    assert pauli_expand(np.array([[0, 1], [0, 0]])) == {"X": 0.5, "Y": 0.5j}
    assert pauli_expand(np.array([[0, 0], [1, 0]])) == {"X": 0.5, "Y": -0.5j}
    print("ACCEPTANCE 7 pauli-roundtrip: PASS")


def test_criterion_8_lcu_property_suite():
    """100 random operators on 1 to 3 qubits compile and verify; success
    probabilities always land in [0, 1]."""
    rng = np.random.default_rng(88)
    for trial in range(100):
        n = int(rng.integers(1, 4))
        dim = 2**n
        mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        circuit, _report = compile_exact(mat)
        effective = effective_operator(circuit)
        residual, _scale = compare_up_to_scale(effective.matrix, mat)
        assert residual <= RESIDUAL_TOL, (trial, residual)
        for probability in effective.success_probabilities.values():
            assert 0.0 <= probability <= 1.0
    print("ACCEPTANCE 8 lcu-property-suite: PASS")


def test_criterion_9_reproduction_determinism(tmp_path, capsys):
    """Two reproduction runs through the command line are byte-identical."""
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    assert cli.main(["reproduce-paper", "--out", str(first)]) == 0
    assert cli.main(["reproduce-paper", "--out", str(second)]) == 0
    blob = first.read_bytes()
    assert blob == second.read_bytes()
    assert len(blob) > 1000
    doc = json.loads(blob)
    assert doc["angles_asserted"] is True
    print("ACCEPTANCE 9 determinism: PASS")


# stdout sha256 of these commands; any change to the statevector kernels,
# compilers, JSON output or emit text that moves a last bit changes one of
# them.  The su3(7) mu circuit is the 3054-gate path with 9-control gates.
PINNED_STDOUT_SHA256 = {
    "reproduce-paper --convention paper":
        "5a658f64ecba6fbe82e93a852c41eeaa51d86f0d8e96c32b5551b63225d5ffbf",
    "reproduce-paper --convention euclidean":
        "7d1c6eed56192424dbbeab4c2c214b19988616ca50f52aa61380167982ca2be8",
    "compile --op eta --mode exact | simulate --effective":
        "010308d10da490a80a374cfd17bf67dfb7f23288405c41b4aaa0bd80e2875f63",
    "compile --op mu --truncate 7":
        "bd4c2b0edf8a58d8716e2f04b0fab34378ce1023f7f6401f408a3763d5baacd8",
    "compile --op mu --truncate 7 | emit":
        "c4b7da864057a7e0af64a308a8ecc46fe3d11a3638575262f31495bb657a9cbc",
    # the su3(7) mu block, 2**15 rows x 64 columns, runs one ancilla window
    # at a time
    "compile --op mu --truncate 7 | simulate --effective":
        "9b7d3312419d8bcc391cdd696fb7ff479a646380274e29d19d29f6abce77729d",
    "compile --op mu --truncate 7 | simulate --in 111111":
        "1727f5d7898649b652898d844168fcb0b96affcd4d25430fa9a122a4f6a655fd",
    "compile --op eta --mode paper --truncate 7 | simulate --in 000":
        "66d9fd3d1c9b0d22ad6e8d054a76bfbf8858b16ea909d514e47e99816f1305ba",
    "compile --op mu --mode paper --truncate 15 | emit":
        "ca941ddd5079895794c9859b309616a8bba9fbe89eac12cb6aa583960b5bd925",
    # the largest exact circuit, 30910 gates: the JSON writer, the document
    # loader and emit_text on every kind of shared control list
    "compile --op mu --truncate 15":
        "1207d4f87ba68970a7ee66ceb4651185b345b82d443fbb53e385cd6af8c3407a",
    "compile --op mu --truncate 15 | emit":
        "30f574dc6c05e227a714e6aabde4a4895be680a102f044c1f6525612da4cf6fc",
}


def test_stdout_bytes_are_pinned(capsys, monkeypatch):
    """Byte stability: the bundles, a simulated block and large circuits
    with their emit text hash as recorded."""
    got = {}
    for command in PINNED_STDOUT_SHA256:
        stdin_text = ""
        for stage in command.split(" | "):
            monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
            assert cli.main(stage.split()) == 0
            stdin_text = capsys.readouterr().out
        got[command] = hashlib.sha256(stdin_text.encode()).hexdigest()
    assert got == PINNED_STDOUT_SHA256


def test_emit_text_in_process_matches_pinned_emit():
    """`emit_text` of the su3(15) mu circuit, compiled in process, gives
    the pinned bytes of the CLI pipeline that writes the circuit document,
    reads it back and emits it: the compiler's unchecked gates render as
    the document loader's checked ones."""
    circuit, _ = compile_exact(build_mu(FrobeniusSpec.su3(15)))
    got = hashlib.sha256(emit_text(circuit).encode()).hexdigest()
    assert got == PINNED_STDOUT_SHA256["compile --op mu --truncate 15 | emit"]
