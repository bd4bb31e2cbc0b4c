"""Statevector engine: gate application, post-selected runs, cup and cap.

Single gates, as the effective operator of a one-gate circuit, are checked
against a brute-force oracle that walks every basis state and applies the
control/target logic by bit inspection; whole random circuits are checked
against a dense Kronecker-product unitary built from this file's own 2x2
matrices, and `run` against a full-register run that simulates every gate.
"""

import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqs import statevector
from cqs.duality_compiler import Circuit, Gate, compile_exact, compile_paper, prep_tree
from cqs.duality_compiler import _Controls
from cqs.frobenius import FrobeniusSpec, build_eta, build_mu
from cqs.statevector import (
    MAX_QUBITS,
    cap,
    cup,
    effective_operator,
    run,
)


def dense_gate_oracle(gate, n):
    """Full 2^n matrix of a controlled single-qubit gate, built state by state."""
    u = gate.matrix2()
    dim = 2**n
    full = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        bits = format(col, f"0{n}b")
        if all(int(bits[q]) == s for q, s in gate.controls):
            t = gate.target
            for val in (0, 1):
                amp = u[val, int(bits[t])]
                if amp != 0:
                    row_bits = bits[:t] + str(val) + bits[t + 1 :]
                    full[int(row_bits, 2), col] += amp
        else:
            full[col, col] = 1.0
    return full


def basis(bits):
    """Basis-state amplitude vector of a bitstring (qubit 0 leftmost)."""
    vec = np.zeros(2 ** len(bits), dtype=complex)
    vec[int(bits, 2)] = 1.0
    return vec


def full_register_run(circuit, vector):
    """Post-selected work vector from simulating every gate on the whole
    register, each through its own `_simulate` call, so that no run, level,
    prefix or retirement is shared: `vector` on the work qubits (or one
    work vector per column of a matrix) and |0> on the ancillas.  The
    reference that `run` and `effective_operator` must match bit for bit."""
    dim_work = 2 ** len(circuit.work_qubits)
    vectors = np.asarray(vector, dtype=complex).reshape(dim_work, -1)
    block = np.zeros((2 ** len(circuit.ancilla_qubits) * dim_work, vectors.shape[1]),
                     dtype=complex)
    block[:dim_work] = vectors
    position = statevector._register_positions(circuit)
    for gate in circuit.gates:
        statevector._simulate((gate,), block, position)
    kept = statevector._postselect_mask(circuit) * dim_work
    return block[kept : kept + dim_work].reshape(np.shape(vector))


def test_statevector_validation():
    """cup and cap take a vector of length 2**n, n <= MAX_QUBITS."""
    for op in (cup, cap):
        for bad in (np.zeros(3), np.zeros(6), np.zeros(0), np.zeros((2, 2)), 1.0):
            with pytest.raises(ValueError, match="length 2"):
                op(bad, 0, 1)
        # beyond the qubit budget; a broadcast view allocates nothing
        too_long = np.broadcast_to(np.complex128(0), (2 ** (MAX_QUBITS + 1),))
        with pytest.raises(ValueError, match=f"exceeds {MAX_QUBITS} qubits"):
            op(too_long, 0, 1)
    # array-likes of any numeric dtype are accepted
    out, _ = cup([1, 0, 0, 0], 0, 1)
    assert out.dtype == complex and out.shape == (4,)
    reduced, weight = cap(np.array([1.0, 0.0, 0.0, 1.0]), 0, 1)
    assert reduced.dtype == complex and reduced.shape == (1,)
    assert weight == pytest.approx(2.0)
    # the input vector is never written
    vec = basis("100")
    cup(vec, 1, 2)
    cap(vec, 0, 2)
    assert np.array_equal(vec, basis("100"))


def test_single_gate_against_oracle():
    rng = np.random.default_rng(17)
    kinds = [
        ("ry", 1), ("rz", 1), ("phase", 1), ("x", 0), ("y", 0), ("z", 0), ("h", 0),
    ]
    for _ in range(40):
        n = int(rng.integers(2, 5))
        kind, n_params = kinds[rng.integers(len(kinds))]
        target = int(rng.integers(n))
        controls = []
        for q in range(n):
            if q != target and rng.random() < 0.4:
                controls.append((q, int(rng.integers(2))))
        params = tuple(rng.uniform(-math.pi, math.pi, size=n_params))
        gate = Gate(kind, target, params, tuple(controls))
        got = effective_operator(Circuit(tuple(range(n)), (), (gate,), ())).matrix
        assert np.max(np.abs(got - dense_gate_oracle(gate, n))) < 1e-12


def test_apply_gate_out_of_range():
    """A gate on a qubit outside the register never reaches the simulator."""
    with pytest.raises(ValueError, match="undeclared qubit 2"):
        run(Circuit((0, 1), (), (Gate("x", 2),), ()), "00")
    with pytest.raises(ValueError, match="undeclared qubit 5"):
        run(Circuit((0, 1), (), (Gate("x", 0, (), ((5, 1),)),), ()), "00")


def test_unitary_circuit_preserves_norm():
    circuit = Circuit((0, 1), (), (Gate("h", 0), Gate("x", 1, (), ((0, 1),))), ())
    vec, probability = run(circuit, "00")
    assert probability == pytest.approx(1.0)
    # Bell state on the work register
    assert np.allclose(vec, [1 / math.sqrt(2), 0, 0, 1 / math.sqrt(2)])


def test_postselection_probability():
    # H on the ancilla then keep 0: effective operator I / sqrt(2)
    circuit = Circuit((0,), (1,), (Gate("h", 1),), ((1, 0),))
    vec, probability = run(circuit, "1")
    assert probability == pytest.approx(0.5)
    assert np.allclose(vec, [0, 1 / math.sqrt(2)])
    effective = effective_operator(circuit)
    assert np.allclose(effective.matrix, np.eye(2) / math.sqrt(2))
    assert effective.success_probabilities == {
        "0": pytest.approx(0.5),
        "1": pytest.approx(0.5),
    }


def test_postselect_one_branch():
    # X on the ancilla, then require 0: nothing survives
    circuit = Circuit((0,), (1,), (Gate("x", 1),), ((1, 0),))
    vec, probability = run(circuit, "0")
    assert probability == 0.0
    assert np.max(np.abs(vec)) == 0.0


def test_effective_operator_is_linear():
    """The block maps a superposition as a full-register run of it does."""
    spec = FrobeniusSpec.su3(3, beta=1.0)
    circuit, _ = compile_exact(build_eta(spec))
    effective = effective_operator(circuit)
    rng = np.random.default_rng(23)
    vec = rng.normal(size=4) + 1j * rng.normal(size=4)
    vec /= np.linalg.norm(vec)
    out = full_register_run(circuit, vec)
    assert np.max(np.abs(out - effective.matrix @ vec)) < 1e-12


def test_effective_matches_basis_runs():
    spec = FrobeniusSpec.su3(3, beta=1.0)
    circuit, _ = compile_paper("eta", spec)
    effective = effective_operator(circuit)
    for j in range(4):
        bits = format(j, "02b")
        column, probability = run(circuit, bits)
        assert np.max(np.abs(column - effective.matrix[:, j])) < 1e-14
        assert effective.success_probabilities[bits] == pytest.approx(probability)


def test_run_input_validation():
    circuit = Circuit((0,), (1,), (Gate("h", 1),), ((1, 0),))
    with pytest.raises(ValueError):
        run(circuit, "00")
    with pytest.raises(ValueError):
        run(circuit, "2")


def test_unpostselected_ancilla_rejected():
    circuit = Circuit((0,), (1,), (Gate("h", 1),), ())
    with pytest.raises(ValueError):
        run(circuit, "0")
    with pytest.raises(ValueError):
        effective_operator(circuit)


def test_qubit_budget():
    too_many = Circuit(tuple(range(MAX_QUBITS - 1)), (30, 31), (),
                       ((30, 0), (31, 0)))
    with pytest.raises(ValueError):
        run(too_many, "0" * (MAX_QUBITS - 1))


def test_cup_writes_bell_pair():
    state, scale = cup(basis("100"), 1, 2)
    assert scale == pytest.approx(math.sqrt(2))
    want = np.zeros(8, dtype=complex)
    want[0b100] = 1 / math.sqrt(2)
    want[0b111] = 1 / math.sqrt(2)
    assert np.allclose(state, want)
    # pair qubits given out of order and apart
    state, _ = cup(basis("0100"), 3, 0)
    assert np.flatnonzero(state).tolist() == [0b0100, 0b1101]


def test_cup_requires_fresh_qubits():
    with pytest.raises(ValueError, match="fresh"):
        cup(basis("01"), 0, 1)
    with pytest.raises(ValueError, match="distinct"):
        cup(basis("00"), 0, 0)
    with pytest.raises(ValueError, match="in-range"):
        cup(basis("00"), 0, 5)


def test_cap_projection_weight():
    rng = np.random.default_rng(29)
    vec = rng.normal(size=8) + 1j * rng.normal(size=8)
    vec /= np.linalg.norm(vec)
    reduced, weight = cap(vec, 0, 2)
    # direct projection: qubit 1 survives; (q0, q2) projected on the pair
    want = np.zeros(2, dtype=complex)
    for q1_bit in range(2):
        want[q1_bit] = (vec[int(f"0{q1_bit}0", 2)] + vec[int(f"1{q1_bit}1", 2)]) / math.sqrt(2)
    assert np.allclose(reduced, want)
    assert weight == pytest.approx(float(np.sum(np.abs(want) ** 2)))


def test_cap_every_pair_against_bit_oracle():
    rng = np.random.default_rng(37)
    for n in range(2, 6):
        vec = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        for q1 in range(n):
            for q2 in range(n):
                if q1 == q2:
                    continue
                keep = [q for q in range(n) if q not in (q1, q2)]
                want = np.zeros(2 ** len(keep), dtype=complex)
                for idx in range(2**n):
                    bits = format(idx, f"0{n}b")
                    if bits[q1] == bits[q2]:
                        reduced_idx = int("".join(bits[q] for q in keep) or "0", 2)
                        want[reduced_idx] += vec[idx] / math.sqrt(2)
                reduced, weight = cap(vec, q1, q2)
                assert reduced.shape == (2 ** (n - 2),)
                assert np.allclose(reduced, want, atol=1e-14)
                assert weight == pytest.approx(float(np.sum(np.abs(want) ** 2)))


def test_snake_identity():
    # bend a wire: cup on fresh (1, 2), then cap on (0, 1) moves the state
    # to qubit 2 at half amplitude (the two normalized halves of the pair)
    rng = np.random.default_rng(31)
    psi = rng.normal(size=2) + 1j * rng.normal(size=2)
    psi /= np.linalg.norm(psi)
    start = np.kron(psi, [1, 0, 0, 0]).astype(complex)
    bent, cup_scale = cup(start, 1, 2)
    final, weight = cap(bent, 0, 1)
    assert np.allclose(final, psi / 2)
    assert cup_scale * math.sqrt(2) == pytest.approx(2.0)  # undoes the 1/2
    assert weight == pytest.approx(0.25)


def test_cap_orthogonal_branch():
    reduced, weight = cap(basis("01"), 0, 1)
    assert weight == 0.0
    assert reduced.shape == (1,)


def oracle_matrix2(kind, params):
    """The 2x2 target matrix of each gate kind, written out independently
    of Gate.matrix2."""
    if kind == "ry":
        c, s = math.cos(params[0] / 2), math.sin(params[0] / 2)
        return np.array([[c, -s], [s, c]], dtype=complex)
    if kind == "rz":
        return np.diag([cmath.exp(-0.5j * params[0]), cmath.exp(0.5j * params[0])])
    if kind == "phase":
        return cmath.exp(1j * params[0]) * np.eye(2)
    fixed = {
        "x": [[0, 1], [1, 0]],
        "y": [[0, -1j], [1j, 0]],
        "z": [[1, 0], [0, -1]],
        "h": [[1 / math.sqrt(2), 1 / math.sqrt(2)], [1 / math.sqrt(2), -1 / math.sqrt(2)]],
    }
    return np.array(fixed[kind], dtype=complex)


def oracle_unitary(circuit):
    """Dense unitary over the register (work then ancillas, big-endian):
    each gate is I + kron(|s><s| on controls, U - I on the target, I)."""
    order = circuit.work_qubits + circuit.ancilla_qubits
    dim = 2 ** len(order)
    total = np.eye(dim, dtype=complex)
    for gate in circuit.gates:
        controls = dict(gate.controls)
        factors = []
        for q in order:
            if q == gate.target:
                factors.append(oracle_matrix2(gate.kind, gate.params) - np.eye(2))
            elif q in controls:
                projector = np.zeros((2, 2))
                projector[controls[q], controls[q]] = 1.0
                factors.append(projector)
            else:
                factors.append(np.eye(2))
        term = np.ones((1, 1), dtype=complex)
        for factor in factors:
            term = np.kron(term, factor)
        total = (np.eye(dim) + term) @ total
    return total


def oracle_block(circuit):
    """<post-selected ancillas| U |ancillas 0>, as a work-register matrix."""
    n_anc = len(circuit.ancilla_qubits)
    kept = dict(circuit.postselect)
    mask = int("".join(str(kept[q]) for q in circuit.ancilla_qubits) or "0", 2)
    unitary = oracle_unitary(circuit)
    dim_work = 2 ** len(circuit.work_qubits)
    rows = [w * 2**n_anc + mask for w in range(dim_work)]
    cols = [w * 2**n_anc for w in range(dim_work)]
    return unitary[np.ix_(rows, cols)]


_KIND_ARITY = {"ry": 1, "rz": 1, "phase": 1, "x": 0, "y": 0, "z": 0, "h": 0}


def draw_gate(draw, targets, control_pool, required=()):
    """A gate of any kind on a target drawn from `targets`, controlled on
    every qubit of `required` and on a drawn subset of `control_pool`, with
    drawn control states and angles."""
    kind = draw(st.sampled_from(sorted(_KIND_ARITY)))
    target = draw(st.sampled_from(targets))
    others = [q for q in control_pool if q != target and q not in required]
    chosen = [q for q in required if q != target]
    chosen += draw(st.lists(st.sampled_from(others), unique=True)) if others else []
    controls = tuple((q, draw(st.integers(0, 1))) for q in chosen)
    angles = st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False)
    params = tuple(draw(angles) for _ in range(_KIND_ARITY[kind]))
    return Gate(kind, target, params, controls)


@st.composite
def random_circuits(draw):
    """Circuits of at most 6 qubits over every gate kind, with arbitrary
    qubit ids, controls, control states and post-selected bits.  `start`
    picks the opening: a run of ancilla-only gates (shared in the effective
    operator), a first gate on a work target, or a first gate on work qubits
    alone, so every ancilla is touched only after a work gate."""
    n_work = draw(st.integers(1, 3))
    n_anc = draw(st.integers(0, 6 - n_work))
    ids = draw(st.permutations(range(3, 3 + 2 * (n_work + n_anc), 2)))
    work, anc = tuple(ids[:n_work]), tuple(ids[n_work:])

    start = draw(st.sampled_from(["ancilla prefix", "work target", "work only"]))
    everyone = work + anc
    gates = []
    if start == "ancilla prefix" and anc:
        gates += [draw_gate(draw, anc, anc) for _ in range(draw(st.integers(1, 4)))]
    elif start == "work target":
        gates.append(draw_gate(draw, work, everyone))
    else:
        gates.append(draw_gate(draw, work, work))
    gates += [draw_gate(draw, everyone, everyone) for _ in range(draw(st.integers(0, 8)))]
    postselect = tuple((q, draw(st.integers(0, 1))) for q in anc)
    return Circuit(work, anc, tuple(gates), postselect)


@settings(max_examples=100, deadline=None)
@given(random_circuits(), st.data())
def test_random_circuits_against_dense_oracle(circuit, data):
    want = oracle_block(circuit)
    effective = effective_operator(circuit)
    assert np.max(np.abs(effective.matrix - want)) <= 1e-12
    n_work = len(circuit.work_qubits)
    for j in range(2**n_work):
        bits = format(j, f"0{n_work}b")
        norm2 = float(np.sum(np.abs(want[:, j]) ** 2))
        assert abs(effective.success_probabilities[bits] - norm2) <= 1e-12
    j = data.draw(st.integers(0, 2**n_work - 1))
    column, probability = run(circuit, format(j, f"0{n_work}b"))
    assert np.max(np.abs(column - want[:, j])) <= 1e-12
    assert abs(probability - float(np.sum(np.abs(want[:, j]) ** 2))) <= 1e-12
    # the shared ancilla prefix and the batched columns change no value
    assert np.array_equal(column, full_register_run(circuit, basis(format(j, f"0{n_work}b"))))
    assert np.array_equal(column, effective.matrix[:, j])


def generic_update(block, n, gate):
    """The reference kernel: gather both halves with index masks and apply
    u00 * a0 + u01 * a1, u10 * a0 + u11 * a1 (qubit ids are positions)."""
    rows = np.arange(block.shape[0])
    target_bit = 1 << (n - 1 - gate.target)
    matched = (rows & target_bit) == 0
    for q, state in gate.controls:
        matched &= ((rows >> (n - 1 - q)) & 1) == state
    lower = rows[matched]
    upper = lower | target_bit
    u = gate.matrix2()
    a0, a1 = block[lower].copy(), block[upper].copy()
    block[lower] = u[0, 0] * a0 + u[0, 1] * a1
    block[upper] = u[1, 0] * a0 + u[1, 1] * a1


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6), st.sampled_from([1, 2, 3, 8]), st.data())
def test_kernels_repeat_the_generic_arithmetic(n, cols, data):
    """Every kernel gives exactly the values of the generic update: the
    bit-identity contract of the statevector module."""
    kind = data.draw(st.sampled_from(sorted(_KIND_ARITY)))
    target = data.draw(st.integers(0, n - 1))
    others = [q for q in range(n) if q != target]
    chosen = data.draw(st.lists(st.sampled_from(others), unique=True)) if others else []
    controls = tuple((q, data.draw(st.integers(0, 1))) for q in chosen)
    angles = st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False)
    gate = Gate(kind, target, tuple(data.draw(angles) for _ in range(_KIND_ARITY[kind])),
                controls)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    scales = 10.0 ** rng.integers(-30, 3, size=(2**n, cols))
    block = (rng.normal(size=(2**n, cols)) + 1j * rng.normal(size=(2**n, cols))) * scales
    want = block.copy()
    generic_update(want, n, gate)
    statevector._simulate((gate,), block, {q: q for q in range(n)})
    assert np.array_equal(block, want)


@settings(max_examples=60, deadline=None)
@given(random_circuits(), st.integers(1, 7))
def test_sliced_updates_are_exact(circuit, chunk):
    """Updating large halves slice by slice changes no value."""
    whole = effective_operator(circuit).matrix
    saved = statevector._CHUNK
    statevector._CHUNK = chunk
    try:
        sliced = effective_operator(circuit).matrix
    finally:
        statevector._CHUNK = saved
    assert np.array_equal(sliced, whole)


def test_shared_prefix_is_exact():
    """Running the prepare tree once changes no value: each column of the
    block, and each `run`, equals a full-register run of every gate."""
    prep = (Gate("ry", 2, (0.7,)), Gate("ry", 3, (1.1,), ((2, 1),)), Gate("h", 3, (), ((2, 0),)))
    body = (Gate("x", 0, (), ((2, 1), (3, 0))), Gate("phase", 1, (0.3,), ((3, 1),)),
            Gate("y", 1, (), ((2, 0),)), Gate("rz", 0, (0.9,), ((3, 1),)))
    unprep = tuple(g.adjoint() for g in reversed(prep))
    circuit = Circuit((0, 1), (2, 3), prep + body + unprep, ((2, 0), (3, 0)))
    assert statevector._ancilla_prefix_length(circuit) == 3
    effective = effective_operator(circuit)
    for j in range(4):
        bits = format(j, "02b")
        reference = full_register_run(circuit, basis(bits))
        column, probability = run(circuit, bits)
        assert np.array_equal(column, reference)
        assert np.array_equal(effective.matrix[:, j], reference)
        assert probability == effective.success_probabilities[bits]
        assert probability == float(np.sum(np.abs(reference) ** 2))


@st.composite
def retiring_circuits(draw):
    """Circuits whose ancillas retire in a random order: one ancilla is used
    only in the ancilla-only prefix, one is never used, a group of two or
    more is last used together as controls of a work-qubit gate, and each
    other ancilla is last used alone, as a target or as a control of a
    work-qubit gate.  At least one ancilla is post-selected on 1."""
    n_work = draw(st.integers(1, 2))
    n_anc = draw(st.integers(4, 5))
    ids = draw(st.permutations(range(2, 2 + n_work + n_anc)))
    work, anc = tuple(ids[:n_work]), tuple(ids[n_work:])
    prefix_only, unused, body = anc[0], anc[1], list(anc[2:])
    prep_pool = [prefix_only] + body
    gates = [draw_gate(draw, [prefix_only], prep_pool)]
    gates += [draw_gate(draw, prep_pool, prep_pool) for _ in range(draw(st.integers(0, 3)))]
    # the retirement order, cut into groups; one group of two or more
    # retires as controls of a work-qubit gate
    split = draw(st.integers(0, len(body) - 2))
    sizes = [1] * split + [len(body) - split]
    sizes = draw(st.permutations(sizes))
    order = draw(st.permutations(body))
    live = list(work) + body
    for size in sizes:
        group, order = order[:size], order[size:]
        gates += [draw_gate(draw, live, live) for _ in range(draw(st.integers(0, 3)))]
        targets = work if size > 1 or draw(st.booleans()) else group
        gates.append(draw_gate(draw, targets, live, group))
        live = [q for q in live if q not in group]
    gates += [draw_gate(draw, work, work) for _ in range(draw(st.integers(0, 3)))]
    bits = [draw(st.integers(0, 1)) for _ in anc]
    bits[draw(st.integers(0, n_anc - 1))] = 1
    return Circuit(work, anc, tuple(gates), tuple(zip(anc, bits)))


@settings(max_examples=150, deadline=None)
@given(retiring_circuits())
def test_retired_ancillas_are_exact(circuit):
    """Restricting every gate after an ancilla's last one to the rows that
    hold its post-selected bit changes no kept value: the block, each run
    and each probability equal a full-register run of every gate."""
    prefix = statevector._ancilla_prefix_length(circuit)
    retire = statevector._retirements(circuit, prefix)
    # the prefix-only and the unused ancilla retire before the first body gate
    assert {0, 1} <= {pos for pos, _ in retire.get(0, ())}
    assert any(len(group) >= 2 for index, group in retire.items() if index > 0)
    effective = effective_operator(circuit)
    n_work = len(circuit.work_qubits)
    for j in range(2**n_work):
        bits = format(j, f"0{n_work}b")
        reference = full_register_run(circuit, basis(bits))
        column, probability = run(circuit, bits)
        assert np.array_equal(column, reference)
        assert np.array_equal(effective.matrix[:, j], reference)
        assert probability == effective.success_probabilities[bits]
        assert probability == float(np.sum(np.abs(reference) ** 2))


def draw_run(draw, qubits, control_pool, first_targets=()):
    """A run of gates that share one `_Controls` object: controls on a drawn
    subset of `control_pool`, then a gate on each of `first_targets` and
    0-3 more on drawn targets outside the controls, repeats allowed."""
    chosen = draw(st.lists(st.sampled_from(control_pool), unique=True)) if control_pool else []
    controls = _Controls((q, draw(st.integers(0, 1))) for q in chosen)
    free = [q for q in qubits if q not in controls.qubits]
    targets = list(first_targets)
    targets += draw(st.lists(st.sampled_from(free), min_size=0 if targets else 1, max_size=3))
    angles = st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False)
    gates = []
    for target in targets:
        kind = draw(st.sampled_from(sorted(_KIND_ARITY)))
        params = tuple(draw(angles) for _ in range(_KIND_ARITY[kind]))
        gates.append(Gate(kind, target, params, controls))
    return gates


@st.composite
def shared_control_circuits(draw):
    """Circuits cut into runs of gates that share one controls object.  The
    last run targets a work qubit, one ancilla, then the work qubit again,
    and no later gate touches that ancilla, so its retirement falls inside
    the run, after the ancilla-only prefix."""
    n_work = draw(st.integers(1, 3))
    n_anc = draw(st.integers(1, 6 - n_work))
    ids = draw(st.permutations(range(2, 2 + n_work + n_anc)))
    work, anc = tuple(ids[:n_work]), tuple(ids[n_work:])
    everyone = work + anc
    gates = []
    for _ in range(draw(st.integers(0, 4))):
        gates += draw_run(draw, everyone, everyone[:-1] if len(everyone) > 1 else ())
    last, free_work = anc[0], work[0]
    pool = [q for q in everyone if q not in (last, free_work)]
    gates += draw_run(draw, [q for q in everyone if q != last], pool,
                      (free_work, last, free_work))
    postselect = tuple((q, draw(st.integers(0, 1))) for q in anc)
    return Circuit(work, anc, tuple(gates), postselect)


def gate_by_gate(function, *args):
    """function(*args) with every `_simulate` call split into one call per
    gate, each pinning the ancillas retired before it: the shared prefix
    and retirement stay, and no run or level is shared."""
    simulate = statevector._simulate

    def one_at_a_time(gates, block, position, retire=None):
        fixed = []
        for index, gate in enumerate(gates):
            fixed += (retire or {}).get(index, ())
            simulate((gate,), block, position, {0: fixed})

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(statevector, "_simulate", one_at_a_time)
        return function(*args)


@settings(max_examples=150, deadline=None)
@given(shared_control_circuits())
def test_runs_change_no_bit(circuit):
    """Sharing one view among the gates of a run changes no bit: the block
    equals, byte for byte, the one from applying each gate through its own
    `_simulate` call under the same prefix and retirements, and it matches
    the dense-kron oracle."""
    prefix = statevector._ancilla_prefix_length(circuit)
    body = circuit.gates[prefix:]
    retire = statevector._retirements(circuit, prefix)
    assert any(0 < r < len(body) and body[r].controls is body[r - 1].controls for r in retire)
    effective = effective_operator(circuit)
    one_gate = gate_by_gate(effective_operator, circuit)
    assert effective.matrix.tobytes() == one_gate.matrix.tobytes()
    assert effective.success_probabilities == one_gate.success_probabilities
    assert np.max(np.abs(effective.matrix - oracle_block(circuit))) <= 1e-12


_MASSES = st.sampled_from([0.0, 0.0, 1.0]) | st.floats(1e-3, 1e3)


@st.composite
def tree_level_circuits(draw):
    """Ry trees around a select stage, as the compilers emit them, and in
    layouts they never emit:

    - a `prep_tree` on m ancillas, in the ancilla-only prefix or after a
      work gate on the whole block; its masses hold zeros, so some
      patterns have no gate;
    - gates on work targets controlled on the ancillas, then ry gates on a
      work target or on the spare ancilla under drawn patterns of the
      tree's first two ancillas, repeats allowed;
    - the tree's adjoint, whose levels list their patterns in reverse
      order and each end at their target's retirement;
    - gates on the work qubits and sometimes the spare.  When they skip
      it, the spare retires right after its ry gates, so a repeated
      pattern must end a level whose kept half alone is written.

    The tree's ancillas sit on consecutive positions, in ascending or
    descending order after the spare if there is one, or on every other
    position, so that no control set of two or more is consecutive.
    Every ancilla is post-selected on a drawn bit, at least one on 1."""
    n_work = draw(st.integers(1, 2))
    m = draw(st.integers(2, 3))
    layout = draw(st.sampled_from(["ascending", "descending", "spread"]))
    n_spare = 1 if layout == "spread" else draw(st.integers(0, 1))
    n_anc = 2 * m - 1 if layout == "spread" else m + n_spare
    ids = draw(st.permutations(range(10, 10 + n_work + n_anc)))
    work, anc = tuple(ids[:n_work]), tuple(ids[n_work:])
    if layout == "spread":
        tree, spare = anc[::2], anc[1:2]
    else:
        tree, spare = anc[n_spare:], anc[:n_spare]
        tree = tree if layout == "ascending" else tree[::-1]
    mass = draw(st.lists(_MASSES, min_size=2, max_size=2**m))
    mass[draw(st.integers(0, len(mass) - 1))] = 1.0
    prep, _ = prep_tree(mass, tree)
    gates = [Gate("h", work[0])] if draw(st.booleans()) else []
    gates += prep
    gates += [draw_gate(draw, work, anc) for _ in range(draw(st.integers(1, 4)))]
    target = draw(st.sampled_from(work[-1:] + spare))
    angles = st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False)
    for pattern in draw(st.lists(st.integers(0, 3), max_size=6)):
        controls = ((tree[0], pattern >> 1), (tree[1], pattern & 1))
        gates.append(Gate("ry", target, (draw(angles),), controls))
    gates += [gate.adjoint() for gate in reversed(prep)]
    rest = work + (spare if draw(st.booleans()) else ())
    gates += [draw_gate(draw, rest, rest) for _ in range(draw(st.integers(0, 2)))]
    bits = [draw(st.integers(0, 1)) for _ in anc]
    bits[draw(st.integers(0, n_anc - 1))] = 1
    return Circuit(work, anc, tuple(gates), tuple(zip(anc, bits)))


@settings(max_examples=150, deadline=None)
@given(tree_level_circuits(), st.sampled_from([1, 3, 8, 1 << 12]), st.data())
def test_levels_change_no_bit(circuit, chunk, data):
    """Applying each Ry-tree level in one pass, in slices of about `chunk`
    amplitudes, and writing only the kept half of a level whose target
    retires, changes no bit: `effective_operator` and `run` equal, byte for
    byte, a full-register run that applies each gate through its own
    `_simulate` call, and they match the dense-kron oracle."""
    n_work = len(circuit.work_qubits)
    reference = full_register_run(circuit, np.eye(2**n_work))
    j = data.draw(st.integers(0, 2**n_work - 1))
    bits = format(j, f"0{n_work}b")
    saved = statevector._CHUNK
    statevector._CHUNK = chunk
    try:
        effective = effective_operator(circuit)
        column, probability = run(circuit, bits)
    finally:
        statevector._CHUNK = saved
    assert effective.matrix.tobytes() == reference.tobytes()
    assert column.tobytes() == reference[:, j].tobytes()
    assert probability == float(np.sum(np.abs(reference[:, j]) ** 2))
    assert np.max(np.abs(effective.matrix - oracle_block(circuit))) <= 1e-12


def test_prep_tree_levels_run_in_one_pass_each(monkeypatch):
    """The ancilla-only prefix of the su3(7) mu exact circuit, 447 ry gates
    in the 9 levels of its tree, makes at most one `_rotate_y` call per
    level, with the values of one call per gate; so does the same circuit
    parsed from its document, whose gates share no `qubits` set."""
    circuit, _ = compile_exact(build_mu(FrobeniusSpec.su3(7)))
    prefix = statevector._ancilla_prefix_length(circuit)
    assert prefix == 447 and {g.kind for g in circuit.gates[:prefix]} == {"ry"}
    assert len(circuit.ancilla_qubits) == 9
    position = {q: i for i, q in enumerate(circuit.ancilla_qubits)}
    reference = np.zeros((2**9, 1), dtype=complex)
    reference[0, 0] = 1.0
    for gate in circuit.gates[:prefix]:
        statevector._simulate((gate,), reference, position)
    calls = []
    rotate = statevector._rotate_y

    def counting(*args):
        calls.append(args)
        rotate(*args)

    monkeypatch.setattr(statevector, "_rotate_y", counting)
    for gates in (circuit.gates, Circuit.from_dict(circuit.to_dict()).gates):
        calls.clear()
        state = np.zeros_like(reference)
        state[0, 0] = 1.0
        statevector._simulate(gates[:prefix], state, position)
        assert 0 < len(calls) <= 9
        assert state.tobytes() == reference.tobytes()


def test_effective_operator_allocates_one_block():
    """The su3(5) mu block is simulated in place: no gate copies it, so the
    traced peak stays within a quarter block of the block itself."""
    circuit, _ = compile_exact(build_mu(FrobeniusSpec.su3(5)))
    n_work, n_anc = len(circuit.work_qubits), len(circuit.ancilla_qubits)
    block_bytes = 2 ** (n_work + n_anc) * 2**n_work * 16
    tracemalloc.start()
    try:
        effective_operator(circuit)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert block_bytes <= peak <= 1.25 * block_bytes


def test_probabilities_are_raw():
    # cos^2 + sin^2 of this rotation rounds one ulp above 1; the success
    # probability is that raw squared norm, not clipped to 1
    circuit = Circuit((0,), (), (Gate("ry", 0, (2.1,)),), ())
    out, probability = run(circuit, "0")
    assert probability == float(np.sum(np.abs(out) ** 2)) == 1.0000000000000002
    assert effective_operator(circuit).success_probabilities == {"0": probability, "1": probability}


def test_probability_above_input_norm_raises():
    nan_gate = Gate("ry", 1, (0.5,))
    object.__setattr__(nan_gate, "params", (math.nan,))  # bypass validation
    circuit = Circuit((0,), (1,), (nan_gate,), ((1, 0),))
    with pytest.raises(ValueError, match="success probability"):
        effective_operator(circuit)
    with pytest.raises(ValueError, match="success probability"):
        run(circuit, "0")


def test_block_budget(monkeypatch):
    # su3(15) mu: 8 work + 12 ancilla qubits, a 4 GiB block
    wide = Circuit(tuple(range(8)), tuple(range(8, 20)), (),
                   tuple((q, 0) for q in range(8, 20)))
    with pytest.raises(ValueError, match="budget"):
        effective_operator(wide)
    # 2 work + 1 ancilla: 8 rows x 4 columns x 16 bytes = 512 bytes
    small = Circuit((0, 1), (2,), (Gate("h", 2),), ((2, 0),))
    monkeypatch.setattr(statevector, "MAX_BLOCK_BYTES", 512)
    assert effective_operator(small).matrix.shape == (4, 4)
    monkeypatch.setattr(statevector, "MAX_BLOCK_BYTES", 511)
    with pytest.raises(ValueError, match="budget"):
        effective_operator(small)
    # a single column is 8 x 16 = 128 bytes
    monkeypatch.setattr(statevector, "MAX_BLOCK_BYTES", 128)
    run(small, "01")
    monkeypatch.setattr(statevector, "MAX_BLOCK_BYTES", 127)
    with pytest.raises(ValueError, match="budget"):
        run(small, "01")
