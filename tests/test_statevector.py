"""Statevector engine: gate application and post-selected runs.

Single gates, as the effective operator of a one-gate circuit, are checked
against a brute-force oracle that walks every basis state and applies the
control/target logic by bit inspection; whole random circuits are checked
against a dense Kronecker-product unitary built from this file's own 2x2
matrices, and `run` against a full-register run that simulates every gate.
"""

import cmath
import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cqs import statevector
from cqs.duality_compiler import (
    Circuit,
    Gate,
    compile_exact,
    compile_paper,
    paper_factored_form,
    prep_tree,
)
from cqs.duality_compiler import _Controls
from cqs.encoding import default_encoding
from cqs.frobenius import (
    FrobeniusSpec,
    PhaseConvention,
    build_cylinder,
    build_delta,
    build_epsilon,
    build_eta,
    build_mu,
)
from cqs.reptheory import RepEntry, RepTable
from cqs.statevector import MAX_QUBITS, effective_operator, run


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
    register, each through its own one-gate schedule, so that no level,
    prefix or retirement is shared: `vector` on the work qubits (or one
    work vector per column of a matrix) and |0> on the ancillas.  The
    reference that `run` and `effective_operator` must match bit for bit."""
    dim_work = 2 ** len(circuit.work_qubits)
    vectors = np.asarray(vector, dtype=complex).reshape(dim_work, -1)
    block = np.zeros((2 ** len(circuit.ancilla_qubits) * dim_work, vectors.shape[1]),
                     dtype=complex)
    block[:dim_work] = vectors
    layout = statevector._Layout(circuit.ancilla_qubits + circuit.work_qubits, block.shape[1])
    for gate in circuit.gates:
        statevector._execute(statevector._schedule((gate,), layout), block)
    kept = statevector._postselect_mask(circuit) * dim_work
    return block[kept : kept + dim_work].reshape(np.shape(vector))


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
    statevector._execute(statevector._schedule((gate,), statevector._Layout(range(n), cols)),
                         block)
    assert np.array_equal(block, want)


_SIGNED = st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, -2.5e300]) | st.floats(-1e3, 1e3)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["phase", "y"]),
       st.sampled_from([0.0, -0.0, math.pi, -math.pi, 5e-324]) | st.floats(-10.0, 10.0),
       st.lists(st.tuples(_SIGNED, _SIGNED), min_size=2, max_size=8).filter(
           lambda pairs: len(pairs) % 2 == 0))
def test_phase_and_y_kernels_use_the_matrix_entries(kind, theta, pairs):
    """The phase and y kernels multiply by the very entries of
    `Gate.matrix2()`, signed zeros included, with no matrix built: their
    bytes equal the products with those entries, on halves that hold
    zeros of both signs."""
    gate = Gate(kind, 0, (theta,) if kind == "phase" else ())
    u = gate.matrix2()
    halves = np.array([complex(re, im) for re, im in pairs]).reshape(2, -1)
    lo, hi = halves[0].copy(), halves[1].copy()
    if kind == "phase":
        want = (u[0, 0] * halves[0], u[1, 1] * halves[1])
    else:
        want = (u[0, 1] * halves[1], u[1, 0] * halves[0])
    kernel, _, _, args = statevector._op(gate, 0, None)
    kernel(lo, hi, *args)
    assert lo.tobytes() == want[0].tobytes() and hi.tobytes() == want[1].tobytes()


@settings(max_examples=60, deadline=None)
@given(random_circuits(), st.integers(1, 7))
def test_sliced_updates_are_exact(circuit, chunk):
    """Updating large halves slice by slice, and running each level in
    chunks of `chunk` amplitudes, down to one pattern per chunk, changes
    no value."""
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
    retire = statevector._retirements(circuit.gates[prefix:], circuit.postselect)
    # the prefix-only and the unused ancilla retire before the first body gate
    assert set(circuit.ancilla_qubits[:2]) <= {q for q, _ in retire.get(0, ())}
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
    """function(*args) with every `_schedule` split into one schedule per
    gate, each pinning the ancillas retired before it, and with no plan
    cached before: the shared prefix and retirement stay, and no level is
    shared.  Fails if the split schedule was never made."""
    schedule = statevector._schedule
    calls = []

    def one_at_a_time(gates, layout, retire=None):
        calls.append(len(gates))
        steps, fixed = [], []
        for index, gate in enumerate(gates):
            fixed += (retire or {}).get(index, ())
            steps += schedule((gate,), layout, {0: fixed})
        return steps

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(statevector, "_schedule", one_at_a_time)
        patch.setattr(statevector, "_PLANS", weakref.WeakKeyDictionary())
        result = function(*args)
    assert calls
    return result


def ry_then_x_run():
    """A run that rotates an ancilla by ry and then flips it by x, its last
    gate, before the ancilla retires: the ry must write both halves."""
    shared = _Controls(())
    gates = (Gate("h", 1), Gate("h", 0, (), shared), Gate("ry", 1, (0.7,), shared),
             Gate("x", 1, (), shared), Gate("h", 0, (), shared))
    return Circuit((0,), (1,), gates, ((1, 0),))


@settings(max_examples=150, deadline=None)
@given(shared_control_circuits())
@example(ry_then_x_run())
def test_runs_change_no_bit(circuit):
    """Scheduling a run that makes no level, its last gate writing only the
    kept half when its target retires, changes no bit: the block equals,
    byte for byte, the one from applying each gate through its own
    one-gate schedule under the same prefix and retirements, and it
    matches the dense-kron oracle."""
    prefix = statevector._ancilla_prefix_length(circuit)
    body = circuit.gates[prefix:]
    retire = statevector._retirements(body, circuit.postselect)
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
    one-gate schedule, and they match the dense-kron oracle."""
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


_LEVEL_LETTERS = ["ry", "x", "y", "z"]


def draw_branch(draw, targets, form, controls):
    """The gates of one select branch under `controls`: a phase on
    targets[0] unless its drawn angle is zero, then letters on drawn
    targets in increasing order.  `form` "repeat" targets the last of them
    again, "reverse" puts a target before a smaller one (or repeats one,
    given a single target), "h/rz" inserts an h or rz gate; none of these
    is a branch a level may merge."""
    angles = st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False)
    if form == "reverse" and len(targets) < 2:
        form = "repeat"
    gates = []
    phase = draw(st.sampled_from([0.0]) | angles)
    if phase != 0.0:
        gates.append(Gate("phase", targets[0], (phase,), controls))
    chosen = sorted(draw(st.lists(st.sampled_from(range(len(targets))), unique=True,
                                  min_size=2 if form == "reverse" else 1)))
    if form == "repeat":
        chosen.append(chosen[-1])
    elif form == "reverse":
        chosen[0], chosen[1] = chosen[1], chosen[0]
    for index in chosen:
        kind = draw(st.sampled_from(_LEVEL_LETTERS))
        gates.append(Gate(kind, targets[index], (draw(angles),) * _KIND_ARITY[kind], controls))
    if form == "h/rz":
        kind = draw(st.sampled_from(["h", "rz"]))
        gate = Gate(kind, draw(st.sampled_from(targets)), (draw(angles),) * _KIND_ARITY[kind],
                    controls)
        gates.insert(draw(st.integers(0, len(gates))), gate)
    return gates


@st.composite
def select_level_circuits(draw):
    """LCUs whose select stage runs as levels, and holds runs that no level
    may merge:

    - a `prep_tree` on m consecutive ancillas, then one branch per drawn
      pattern (see draw_branch), every gate of a branch under one
      `_Controls` of its pattern; the first two branches are plain, on
      consecutive patterns and begin on a work qubit, so every circuit
      has a select level of two or more branches, and the later patterns
      leave gaps and repeat;
    - when drawn, a spare ancilla that one later branch targets first
      and no other gate touches, so that it retires inside the select
      stage;
    - the tree's adjoint, and every ancilla post-selected on a drawn bit,
      at least one on 1."""
    n_work = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3))
    n_spare = draw(st.integers(0, 1))
    ids = draw(st.permutations(range(20, 20 + n_work + m + n_spare)))
    work, tree, spare = ids[:n_work], ids[n_work:n_work + m], ids[n_work + m:]
    anc = tree + spare if draw(st.booleans()) else spare + tree
    mass = draw(st.lists(_MASSES, min_size=2, max_size=2**m))
    mass[draw(st.integers(0, len(mass) - 1))] = 1.0
    prep, _ = prep_tree(mass, tree)
    first = draw(st.integers(0, 2**m - 2))
    patterns = [first, first + 1] + draw(st.lists(st.integers(0, 2**m - 1), max_size=5))
    forms = ["plain"] * 2 + [draw(st.sampled_from(["plain", "plain", "repeat", "reverse", "h/rz"]))
                             for _ in patterns[2:]]
    spare_branch = draw(st.integers(1, len(patterns) - 1)) if spare else None
    select = []
    for index, (pattern, form) in enumerate(zip(patterns, forms)):
        controls = _Controls((a, pattern >> (m - 1 - i) & 1) for i, a in enumerate(tree))
        if index == spare_branch:
            kind = draw(st.sampled_from(_LEVEL_LETTERS))
            select.append(Gate(kind, spare[0], (0.9,) * _KIND_ARITY[kind], controls))
        select += draw_branch(draw, work, form, controls)
    gates = prep + select + [gate.adjoint() for gate in reversed(prep)]
    bits = [draw(st.integers(0, 1)) for _ in anc]
    bits[draw(st.integers(0, len(anc) - 1))] = 1
    return Circuit(work, anc, tuple(gates), tuple(zip(anc, bits)))


@settings(max_examples=150, deadline=None)
@given(select_level_circuits(), st.sampled_from([1, 3, 8, 1 << 12]), st.data())
def test_select_levels_change_no_bit(circuit, chunk, data):
    """Applying each stretch of select branches as one level, in chunks of
    about `chunk` amplitudes, changes no bit: `effective_operator` and
    `run` equal, byte for byte, a full-register run that applies each gate
    through its own one-gate schedule, and they match the dense-kron
    oracle."""
    prefix = statevector._ancilla_prefix_length(circuit)
    body = circuit.gates[prefix:]
    layout = statevector._Layout(circuit.ancilla_qubits + circuit.work_qubits, 1)
    retire = statevector._retirements(body, circuit.postselect)
    runs = statevector._runs(body, retire, layout.position)
    level, _ = statevector._level(layout, runs, 0, retire)
    assert len(level[2]) >= 2
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


def counting(calls, function):
    """function, appending its name to `calls` on every call."""
    def counted(*args):
        calls.append(function.__name__)
        return function(*args)
    return counted


def test_su3_15_eta_select_stage_runs_as_levels(monkeypatch):
    """The su3(15) exact eta circuit has 974 select gates, one non-ry kernel
    call each when each is a step of its own.  As levels, `run` makes
    fewer than half as many non-ry kernel calls, with the same bytes as a
    run gate by gate."""
    circuit, _ = compile_exact(build_eta(FrobeniusSpec.su3(15)))
    assert sum(gate.kind != "ry" for gate in circuit.gates) == 974
    calls = []
    for kind, kernel in statevector._KERNELS.items():
        monkeypatch.setitem(statevector._KERNELS, kind, counting(calls, kernel))
    bits = "0000"
    vector, probability = run(circuit, bits)
    assert 0 < len(calls) < 974 // 2
    want, want_probability = gate_by_gate(run, circuit, bits)
    assert vector.tobytes() == want.tobytes() and probability == want_probability


def test_planning_scans_each_run_once(monkeypatch):
    """A parsed run of 2000 uncontrolled gates on one work qubit, which
    makes no level, is scanned once, in the one pass that splits the gate
    list into runs, and gives one step per gate: a level looked for at
    each gate would rescan the rest of the run each time, so planning
    would be quadratic in the run's length."""
    gates = tuple(Gate("ry" if i % 2 else "h", 0, (0.5,) * (i % 2)) for i in range(2000))
    circuit = Circuit.from_dict(Circuit((0,), (), gates, ()).to_dict())
    assert all(gate.controls is circuit.gates[0].controls for gate in circuit.gates)
    calls, runs = [], []
    scan = statevector._runs

    def scanned(*args):
        runs.append(scan(*args))
        return runs[-1]

    monkeypatch.setattr(statevector, "_runs", scanned)
    monkeypatch.setattr(statevector, "_level", counting(calls, statevector._level))
    steps = statevector._schedule(circuit.gates, statevector._Layout((0,), 1))
    assert [len(found) for found in runs] == [1] and calls == [] and len(steps) == 2000


def test_windows_share_level_geometry(monkeypatch):
    """The su3(7) mu exact block on its 64 columns runs in 32 windows, each
    with the same select and unprepare level layouts.  Its plan has 145
    window and remaining steps, but each view is made once per geometry
    in a plan, so planning makes fewer than a quarter as many `_view`
    calls as it has steps."""
    circuit, _ = compile_exact(build_mu(FrobeniusSpec.su3(7)))
    calls = []
    monkeypatch.setattr(statevector, "_view", counting(calls, statevector._view))
    effective_operator(circuit)
    _, _, _, windows, rest = statevector._plan(circuit, 64)
    assert len(windows) == 32
    steps = sum(map(len, windows)) + len(rest)
    assert steps == 145 and 4 * len(calls) < steps


def test_su3_7_mu_windows_make_few_kernel_calls(monkeypatch):
    """The su3(7) mu exact block on its 64 columns makes at most 900 kernel
    calls across its 32 windows, one per op of their steps: a select
    level's chunk holds 8 of the 16 patterns of a window.  The block
    equals, byte for byte, a run gate by gate."""
    circuit, _ = compile_exact(build_mu(FrobeniusSpec.su3(7)))
    monkeypatch.setattr(statevector, "_PLANS", weakref.WeakKeyDictionary())
    calls = []
    for kind, kernel in statevector._KERNELS.items():
        monkeypatch.setitem(statevector._KERNELS, kind, counting(calls, kernel))
    monkeypatch.setattr(statevector, "_rotate_y", counting(calls, statevector._rotate_y))
    _, _, _, windows, rest = statevector._plan(circuit, 64)
    ops = [sum(len(ops) for _, _, ops in steps) for steps in (sum(windows, []), rest)]
    assert len(windows) == 32 and ops[0] <= 900
    calls.clear()
    effective = effective_operator(circuit)
    assert len(calls) == sum(ops)
    assert effective.matrix.tobytes() == gate_by_gate(effective_operator, circuit).matrix.tobytes()


def test_plans_are_reused_and_die_with_their_circuit(monkeypatch):
    """A second `run` of a circuit makes no schedule and no window plan; a
    new _CHUNK, or a _WINDOW under which the circuit runs in windows of
    its two top ancillas, makes a fresh plan, with the same bytes; and the
    plan cache keeps no circuit alive."""
    monkeypatch.setattr(statevector, "_PLANS", weakref.WeakKeyDictionary())
    calls = []
    for name in ("_schedule", "_window_plan"):
        monkeypatch.setattr(statevector, name, counting(calls, getattr(statevector, name)))
    circuit = lcu_circuit()
    first = run(circuit, "1")[0]
    assert calls.count("_schedule") > 1 and calls.count("_window_plan") == 1
    calls.clear()
    assert run(circuit, "1")[0].tobytes() == first.tobytes()
    run(circuit, "0")
    assert calls == []
    for name in ("_CHUNK", "_WINDOW"):
        monkeypatch.setattr(statevector, name, 1)
        assert run(circuit, "1")[0].tobytes() == first.tobytes()
        assert calls.count("_schedule") > 1 and calls.count("_window_plan") == 1
        calls.clear()
    assert statevector._plan(circuit, 1)[1] == 2
    alive = weakref.ref(circuit)
    assert len(statevector._PLANS) == 1
    del circuit
    gc.collect()
    assert alive() is None and len(statevector._PLANS) == 0


def test_prep_tree_levels_run_in_one_pass_each(monkeypatch):
    """The ancilla-only prefix of the su3(7) mu exact circuit, 447 ry gates
    in the 9 levels of its tree, makes at most one `_rotate_y` call per
    level, with the values of one call per gate; so does the same circuit
    parsed from its document, whose gates share no `qubits` set."""
    circuit, _ = compile_exact(build_mu(FrobeniusSpec.su3(7)))
    prefix = statevector._ancilla_prefix_length(circuit)
    assert prefix == 447 and {g.kind for g in circuit.gates[:prefix]} == {"ry"}
    assert len(circuit.ancilla_qubits) == 9
    layout = statevector._Layout(circuit.ancilla_qubits, 1)
    reference = np.zeros((2**9, 1), dtype=complex)
    reference[0, 0] = 1.0
    for gate in circuit.gates[:prefix]:
        statevector._execute(statevector._schedule((gate,), layout), reference)
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
        statevector._execute(statevector._schedule(gates[:prefix],
                                                   statevector._Layout(circuit.ancilla_qubits, 1)),
                             state)
        assert 0 < len(calls) <= 9
        assert state.tobytes() == reference.tobytes()


def traced_peak(function, *args) -> int:
    """The peak of the memory tracemalloc traces while function(*args) runs."""
    tracemalloc.start()
    try:
        function(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def planned_bytes(circuit, columns):
    """The bytes `_postselected` plans to allocate for `columns` columns:
    the ancilla vector, the window buffer and the top block."""
    n_work, n_anc = len(circuit.work_qubits), len(circuit.ancilla_qubits)
    top = window_top(circuit, columns)
    return (2**n_anc + (2 ** (n_anc - top) + 2**top) * 2**n_work * columns) * 16


def test_effective_operator_allocates_one_block(monkeypatch):
    """The su3(5) mu block, 32 MiB, runs one window at a time: the traced
    peak stays within a quarter above the bytes the plan budgets, one
    window's buffer plus the top block, under an eighth of the whole
    block.  A block below the window size is simulated in place: no gate
    copies it, so the peak stays within a quarter above its plan, the
    block, its kept slab and the ancilla vector."""
    circuit, _ = compile_exact(build_mu(FrobeniusSpec.su3(5)))
    n_work, n_anc = len(circuit.work_qubits), len(circuit.ancilla_qubits)
    columns = 2**n_work
    block_bytes = 2 ** (n_work + n_anc) * columns * 16
    assert window_top(circuit, columns) == (n_anc + 1) // 2
    peak = traced_peak(effective_operator, circuit)
    assert peak <= 1.25 * planned_bytes(circuit, columns)
    assert peak < block_bytes / 8
    monkeypatch.setattr(statevector, "_WINDOW", block_bytes // 16)
    assert window_top(circuit, columns) == 0
    assert block_bytes <= traced_peak(effective_operator, circuit) <= 1.25 * planned_bytes(
        circuit, columns)


# no block has more amplitudes than this, so none runs in windows
_NO_WINDOWS = 1 << 62


def windowed(window, function, *args):
    """function(*args) with blocks of more than `window` amplitudes run one
    ancilla window at a time."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(statevector, "_WINDOW", window)
        return function(*args)


def window_top(circuit, columns):
    """The number of top ancillas `_postselected` windows on."""
    prefix = statevector._ancilla_prefix_length(circuit)
    body = circuit.gates[prefix:]
    return statevector._window_plan(circuit, body, columns)[0]


_BUILDERS = {"mu": build_mu, "delta": build_delta, "eta": build_eta, "eps": build_epsilon,
             "cylinder": build_cylinder}


@st.composite
def window_circuits(draw):
    """(kind, circuit, oracle block): the exact or paper-mode circuit of a
    generator of a random table of 1-15 entries, under either convention
    and a random beta, with the dense target or factored form over the
    nominal scale; or a `tree_level_circuits` circuit with its dense-kron
    block.  Two-circle generators take tables of at most three entries,
    two bits a circle, so that every block fits 2**16 amplitudes."""
    kind = draw(st.sampled_from(["exact", "paper", "tree"]))
    if kind == "tree":
        circuit = draw(tree_level_circuits())
        return kind, circuit, oracle_block(circuit)
    size = draw(st.integers(1, 15))
    table = RepTable(tuple(
        RepEntry(f"R{k}", draw(st.floats(-1.0, 5.0)), draw(st.integers(1, 30)))
        for k in range(size)
    ))
    spec = FrobeniusSpec(table, default_encoding(table), draw(st.floats(0.0, 3.0)),
                         draw(st.sampled_from(list(PhaseConvention))))
    tags = ["mu", "delta", "eta", "eps"] if size <= 3 else ["eta", "eps"]
    if kind == "exact":
        target = _BUILDERS[draw(st.sampled_from(tags + ["cylinder"]))](spec)
        circuit, report = compile_exact(target)
        return kind, circuit, target.matrix / report.nominal_scale.real
    tag = draw(st.sampled_from(tags))
    circuit, report = compile_paper(tag, spec)
    return kind, circuit, paper_factored_form(tag, spec).matrix() / report.nominal_scale.real


@settings(max_examples=60, deadline=None)
@given(window_circuits(), st.data())
def test_windows_change_no_bit(case, data):
    """Running a block one ancilla window at a time, with windows of 1, 2**6
    and 2**10 amplitudes, changes no bit: `effective_operator` and `run`
    equal, byte for byte, their one-window results, which match the oracle.
    Every exact circuit of three or more ancillas windows."""
    kind, circuit, want = case
    n_work, n_anc = len(circuit.work_qubits), len(circuit.ancilla_qubits)
    bits = format(data.draw(st.integers(0, 2**n_work - 1)), f"0{n_work}b")
    whole = windowed(_NO_WINDOWS, effective_operator, circuit)
    column, probability = windowed(_NO_WINDOWS, run, circuit, bits)
    assert np.max(np.abs(whole.matrix - want)) <= 1e-12
    for window in (1, 1 << 6, 1 << 10):
        if kind == "exact" and n_anc >= 3 and window == 1:
            assert windowed(window, window_top, circuit, 1) == (n_anc + 1) // 2
        effective = windowed(window, effective_operator, circuit)
        assert effective.matrix.tobytes() == whole.matrix.tobytes()
        assert effective.success_probabilities == whole.success_probabilities
        got, got_probability = windowed(window, run, circuit, bits)
        assert got.tobytes() == column.tobytes()
        assert got_probability == probability


def su3_2_mu():
    """The su3(2) mu exact circuit: 16 columns, 4 work qubits and 5
    ancillas."""
    return compile_exact(build_mu(FrobeniusSpec.su3(2)))[0]


def under_buffer(size, function, *args):
    """function(*args) with numpy's ufunc buffer, and _UFUNC_BUFFER, the
    one a simulation runs under, both set to `size` elements."""
    saved = np.setbufsize(size)
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(statevector, "_UFUNC_BUFFER", size)
            return function(*args)
    finally:
        np.setbufsize(saved)


@settings(max_examples=100, deadline=None)
@given(st.one_of(random_circuits(), select_level_circuits()),
       st.sampled_from([_NO_WINDOWS, 1 << 6]))
@example(su3_2_mu(), _NO_WINDOWS)
@example(su3_2_mu(), 1 << 10)
def test_bits_do_not_depend_on_the_ufunc_buffer(circuit, window):
    """numpy runs a ufunc on a strided operand through its copy buffer or
    in place, by the buffer size, with the same arithmetic: a full-register
    run, and `effective_operator` with blocks of more than `window`
    amplitudes run in windows, each give the same bytes under buffers of
    16, 512 and 8192 elements, and they equal each other, every nonzero
    entry bit for bit (the shared prefix may leave a zero unsigned where
    the full-register run signs it, as the module's contract allows).  The
    su3(2) mu block runs whole and, in windows of 2**10 amplitudes, on
    three top ancillas with 16 columns a window."""
    columns = 2 ** len(circuit.work_qubits)
    if window == 1 << 10:
        assert windowed(window, window_top, circuit, columns) == 3
    eye = np.eye(columns)
    sizes = (16, 512, 8192)
    blocks = {under_buffer(size, full_register_run, circuit, eye).tobytes() for size in sizes}
    effective = {under_buffer(size, windowed, window, effective_operator, circuit).matrix.tobytes()
                 for size in sizes}
    assert len(blocks) == len(effective) == 1
    assert np.array_equal(np.frombuffer(effective.pop(), complex),
                          np.frombuffer(blocks.pop(), complex))


def test_postselected_restores_the_callers_buffer(monkeypatch):
    """`effective_operator` and `run` run their plans and kernels under
    _UFUNC_BUFFER and leave the caller's buffer size as they found it,
    also when the budget refuses the plan."""
    circuit = su3_2_mu()
    seen = []
    execute = statevector._execute

    def recording(steps, block):
        seen.append(np.getbufsize())
        execute(steps, block)

    monkeypatch.setattr(statevector, "_execute", recording)
    monkeypatch.setattr(statevector, "_PLANS", weakref.WeakKeyDictionary())
    saved = np.setbufsize(4096)
    try:
        for simulate in (effective_operator, lambda circuit: run(circuit, "0110")):
            seen.clear()
            simulate(circuit)
            assert set(seen) == {statevector._UFUNC_BUFFER} and np.getbufsize() == 4096
        monkeypatch.setattr(statevector, "_PLANS", weakref.WeakKeyDictionary())
        monkeypatch.setattr(statevector, "MAX_BLOCK_BYTES", planned_bytes(circuit, 16) - 1)
        with pytest.raises(ValueError, match="budget"):
            effective_operator(circuit)
        assert np.getbufsize() == 4096
    finally:
        np.setbufsize(saved)


def lcu_circuit(select_end=(), unprepare=None, tail=()):
    """An LCU on work qubit 0 and ancillas 1-4 (top 1, 2; low 3, 4): a
    `prep_tree` prefix, one gate of each kind on qubit 0 under each of the
    16 ancilla patterns, then `select_end`, the tree's adjoint (or the
    gates `unprepare`) and `tail`, every ancilla post-selected on 0."""
    ancillas = (1, 2, 3, 4)
    prep, _ = prep_tree([float(k % 5 + 1) for k in range(16)], ancillas)
    kinds = sorted(_KIND_ARITY)
    select = []
    for pattern in range(16):
        controls = tuple((a, pattern >> (3 - i) & 1) for i, a in enumerate(ancillas))
        kind = kinds[pattern % len(kinds)]
        select.append(Gate(kind, 0, (0.3 + pattern,) * _KIND_ARITY[kind], controls))
    if unprepare is None:
        unprepare = [gate.adjoint() for gate in reversed(prep)]
    gates = prep + select + list(select_end) + list(unprepare) + list(tail)
    return Circuit((0,), ancillas, tuple(gates), tuple((a, 0) for a in ancillas))


@pytest.mark.parametrize("case", ["fits", "targets a top ancilla", "retires a top ancilla",
                                  "late control on a low ancilla"])
def test_window_fallbacks(case):
    """A circuit that breaks the window plan runs as one window, with the
    same bytes: a body gate that targets a top ancilla before the low
    ancillas retire; a top ancilla (2) that retires before them, since
    their unprepare gates are controlled on ancilla 1 alone; a gate after
    the unprepare stage controlled on a low ancilla."""
    circuits = {
        "fits": lcu_circuit(),
        "targets a top ancilla": lcu_circuit(select_end=[Gate("ry", 2, (0.4,), ((1, 1), (3, 0)))]),
        "retires a top ancilla": lcu_circuit(unprepare=[
            Gate("h", 4, (), ((1, 0),)), Gate("h", 3, (), ((1, 1),)), Gate("h", 1)]),
        "late control on a low ancilla": lcu_circuit(tail=[Gate("rz", 0, (0.7,), ((4, 0),))]),
    }
    circuit = circuits[case]
    assert windowed(1, window_top, circuit, 2) == (2 if case == "fits" else 0)
    whole = windowed(_NO_WINDOWS, effective_operator, circuit)
    assert np.max(np.abs(whole.matrix - oracle_block(circuit))) <= 1e-12
    assert windowed(1, effective_operator, circuit).matrix.tobytes() == whole.matrix.tobytes()
    for bits in "01":
        assert windowed(1, run, circuit, bits)[0].tobytes() == whole.matrix[:, int(bits)].tobytes()


def test_ancillas_retire_per_phase():
    """Each window retires its ancillas after their last gate in its own
    gate list.  In window 3 (ancillas 1 and 2 both 1) of this LCU no gate
    touches low ancilla 4: its select gates are controlled on ancillas 1-3
    only, and the unprepare level of 4 has no gate under it.  So 4 retires
    at index 0 of window 3 and of no other window, with the same bytes as
    one window of the whole block, which matches the dense-kron oracle."""
    ancillas = (1, 2, 3, 4)
    prep, _ = prep_tree([float(k % 5 + 1) for k in range(16)], ancillas)
    kinds = sorted(_KIND_ARITY)
    select = []
    for pattern in range(16):
        controls = tuple((a, pattern >> (3 - i) & 1) for i, a in enumerate(ancillas))
        if pattern >> 2 == 3:  # window 3: one gate per pattern of ancillas 1-3
            if pattern & 1:
                continue
            controls = controls[:3]
        kind = kinds[pattern % len(kinds)]
        select.append(Gate(kind, 0, (0.3 + pattern,) * _KIND_ARITY[kind], controls))
    unprepare = [gate.adjoint() for gate in reversed(prep)
                 if not (gate.target == 4 and {(1, 1), (2, 1)} <= set(gate.controls))]
    circuit = Circuit((0,), ancillas, tuple(prep + select + unprepare),
                      tuple((a, 0) for a in ancillas))
    prefix = statevector._ancilla_prefix_length(circuit)
    assert prefix == len(prep)
    top, split, windows, _ = windowed(1, statevector._window_plan, circuit,
                                      circuit.gates[prefix:], 2)
    assert top == 2
    retire_at_0 = [{q for q, _ in statevector._retirements(gates, circuit.postselect).get(0, ())}
                   for gates in windows]
    assert [4 in retired for retired in retire_at_0] == [False, False, False, True]
    whole = windowed(_NO_WINDOWS, effective_operator, circuit)
    assert np.max(np.abs(whole.matrix - oracle_block(circuit))) <= 1e-12
    assert windowed(1, effective_operator, circuit).matrix.tobytes() == whole.matrix.tobytes()
    for bits in "01":
        assert windowed(1, run, circuit, bits)[0].tobytes() == whole.matrix[:, int(bits)].tobytes()


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
    # an imaginary angle makes the phase factor 2, which only input 1 meets:
    # its probability is 4, and the error names it
    doubling = Gate("phase", 1, (0.5,), ((0, 1),))
    object.__setattr__(doubling, "params", (-1j * math.log(2),))
    circuit = Circuit((0,), (1,), (doubling,), ((1, 0),))
    assert run(circuit, "0")[1] == 1.0
    with pytest.raises(ValueError, match="for input 1 exceeds 1"):
        effective_operator(circuit)


def test_block_budget(monkeypatch):
    """MAX_BLOCK_BYTES bounds the bytes the simulation plan allocates: the
    ancilla vector, the window buffer and the top block, exactly.  Each
    budget runs on an empty plan cache, so it is checked as the plan is
    made (see test_cached_plans_are_budgeted for cached plans)."""

    def budget(limit):
        monkeypatch.setattr(statevector, "_PLANS", weakref.WeakKeyDictionary())
        monkeypatch.setattr(statevector, "MAX_BLOCK_BYTES", limit)

    # 2 work + 1 ancilla, one window of the whole block: a 2-entry ancilla
    # vector, an 8-row buffer and a 4-row top block of 4 columns (800
    # bytes), or of 1 column (224 bytes)
    small = Circuit((0, 1), (2,), (Gate("h", 2),), ((2, 0),))
    for columns, function, args in ((4, effective_operator, (small,)), (1, run, (small, "01"))):
        assert planned_bytes(small, columns) == (2 + 12 * columns) * 16
        budget(planned_bytes(small, columns))
        function(*args)
        budget(planned_bytes(small, columns) - 1)
        with pytest.raises(ValueError, match="budget"):
            function(*args)
    # su3(2) mu in windows of its 3 top ancillas, under a budget below its
    # whole 2**9 x 16 block
    target = build_mu(FrobeniusSpec.su3(2))
    circuit, report = compile_exact(target)
    monkeypatch.setattr(statevector, "_WINDOW", 1)
    planned = planned_bytes(circuit, 16)
    assert window_top(circuit, 16) == 3 and planned < 2**9 * 16 * 16
    budget(planned)
    block = effective_operator(circuit).matrix
    assert np.max(np.abs(block - target.matrix / report.nominal_scale)) <= 1e-12
    budget(planned - 1)
    with pytest.raises(ValueError, match="budget"):
        effective_operator(circuit)
    # an LCU that cannot run in windows needs its whole block, refused
    # under the budget its windowed twin runs in
    fits, late = lcu_circuit(), lcu_circuit(tail=[Gate("rz", 0, (0.7,), ((4, 0),))])
    assert (window_top(fits, 2), window_top(late, 2)) == (2, 0)
    budget(planned_bytes(fits, 2))
    effective_operator(fits)
    with pytest.raises(ValueError, match="budget"):
        effective_operator(late)


def test_refused_plans_are_not_cached(monkeypatch):
    """A plan the budget refuses leaves no entry in the plan cache for its
    circuit, so a later simulation under a budget that admits it makes
    the plan afresh, with the bytes of the unbudgeted block."""
    monkeypatch.setattr(statevector, "_PLANS", weakref.WeakKeyDictionary())
    circuit = lcu_circuit()
    want = effective_operator(circuit).matrix
    monkeypatch.setattr(statevector, "_PLANS", weakref.WeakKeyDictionary())
    monkeypatch.setattr(statevector, "MAX_BLOCK_BYTES", planned_bytes(circuit, 2) - 1)
    with pytest.raises(ValueError, match="budget"):
        effective_operator(circuit)
    assert circuit not in statevector._PLANS
    monkeypatch.setattr(statevector, "MAX_BLOCK_BYTES", planned_bytes(circuit, 2))
    assert effective_operator(circuit).matrix.tobytes() == want.tobytes()
    assert circuit in statevector._PLANS


def test_cached_plans_are_budgeted(monkeypatch):
    """Every simulation checks its plan's bytes against MAX_BLOCK_BYTES, a
    cached plan's included: a budget lowered below them refuses a circuit
    whose plan is cached, as it refuses a fresh one, and the plan stays
    cached for a budget that admits it again."""
    monkeypatch.setattr(statevector, "_PLANS", weakref.WeakKeyDictionary())
    circuit = lcu_circuit()
    want = effective_operator(circuit).matrix, run(circuit, "1")[0]
    for columns, function, args in ((2, effective_operator, (circuit,)), (1, run, (circuit, "1"))):
        planned = planned_bytes(circuit, columns)
        monkeypatch.setattr(statevector, "MAX_BLOCK_BYTES", planned - 1)
        with pytest.raises(ValueError, match=f"allocates {planned} bytes"):
            function(*args)
    assert len(statevector._PLANS[circuit]) == 2
    monkeypatch.setattr(statevector, "MAX_BLOCK_BYTES", planned_bytes(circuit, 2))
    assert effective_operator(circuit).matrix.tobytes() == want[0].tobytes()
    assert run(circuit, "1")[0].tobytes() == want[1].tobytes()


def test_ancilla_free_circuits_run_in_place():
    """With no ancilla the window buffer is the kept slab: one uncontrolled
    h on 20 work qubits allocates its 16 MiB block once, with no top block
    beside it.  The rest of the traced peak is the float64 |amplitude|
    array behind the success probability."""
    circuit = Circuit(tuple(range(20)), (), (Gate("h", 0),), ())
    block = 2**20 * 16
    assert planned_bytes(circuit, 1) == 2 * block + 16
    assert traced_peak(run, circuit, "0" * 20) <= 1.6 * block
    vector, probability = run(circuit, "0" * 20)
    assert vector[0] == vector[2**19] == 1 / math.sqrt(2)
    assert np.count_nonzero(vector) == 2 and abs(probability - 1) <= 1e-15


@pytest.mark.parametrize("kind, ancillas", [("h", 0), ("x", 0), ("ry", 0), ("h", 2)])
def test_large_halves_run_in_slices(monkeypatch, kind, ancillas):
    """A block that runs in no windows, here 20 work qubits with no
    ancillas or with two, is updated slice by slice: one uncontrolled
    gate on halves of 2**19 amplitudes or more keeps the traced peak
    within a quarter above the bytes the plan budgets, even where the
    leading axis of its halves is short (the two ancillas), and gives the
    bytes of one kernel call on the whole halves."""
    work, anc = tuple(range(20)), (20, 21)[:ancillas]
    gates = [Gate("h", q) for q in anc] + [Gate(kind, 0, (0.3,) if kind == "ry" else ())]
    gates += [Gate("x", 19, (), ((q, 1),)) for q in anc] + [Gate("h", q) for q in anc]
    circuit = Circuit(work, anc, tuple(gates), tuple((q, 0) for q in anc))
    assert window_top(circuit, 1) == 0
    tracemalloc.start()
    try:
        vector = run(circuit, "0" * 20)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * planned_bytes(circuit, 1)
    monkeypatch.setattr(statevector, "_CHUNK", 1 << 30)
    assert run(circuit, "0" * 20)[0].tobytes() == vector.tobytes()


def test_effective_operator_refuses_13_work_qubits():
    circuit = Circuit(tuple(range(13)), (), (), ())
    with pytest.raises(ValueError, match="supports up to 12 work qubits"):
        statevector.effective_operator(circuit)
