"""Command-line interface, run in process through cli.main."""

import copy
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqs import cli
from cqs.duality_compiler import (
    GATE_KINDS,
    Circuit,
    CompileReport,
    Gate,
    compile_exact,
    compile_paper,
    paper_factored_form,
)
from cqs.frobenius import BUILDERS, FrobeniusSpec, PhaseConvention, build_mu
from cqs.reptheory import load_rep_table


def run_cli(capsys, argv, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_irreps(capsys):
    code, out, _ = run_cli(capsys, ["irreps", "--truncate", "3"])
    assert code == 0
    doc = json.loads(out)
    assert [e["label"] for e in doc["entries"]] == ["D(0,0)", "D(1,0)", "D(0,1)"]
    assert [e["casimir"] for e in doc["entries"]] == [0, "16/3", "16/3"]
    assert [e["dim"] for e in doc["entries"]] == [1, 3, 3]


def test_build_matches_library(capsys):
    code, out, _ = run_cli(capsys, ["build", "--op", "mu", "--beta", "1.0"])
    assert code == 0
    doc = json.loads(out)
    want = build_mu(FrobeniusSpec.su3(3, beta=1.0)).to_dict()
    assert doc["rows"] == want["rows"] == 16
    got_entries = {(r, c): complex(re, im) for r, c, re, im in doc["entries"]}
    want_entries = {(r, c): complex(re, im) for r, c, re, im in want["entries"]}
    assert got_entries.keys() == want_entries.keys()
    for key in got_entries:
        assert got_entries[key] == pytest.approx(want_entries[key])


def test_build_logical_shape(capsys):
    code, out, _ = run_cli(capsys, ["build", "--op", "eps", "--logical"])
    assert code == 0
    doc = json.loads(out)
    assert (doc["rows"], doc["cols"]) == (1, 4)


def test_decompose(capsys):
    code, out, _ = run_cli(capsys, ["decompose", "--op", "eta"])
    assert code == 0
    terms = json.loads(out)
    assert len(terms) == 12
    strings = [t["string"] for t in terms]
    assert strings == sorted(strings)


def test_decompose_from_file(capsys, tmp_path):
    op_doc = {"rows": 2, "cols": 2, "in_qubits": 1, "out_qubits": 1,
              "entries": [[0, 0, 1.0, 0.0]]}
    path = tmp_path / "op.json"
    path.write_text(json.dumps(op_doc))
    code, out, _ = run_cli(capsys, ["decompose", "--in", str(path)])
    assert code == 0
    terms = json.loads(out)
    assert {t["string"]: t["re"] for t in terms} == {"I": 0.5, "Z": 0.5}


def test_decompose_needs_source(capsys):
    code, _, err = run_cli(capsys, ["decompose"])
    assert code == 2
    assert "decompose needs" in err


def test_compile_simulate_pipeline(capsys, monkeypatch, tmp_path):
    circuit_path = tmp_path / "mu.json"
    code, _, _ = run_cli(capsys, ["compile", "--op", "mu", "--mode", "paper",
                                  "--out", str(circuit_path)])
    assert code == 0
    circuit_doc = json.loads(circuit_path.read_text())
    assert circuit_doc["report"]["mode"] == "paper"

    code, out, _ = run_cli(capsys, ["simulate", "--circuit", str(circuit_path),
                                    "--in", "1111"])
    assert code == 0
    doc = json.loads(out)
    spec = FrobeniusSpec.su3(3, beta=1.0)
    want = paper_factored_form("mu", spec).matrix()[:, 0b1111] / 4.0
    assert doc["success_probability"] == pytest.approx(float(np.sum(np.abs(want) ** 2)))
    got = doc["vector"]
    assert set(got) == {"1100"}
    assert complex(*got["1100"]) == pytest.approx(want[0b1100])


def test_simulate_from_stdin(capsys, monkeypatch):
    spec = FrobeniusSpec.su3(3, beta=1.0)
    circuit, _ = compile_paper("eta", spec)
    text = json.dumps(circuit.to_dict())
    code, out, _ = run_cli(capsys, ["simulate", "--in", "00"], stdin_text=text,
                           monkeypatch=monkeypatch)
    assert code == 0
    doc = json.loads(out)
    assert doc["input"] == "00"
    want = paper_factored_form("eta", spec).matrix()[:, 0] / 4.0
    got = np.zeros(4, dtype=complex)
    for bits, (re, im) in doc["vector"].items():
        got[int(bits, 2)] = complex(re, im)
    assert np.max(np.abs(got - want)) < 1e-12


def test_simulate_effective(capsys, monkeypatch):
    spec = FrobeniusSpec.su3(3, beta=1.0)
    circuit, report = compile_paper("eps", spec)
    text = json.dumps(circuit.to_dict())
    code, out, _ = run_cli(capsys, ["simulate", "--effective"], stdin_text=text,
                           monkeypatch=monkeypatch)
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"] == doc["cols"] == 4
    assert set(doc["success_probabilities"]) == {"00", "01", "10", "11"}
    want = paper_factored_form("eps", spec).matrix() / report.nominal_scale.real
    got = np.zeros((4, 4), dtype=complex)
    for r, c, re, im in doc["entries"]:
        got[r, c] = complex(re, im)
    assert np.max(np.abs(got - want)) < 1e-12


def test_simulate_needs_input(capsys, monkeypatch):
    spec = FrobeniusSpec.su3(3, beta=1.0)
    circuit, _ = compile_paper("eta", spec)
    code, _, err = run_cli(capsys, ["simulate"], stdin_text=json.dumps(circuit.to_dict()),
                           monkeypatch=monkeypatch)
    assert code == 2
    assert "needs --in" in err


def test_verify_exact(capsys, tmp_path):
    report_path = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, ["verify", "--op", "delta", "--mode", "exact",
                                  "--report", str(report_path)])
    assert code == 0
    doc = json.loads(report_path.read_text())
    assert doc["target_name"] == "delta"
    assert doc["relative_residual"] <= 1e-10
    assert len(doc["axiom_results"]) == 8


def test_verify_paper_stdout(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--op", "eta", "--mode", "paper"])
    assert code == 0
    doc = json.loads(out)
    assert doc["target_name"] == "eta_factored_form"
    assert doc["relative_residual"] <= 1e-10


def test_verify_cylinder(capsys):
    """verify takes every generator tag; paper mode rejects the cylinder."""
    code, out, _ = run_cli(capsys, ["verify", "--op", "cylinder", "--mode", "exact"])
    assert code == 0
    doc = json.loads(out)
    assert doc["target_name"] == "cylinder"
    assert doc["relative_residual"] <= 1e-10
    code, out, err = run_cli(capsys, ["verify", "--op", "cylinder", "--mode", "paper"])
    assert (code, out) == (2, "")
    assert "paper mode" in err and err.count("\n") == 1


def test_compile_builds_no_target(capsys, monkeypatch):
    """compile emits the circuit without expanding the paper form, which at
    --truncate 255 would be a 2^16 x 2^16 product."""
    from cqs.pauli import FactoredOperator

    def refuse(self):
        raise AssertionError("compile expanded the factored form")

    monkeypatch.setattr(FactoredOperator, "matrix", refuse)
    code, out, err = run_cli(capsys, ["compile", "--op", "mu", "--mode", "paper",
                                      "--truncate", "7"])
    assert (code, err) == (0, "")
    assert Circuit.from_dict(json.loads(out)).gates


def test_verify_paper_form_over_width_exits_2(capsys, monkeypatch):
    from cqs import pauli

    # su3(7) paper mu is a product of six one-qubit factors
    monkeypatch.setattr(pauli, "MAX_DOCUMENT_QUBITS", 5)
    code, out, err = run_cli(capsys, ["verify", "--op", "mu", "--mode", "paper",
                                      "--truncate", "7"])
    assert (code, out) == (2, "")
    assert "over the 5-qubit limit" in err and err.count("\n") == 1


def test_verify_eta_paper_small_rotation(capsys):
    """The first eta bracket at su3(9..15), euclidean, beta 1 needs an Ry of
    about 1e-9 rad; without it the residual was 2.6e-10 to 5.2e-10 (exit 1)."""
    for n in range(9, 16):
        code, out, err = run_cli(capsys, ["verify", "--op", "eta", "--mode", "paper",
                                          "--convention", "euclidean", "--beta", "1",
                                          "--truncate", str(n)])
        assert code == 0, (n, err)
        assert json.loads(out)["relative_residual"] <= 1e-15, n


def test_python_m_cli_runs_main():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-m", "cqs.cli", "compile", "--op", "cylinder", "--mode", "paper"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("error:") and done.stderr.count("\n") == 1


def test_reproduce_paper_cli(capsys):
    code, out, _ = run_cli(capsys, ["reproduce-paper", "--convention", "paper"])
    assert code == 0
    doc = json.loads(out)
    assert doc["angles_asserted"] is True
    assert doc["beta"] == 1.0


def test_emit_from_file(capsys, tmp_path):
    path = tmp_path / "circuit.json"
    code, _, _ = run_cli(capsys, ["compile", "--op", "eta", "--mode", "paper",
                                  "--out", str(path)])
    assert code == 0
    code, out, _ = run_cli(capsys, ["emit", "--circuit", str(path)])
    assert code == 0
    assert out.startswith("work q0, q1;\nancilla a0, a1, a2, a3;\n")
    assert "postselect a3 -> 0;" in out
    # one gate of 3000 controls, far more than the interpreter's recursion limit
    long_controls = tuple((q, q % 2) for q in range(3000))
    circuit = Circuit(tuple(range(3001)), (), (Gate("x", 3000, (), long_controls),), ())
    path.write_text(json.dumps(circuit.to_dict()))
    code, out, _ = run_cli(capsys, ["emit", "--circuit", str(path)])
    assert code == 0
    assert out.endswith(" !q2998, q2999, q3000;\n")


def test_custom_table_file(capsys, tmp_path):
    table_doc = {
        "group_name": "toy",
        "entries": [
            {"label": "triv", "casimir": 0, "dim": 1},
            {"label": "fund", "casimir": "3/2", "dim": 2},
        ],
    }
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table_doc))
    code, out, _ = run_cli(capsys, ["irreps", "--table", str(path)])
    assert code == 0
    assert json.loads(out)["entries"][1]["casimir"] == "3/2"
    code, out, _ = run_cli(capsys, ["build", "--op", "cylinder", "--table", str(path),
                                    "--beta", "2.0", "--convention", "euclidean"])
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"] == 4
    entries = {(r, c): re for r, c, re, im in doc["entries"]}
    assert entries[(0b11, 0b11)] == pytest.approx(1.0)
    assert entries[(0b10, 0b10)] == pytest.approx(np.exp(-3.0))


@pytest.mark.parametrize("field, value", [
    ("casimir", 10**400), ("casimir", "1e400"), ("dim", 10**400)],
    ids=["casimir-int", "casimir-str", "dim-int"])
def test_table_without_float_form_exits_2(capsys, tmp_path, field, value):
    """A casimir or dim too large for a float is refused when the table is
    loaded, with one line and exit 2, before any operator is built."""
    entry = {"label": "big", "casimir": 1, "dim": 2, field: value}
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"entries": [{"label": "triv", "casimir": 0, "dim": 1}, entry]}))
    for argv in (["build", "--op", "mu"], ["verify", "--op", "eta"]):
        code, out, err = run_cli(capsys, argv + ["--table", str(path)])
        assert (code, out) == (2, ""), argv
        assert err == f"error: {field} must convert to a finite float\n"


@pytest.mark.parametrize("casimir, beta, convention, message", [
    (-1e308, "1", "euclidean",
     "error: irrep big: the euclidean area weight at beta 1.0 and casimir -1e+308 "
     "leaves the float range\n"),
    (-1e308, "10", "euclidean",
     "error: irrep big: the euclidean area weight at beta 10.0 and casimir -1e+308 "
     "leaves the float range\n"),
    (1e308, "10", "paper",
     "error: irrep big: the paper_literal area weight at beta 10.0 and casimir 1e+308 "
     "leaves the float range\n"),
], ids=["euclidean-overflow", "euclidean-inf", "paper-inf"])
def test_weight_out_of_float_range_exits_2(capsys, tmp_path, casimir, beta, convention, message):
    """An area weight whose exponent leaves the float range is refused with
    one line naming the irrep and beta: no traceback, no Infinity on
    stdout."""
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"entries": [{"label": "triv", "casimir": 0, "dim": 1},
                                            {"label": "big", "casimir": casimir, "dim": 2}]}))
    code, out, err = run_cli(capsys, ["build", "--op", "cylinder", "--table", str(path),
                                      "--beta", beta, "--convention", convention])
    assert (code, out, err) == (2, "", message)


def test_coefficient_out_of_float_range_exits_2(capsys, tmp_path):
    """A finite area weight that the generator's dim factor takes past the
    float range is refused too."""
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"entries": [{"label": "triv", "casimir": 0, "dim": 1},
                                            {"label": "big", "casimir": -709, "dim": 10**6}]}))
    argv = ["build", "--table", str(path), "--convention", "euclidean"]
    code, out, err = run_cli(capsys, argv + ["--op", "eta"])
    assert (code, out) == (2, "")
    assert err == "error: irrep big: the eta coefficient at beta 1.0 leaves the float range\n"
    code, out, _ = run_cli(capsys, argv + ["--op", "cylinder"])  # the weight alone fits
    assert code == 0 and "Infinity" not in out


def test_unwritable_output_exits_2(capsys, tmp_path):
    """An output path that cannot be written is a usage error: exit 2 and
    one error line, not a traceback or the verification-failure code."""
    missing = tmp_path / "missing"
    for argv, path in (
        (["irreps", "--truncate", "3", "--out"], missing / "x.json"),
        (["verify", "--op", "eta", "--mode", "paper", "--report"], missing / "r.json"),
    ):
        code, out, err = run_cli(capsys, argv + [str(path)])
        assert code == 2, argv
        assert out == ""
        assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1
        assert not missing.exists()


_DEEP_JSON = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("argv", [
    ["emit", "--circuit"],
    ["simulate", "--in", "0", "--circuit"],
    ["decompose", "--in"],
    ["irreps", "--table"],
])
def test_deeply_nested_json_exits_2(capsys, tmp_path, argv):
    """A document nested past the parser's recursion limit is a usage
    error: exit 2 and one error line, not a RecursionError traceback."""
    path = tmp_path / "deep.json"
    path.write_text(_DEEP_JSON)
    code, out, err = run_cli(capsys, argv + [str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_deeply_nested_rep_table_text_is_a_value_error():
    with pytest.raises(ValueError, match="not valid JSON"):
        load_rep_table(_DEEP_JSON)


def test_usage_exit_codes(capsys, monkeypatch):
    assert cli.main(["--help"]) == 0
    capsys.readouterr()
    assert cli.main(["no-such-command"]) == 2
    capsys.readouterr()
    code, _, err = run_cli(capsys, ["compile", "--op", "cylinder", "--mode", "paper"])
    assert code == 2
    assert "paper mode" in err
    code, _, err = run_cli(capsys, ["simulate", "--in", "01"], stdin_text="{broken",
                           monkeypatch=monkeypatch)
    assert code == 2
    assert "not valid JSON" in err
    code, _, err = run_cli(capsys, ["irreps", "--table", "/no/such/file.json"])
    assert code == 2
    assert "cannot read" in err
    circuit = {
        "qubits": [{"id": 0, "role": "work"}],
        "gates": [{"kind": "u1q", "target": 0, "params": [], "controls": [],
                   "matrix": [[1, 0], [0, 0], [0, 0], [1, 0]]}],
        "postselect": [],
    }
    code, _, err = run_cli(capsys, ["emit"], stdin_text=json.dumps(circuit),
                           monkeypatch=monkeypatch)
    assert code == 2
    assert "unknown gate kind" in err
    # sizes are checked before anything is enumerated or allocated
    for argv, message in (
        (["irreps", "--truncate", "4096"], "[1, 4095]"),
        (["build", "--op", "mu", "--truncate", "64"], "over the 12-qubit limit"),
        (["build", "--op", "mu", "--truncate", "1000"], "over the 12-qubit limit"),
        (["verify", "--op", "cylinder", "--truncate", "64"], "the axiom suite on 7-qubit"),
        (["verify", "--op", "eta", "--mode", "paper", "--truncate", "4095"],
         "the axiom suite on 12-qubit"),
    ):
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error:") and message in err and err.count("\n") == 1, err
    one_qubit = {"qubits": [{"id": 0, "role": "work"}], "postselect": []}
    work, ancilla = {"id": 0, "role": "work"}, {"id": 1, "role": "ancilla"}
    two_qubits = {"qubits": [work, ancilla], "gates": [], "postselect": [{"q": 1, "bit": 0}]}
    malformed = [
        (["simulate", "--in", "0"], [], "JSON object"),
        (["simulate", "--in", "0"], dict(one_qubit, gates=5), "'gates' must be a list"),
        (["emit"], dict(one_qubit, gates=[], qubits={"id": 0}), "'qubits' must be a list"),
        (["simulate", "--in", "0"],
         dict(one_qubit, gates=[{"kind": "ry", "target": 0, "params": [math.nan]}]),
         "must be finite"),
        (["simulate", "--in", "0"],
         dict(one_qubit, gates=[{"kind": "x", "target": [0], "params": []}]),
         "malformed circuit"),
        (["simulate", "--in", "0"], dict(two_qubits, qubits=[work, dict(ancilla, id=1.9)]),
         "cannot be interpreted as an integer"),
        (["simulate", "--in", "0"], dict(two_qubits, gates=[{"kind": "h", "target": 1.2}]),
         "cannot be interpreted as an integer"),
        (["emit"], dict(two_qubits, gates=[{"kind": "x", "target": 0,
                                            "controls": [{"q": 1, "state": 0.5}]}]),
         "cannot be interpreted as an integer"),
        (["simulate", "--in", "0"], dict(two_qubits, postselect=[{"q": 1, "bit": 0.7}]),
         "cannot be interpreted as an integer"),
        (["decompose", "--in", "-"], [], "JSON object"),
        (["decompose", "--in", "-"], {"rows": 2, "cols": 2, "entries": 5},
         "'entries' must be a list"),
        (["decompose", "--in", "-"], {"rows": 2, "cols": 2, "entries": [[2, 0, 1.0, 0.0]]},
         "outside"),
        (["decompose", "--in", "-"], {"rows": 2**40, "cols": 2**40, "entries": []},
         "rows and cols"),
        (["decompose", "--in", "-"],
         {"rows": 2, "cols": 2, "entries": [[0, 1, 1.0, 0.0], [0, 1, 5.0, 0.0]]},
         "entry (0, 1) is given more than once"),
    ]
    for argv, doc, message in malformed:
        code, out, err = run_cli(capsys, argv, stdin_text=json.dumps(doc),
                                 monkeypatch=monkeypatch)
        assert (code, out) == (2, ""), (argv, doc)
        assert message in err and err.count("\n") == 1, err


def test_missing_field_is_named(capsys, monkeypatch):
    """A document without a required field exits 2 with one line that
    names the field, not a bare KeyError."""
    work, ancilla = {"id": 0, "role": "work"}, {"id": 1, "role": "ancilla"}
    gate = {"kind": "x", "target": 0, "params": [], "controls": [{"q": 1, "state": 0}]}
    circuit = {"qubits": [work, ancilla], "gates": [gate], "postselect": [{"q": 1, "bit": 0}]}
    no_kind = {key: value for key, value in gate.items() if key != "kind"}
    no_state = dict(gate, controls=[{"q": 1}])
    cases = [
        ({"gates": [], "postselect": []}, "qubits"),
        (dict(circuit, gates=[no_kind]), "kind"),
        (dict(circuit, qubits=[{"id": 0}, ancilla]), "role"),
        (dict(circuit, gates=[no_state]), "state"),
    ]
    for doc, field in cases:
        for argv in (["simulate", "--in", "0"], ["emit"]):
            code, out, err = run_cli(capsys, argv, stdin_text=json.dumps(doc),
                                     monkeypatch=monkeypatch)
            assert (code, out) == (2, ""), (argv, doc)
            assert err == f"error: malformed circuit: missing field '{field}'\n", err
    code, out, err = run_cli(capsys, ["decompose", "--in", "-"],
                             stdin_text=json.dumps({"rows": 2, "cols": 2}),
                             monkeypatch=monkeypatch)
    assert (code, out) == (2, "")
    assert err == "error: malformed operator: missing field 'entries'\n", err


def _run_quietly(argv, stdin_text):
    """cli.main with stdin, stdout and stderr swapped for strings (hypothesis
    tests cannot take function-scoped fixtures)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


_JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(-3, 40)
    | st.floats(-50, 50)
    | st.sampled_from([math.nan, math.inf, -math.inf, 2**70])
    | st.text(max_size=4)
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=10,
)

_VALID_DOCUMENTS = {
    "circuit": {
        "qubits": [{"id": 0, "role": "work"}, {"id": 1, "role": "work"},
                   {"id": 2, "role": "ancilla"}],
        "gates": [
            {"kind": "ry", "target": 2, "params": [0.5], "controls": []},
            {"kind": "x", "target": 0, "params": [], "controls": [{"q": 2, "state": 1}]},
            {"kind": "phase", "target": 1, "params": [0.25], "controls": [{"q": 0, "state": 0}]},
        ],
        "postselect": [{"q": 2, "bit": 0}],
    },
    "operator": {"rows": 2, "cols": 2, "in_qubits": 1, "out_qubits": 1,
                 "entries": [[0, 0, 1.0, 0.0], [1, 0, 0.0, -0.5]]},
    "table": {"group_name": "toy", "entries": [{"label": "triv", "casimir": 0, "dim": 1},
                                               {"label": "fund", "casimir": "3/2", "dim": 2}]},
}
_LOADERS = {
    "circuit": (["simulate", "--in", "01"], ["simulate", "--effective"], ["emit"]),
    "operator": (["decompose", "--in", "-"],),
    "table": (["irreps", "--table", "-"],),
}


def _paths(doc, prefix=()):
    """Every (container path, key) inside a JSON document."""
    if isinstance(doc, dict):
        items = doc.items()
    else:
        items = enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix, key
        yield from _paths(value, prefix + (key,))


@st.composite
def _loader_inputs(draw):
    kind = draw(st.sampled_from(sorted(_LOADERS)))
    argv = draw(st.sampled_from(_LOADERS[kind]))
    if draw(st.booleans()):
        return argv, draw(_JSON_VALUES)
    doc = copy.deepcopy(_VALID_DOCUMENTS[kind])
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        prefix, key = draw(st.sampled_from(paths))
        holder = doc
        for step in prefix:
            holder = holder[step]
        if isinstance(holder, dict) and draw(st.booleans()):
            del holder[key]
        else:
            holder[key] = draw(_JSON_VALUES)
    return argv, doc


def _strict_json(text):
    def reject(token):
        raise AssertionError(f"stdout holds the non-JSON constant {token}")
    return json.loads(text, parse_constant=reject)


@settings(max_examples=200, deadline=None)
@given(_loader_inputs())
def test_loaders_exit_0_or_2_on_any_document(case):
    """Any JSON document given to a loading command either works or exits 2
    with one line on stderr: never a traceback, never exit 1."""
    argv, doc = case
    code, out, err = _run_quietly(argv, json.dumps(doc))
    assert code in (0, 2), (argv, doc, err)
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
    elif argv[0] != "emit":
        _strict_json(out)


def test_compile_paper_single_irrep(capsys):
    """A one-irrep table has fewer work qubits than the figure's angle names."""
    for op in ("mu", "delta", "eta", "eps"):
        for convention in ("paper", "euclidean"):
            code, out, err = run_cli(capsys, ["compile", "--op", op, "--mode", "paper",
                                              "--truncate", "1", "--convention", convention])
            assert code == 0, err
    code, out, _ = run_cli(capsys, ["verify", "--op", "mu", "--mode", "paper", "--truncate", "1"])
    assert code == 0
    assert json.loads(out)["relative_residual"] <= 1e-10


def test_json_output_is_stable(capsys):
    code, first, _ = run_cli(capsys, ["build", "--op", "eta"])
    code, second, _ = run_cli(capsys, ["build", "--op", "eta"])
    assert first == second
    assert first.endswith("\n")


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _small_circuits(draw):
    """A circuit of up to 8 random gates on up to 3 work qubits and 3
    ancillas, some gates sharing the controls object of an earlier one."""
    ids = draw(st.lists(st.integers(0, 40), min_size=1, max_size=6, unique=True))
    n_work = draw(st.integers(1, len(ids)))
    gates = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(sorted(GATE_KINDS)))
        target = draw(st.sampled_from(ids))
        params = tuple(draw(st.lists(_FINITE, min_size=GATE_KINDS[kind],
                                     max_size=GATE_KINDS[kind])))
        earlier = [g.controls for g in gates if target not in g.controls.qubits]
        if earlier and draw(st.booleans()):
            controls = draw(st.sampled_from(earlier))
        else:
            qubits = draw(st.lists(st.sampled_from(ids), unique=True))
            controls = [(q, draw(st.integers(0, 1))) for q in qubits if q != target]
        gates.append(Gate(kind, target, params, controls))
    ancillas = ids[n_work:]
    kept = draw(st.lists(st.sampled_from(ancillas), unique=True)) if ancillas else []
    post = [(q, draw(st.integers(0, 1))) for q in kept]
    return Circuit(tuple(ids[:n_work]), tuple(ancillas), tuple(gates), tuple(post))


@st.composite
def _compiled_circuits(draw):
    spec = FrobeniusSpec.su3(draw(st.integers(1, 3)), beta=draw(st.floats(0.0, 2.0)),
                             convention=draw(st.sampled_from(list(PhaseConvention))))
    if draw(st.booleans()):
        return compile_exact(BUILDERS[draw(st.sampled_from(sorted(BUILDERS)))](spec))[0]
    return compile_paper(draw(st.sampled_from(["mu", "delta", "eta", "eps"])), spec)[0]


_REPORTS = st.builds(
    CompileReport, st.sampled_from(["exact", "paper"]), st.integers(0, 12), st.integers(1, 99),
    st.complex_numbers(allow_nan=False, allow_infinity=False),
    st.lists(st.tuples(st.text(max_size=8), _FINITE), max_size=4).map(tuple))


@settings(max_examples=150, deadline=None)
@given(_small_circuits() | _compiled_circuits(), _REPORTS)
def test_circuit_json_matches_json_dumps(circuit, report):
    """The gate-by-gate writer of `cqs compile` gives the bytes of
    json.dumps(doc, indent=2, sort_keys=True) of the document with its report."""
    doc = circuit.to_dict()
    doc["report"] = report.to_dict()
    assert cli._circuit_json(circuit, report) == json.dumps(doc, indent=2, sort_keys=True)


def test_verify_exits_1_on_a_residual(capsys, monkeypatch):
    """A residual over the tolerance still prints the report on stdout, then
    one stderr line, and exits 1."""
    monkeypatch.setattr(cli, "RESIDUAL_TOLERANCE", -1.0)
    code, out, err = run_cli(capsys, ["verify", "--op", "mu"])
    assert code == 1
    report = json.loads(out)
    assert report["target_name"] == "mu" and report["relative_residual"] <= 1e-10
    assert err.startswith("verification failed: residual ") and err.count("\n") == 1, err


def test_reproduce_paper_exits_1_on_a_failed_check(capsys, monkeypatch):
    from cqs import verify

    monkeypatch.setattr(verify, "AXIOM_TOLERANCE", -1.0)
    code, out, err = run_cli(capsys, ["reproduce-paper"])
    assert (code, out) == (1, "")
    assert err.startswith("verification failed: axiom:commutativity: ") and err.count("\n") == 1


def test_non_string_group_name_exits_2(capsys, monkeypatch):
    doc = dict(_VALID_DOCUMENTS["table"], group_name=["x", 1])
    code, out, err = run_cli(capsys, ["irreps", "--table", "-"], stdin_text=json.dumps(doc),
                             monkeypatch=monkeypatch)
    assert (code, out) == (2, "")
    assert err == "error: rep table 'group_name' must be a string, got list\n"


def test_effective_of_13_work_qubits_exits_2(capsys, monkeypatch):
    """The block of a 13-work-qubit circuit is refused before it is
    allocated: exit 2 and one line."""
    doc = {"qubits": [{"id": q, "role": "work"} for q in range(13)], "gates": [],
           "postselect": []}
    code, out, err = run_cli(capsys, ["simulate", "--effective"], stdin_text=json.dumps(doc),
                             monkeypatch=monkeypatch)
    assert (code, out) == (2, "")
    assert err == "error: effective operator extraction supports up to 12 work qubits\n"
