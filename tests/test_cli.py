"""Command-line interface, run in process through cli.main."""

import io
import json
import sys

import numpy as np
import pytest

from cqs import cli
from cqs.duality_compiler import compile_paper, paper_factored_form
from cqs.frobenius import FrobeniusSpec, build_mu


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


def test_json_output_is_stable(capsys):
    code, first, _ = run_cli(capsys, ["build", "--op", "eta"])
    code, second, _ = run_cli(capsys, ["build", "--op", "eta"])
    assert first == second
    assert first.endswith("\n")
