"""Command-line front end.

Subcommands: irreps, build, decompose, compile, simulate, verify,
reproduce-paper, emit.  Operators are named by the generator tags of
`frobenius.BUILDERS` (mu, delta, eta, eps, cylinder); paper mode covers all
but the cylinder.  All structured output is JSON with sorted keys, and every
code path is deterministic, so repeated runs are byte-identical.  Exit
codes: 0 on success, 1 on a verification failure, 2 on usage or
input-parsing errors (argparse's own convention), such as a circuit JSON
naming an unknown gate kind or a non-finite parameter, a document field of
the wrong JSON type or a non-integer qubit id, target, control state or
post-selected bit, paper mode asked for the cylinder, a --truncate outside
[1, 4095], an operator wider than frobenius.MAX_DOCUMENT_QUBITS, or a
simulation whose planned allocation exceeds statevector.MAX_BLOCK_BYTES.
`python -m cqs.cli` runs the same command.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from typing import Optional, Sequence

import numpy as np

from .duality_compiler import GATE_KINDS, Circuit, CompileReport, emit_text
from .frobenius import BUILDERS as _BUILDERS
from .frobenius import DenseOperator, FrobeniusSpec, PhaseConvention, logical_form
from .pauli import pauli_expand
from .reptheory import RepTable, dump_rep_table, load_rep_table, su3_truncation
from .statevector import effective_operator, run
from .verify import (
    RESIDUAL_TOLERANCE,
    VerificationError,
    axiom_suite,
    compile_generator,
    reproduce_paper,
    verify_compiled,
)

__all__ = ["main", "console_entry"]

_CONVENTIONS = {
    "paper": PhaseConvention.PAPER_LITERAL,
    "euclidean": PhaseConvention.EUCLIDEAN,
}


class _UsageError(Exception):
    pass


def _emit(text: str, out: Optional[str]) -> None:
    if out and out != "-":
        try:
            with open(out, "w") as handle:
                handle.write(text)
        except OSError as exc:
            raise _UsageError(f"cannot write {out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _emit_json(doc, out: Optional[str]) -> None:
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", out)


# the JSON text of each gate kind
_KIND_JSON = {kind: json.dumps(kind) for kind in GATE_KINDS}


def _circuit_json(circuit: Circuit, report: CompileReport) -> str:
    """`json.dumps(doc, indent=2, sort_keys=True)` of the circuit document,
    `circuit.to_dict()` with `report.to_dict()` as its "report" key, written
    gate by gate.

    With `indent` set, `json.dumps` runs CPython's pure-Python encoder, far
    too slow for the tens of thousands of gates of a compiled circuit.  So
    the gates are written here: the text of each distinct controls object
    is made once, keyed by its identity (the circuit keeps every one
    alive), and each gate is one f-string.  Every other key still goes
    through `json.dumps`.
    """
    doc = replace(circuit, gates=()).to_dict()
    del doc["gates"]
    doc["report"] = report.to_dict()
    # "gates" sorts before every other key, so its text opens the object
    rest = json.dumps(doc, indent=2, sort_keys=True)
    controls_text: dict[int, str] = {}
    gates = []
    for gate in circuit.gates:
        controls = gate.controls
        text = controls_text.get(id(controls))
        if text is None:
            pairs = ",\n".join(['        {\n          "q": %d,\n          "state": %d\n        }'
                                % pair for pair in controls])
            text = controls_text[id(controls)] = f"[\n{pairs}\n      ]" if controls else "[]"
        params = ("[\n        " + ",\n        ".join(map(repr, gate.params)) + "\n      ]"
                  if gate.params else "[]")
        gates.append(f'    {{\n      "controls": {text},\n      "kind": {_KIND_JSON[gate.kind]},\n'
                     f'      "params": {params},\n      "target": {gate.target}\n    }}')
    head = '"gates": [\n' + ",\n".join(gates) + "\n  ]" if gates else '"gates": []'
    return "{\n  " + head + "," + rest[1:]


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path) as handle:
            return handle.read()
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc


def _load_json(path: str) -> dict:
    try:
        return json.loads(_read_source(path))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise _UsageError(f"{path}: not valid JSON: {exc}") from exc


def _table_from_args(args) -> RepTable:
    if getattr(args, "table", None):
        return load_rep_table(_load_json(args.table))
    return su3_truncation(args.truncate)


def _spec_from_args(args) -> FrobeniusSpec:
    from .encoding import default_encoding

    table = _table_from_args(args)
    return FrobeniusSpec(
        table,
        default_encoding(table),
        beta=args.beta,
        convention=_CONVENTIONS[args.convention],
    )


def _add_table_args(parser, with_beta: bool = True) -> None:
    parser.add_argument("--table", metavar="FILE", help="JSON irrep table (overrides --truncate)")
    parser.add_argument("--truncate", type=int, default=3, metavar="N",
                        help="number of SU(3) irreps to keep (default 3)")
    if with_beta:
        parser.add_argument("--beta", type=float, default=1.0, help="area parameter (default 1.0)")
        parser.add_argument("--convention", choices=sorted(_CONVENTIONS), default="paper",
                            help="phase convention for the area weight (default paper)")


def _build_operator(args) -> DenseOperator:
    spec = _spec_from_args(args)
    if getattr(args, "logical", False):
        return logical_form(args.op, spec)
    return _BUILDERS[args.op](spec)


def _cmd_irreps(args) -> int:
    _emit_json(dump_rep_table(_table_from_args(args)), args.out)
    return 0


def _cmd_build(args) -> int:
    _emit_json(_build_operator(args).to_dict(), args.out)
    return 0


def _cmd_decompose(args) -> int:
    if args.infile:
        op = DenseOperator.from_dict(_load_json(args.infile))
    else:
        if not args.op:
            raise _UsageError("decompose needs --op or --in")
        op = _build_operator(args)
    doc = [
        {"string": letters, "re": c.real, "im": c.imag} for letters, c in pauli_expand(op).items()
    ]
    _emit_json(doc, args.out)
    return 0


def _cmd_compile(args) -> int:
    # the paper form stays unexpanded: only verify needs its matrix
    circuit, report, _target, _name = compile_generator(args.op, _spec_from_args(args), args.mode)
    _emit(_circuit_json(circuit, report) + "\n", args.out)
    return 0


def _cmd_simulate(args) -> int:
    circuit = Circuit.from_dict(_load_json(args.circuit))
    if args.effective:
        effective = effective_operator(circuit)
        n_work = len(circuit.work_qubits)
        doc = DenseOperator(effective.matrix, n_work, n_work).to_dict()
        doc["success_probabilities"] = effective.success_probabilities
        _emit_json(doc, args.out)
        return 0
    if args.input is None:
        raise _UsageError("simulate needs --in BITS (or --effective)")
    vector, probability = run(circuit, args.input)
    n_work = len(circuit.work_qubits)
    doc = {
        "input": args.input,
        "success_probability": probability,
        "vector": {
            format(idx, f"0{n_work}b"): [vector[idx].real, vector[idx].imag]
            for idx in np.nonzero(np.abs(vector) > 1e-15)[0]
        },
    }
    _emit_json(doc, args.out)
    return 0


def _cmd_verify(args) -> int:
    spec = _spec_from_args(args)
    # the suite first: its two-circle forms can refuse circles that the
    # target alone would pass, before the target is compiled or expanded
    axioms = axiom_suite(spec)
    circuit, _report, target, target_name = compile_generator(args.op, spec, args.mode)
    report = verify_compiled(circuit, target, target_name, args.mode, axioms)
    _emit_json(report.to_dict(), args.report)
    if report.relative_residual > RESIDUAL_TOLERANCE:
        print(
            f"verification failed: residual {report.relative_residual:.3e}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_reproduce(args) -> int:
    bundle = reproduce_paper(_CONVENTIONS[args.convention])
    _emit_json(bundle, args.out)
    return 0


def _cmd_emit(args) -> int:
    circuit = Circuit.from_dict(_load_json(args.circuit))
    _emit(emit_text(circuit), args.out)
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cqs",
        description="Build, compile, simulate and verify the Frobenius-algebra "
        "operators of a truncated 2D Yang-Mills theory.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("irreps", help="print an irrep table")
    _add_table_args(p, with_beta=False)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_irreps)

    p = sub.add_parser("build", help="build a padded operator matrix")
    p.add_argument("--op", required=True, choices=sorted(_BUILDERS))
    p.add_argument("--logical", action="store_true", help="emit the logical (unpadded) form")
    _add_table_args(p)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("decompose", help="Pauli-expand an operator")
    p.add_argument("--op", choices=sorted(_BUILDERS))
    p.add_argument("--in", dest="infile", metavar="FILE", help="operator JSON (default: build --op)")
    _add_table_args(p)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("compile", help="compile an operator to a post-selected circuit")
    p.add_argument("--op", required=True, choices=sorted(_BUILDERS))
    p.add_argument("--mode", choices=("paper", "exact"), default="exact")
    _add_table_args(p)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("simulate", help="run a circuit on a basis input")
    p.add_argument("--circuit", default="-", metavar="FILE", help="circuit JSON (default stdin)")
    p.add_argument("--in", dest="input", metavar="BITS", help="work-register basis state")
    p.add_argument("--effective", action="store_true",
                   help="print the full post-selected block instead")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify", help="compile, simulate and compare against the target")
    p.add_argument("--op", required=True, choices=sorted(_BUILDERS))
    p.add_argument("--mode", choices=("paper", "exact"), default="exact")
    _add_table_args(p)
    p.add_argument("--report", default="-", metavar="FILE")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("reproduce-paper", help="run the full reference reproduction bundle")
    p.add_argument("--convention", choices=sorted(_CONVENTIONS), default="paper")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_reproduce)

    p = sub.add_parser("emit", help="render a circuit as flat text")
    p.add_argument("--circuit", default="-", metavar="FILE", help="circuit JSON (default stdin)")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_emit)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors; pass both on
        return int(exc.code or 0)
    try:
        return args.func(args)
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except (_UsageError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    console_entry()
