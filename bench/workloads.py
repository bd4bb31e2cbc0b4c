"""The benchmark's workloads: seeded inputs, one job, and its oracle.

Every job of a run repeats the same work on the same seeded inputs, so a
job's outputs can be checked against the dense targets and byte-compared
with job 0.  The package receives only the generated inputs: irrep tables,
betas and basis-state bitstrings.  See README.md for why each workload was
chosen and which layers it stresses.
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stdout
from types import SimpleNamespace

import numpy as np

from costs import RESIDUAL_LIMIT, Ledger

AXIOM_LIMIT = 1e-12
FIVE_GENERATORS = ("mu", "delta", "eta", "eps", "cylinder")
FOUR_GENERATORS = ("mu", "delta", "eta", "eps")


def make_api(cqs) -> SimpleNamespace:
    """The public functions the harness calls, looked up here so a traced
    run can wrap them without touching the package."""
    f, dc, sv, vf = cqs.frobenius, cqs.duality_compiler, cqs.statevector, cqs.verify
    return SimpleNamespace(
        su3_truncation=cqs.reptheory.su3_truncation,
        default_encoding=cqs.encoding.default_encoding,
        build={
            "mu": f.build_mu,
            "delta": f.build_delta,
            "eta": f.build_eta,
            "eps": f.build_epsilon,
            "cylinder": f.build_cylinder,
        },
        compile_exact=dc.compile_exact,
        compile_paper=dc.compile_paper,
        paper_factored_form=dc.paper_factored_form,
        emit_text=dc.emit_text,
        run=sv.run,
        effective_operator=sv.effective_operator,
        verify_compiled=vf.verify_compiled,
        axiom_suite=vf.axiom_suite,
        reproduce_paper=vf.reproduce_paper,
        cli_main=cqs.cli.main,
    )


def _count(name):
    return lambda tracer, args, result: tracer.count(name, 1)


def _count_terms(tracer, args, result) -> None:
    tracer.count("pauli.expand.calls", 1)
    tracer.count("pauli.expand.terms", len(result))


def _count_gates(tracer, args, result) -> None:
    tracer.count("duality_compiler.gates", len(result[0].gates))


def _count_simulation(columns_of):
    def counter(tracer, args, result) -> None:
        circuit = args[0]
        gates = len(circuit.gates)
        tracer.count("statevector.gate_applications", gates)
        tracer.count("statevector.amp_updates", gates * 2**circuit.n_qubits * columns_of(circuit))
    return counter


def trace_targets(api, cqs) -> list:
    """(holder, key, span name, counter) for every call into a layer: the
    harness's own calls through `api`, plus the names bound in the calling
    module for the nested calls that the jobs reach."""
    vf, dc, cli = cqs.verify, cqs.duality_compiler, cqs.cli
    build = _count("frobenius.build.calls")
    targets = [(api.build, tag, "frobenius.build", build) for tag in api.build]
    targets += [(vf._BUILDERS, tag, "frobenius.build", build) for tag in vf._BUILDERS]
    targets.append((vf, "logical_form", "frobenius.build", build))
    for name, counter in (
        ("compile_exact", _count_gates),
        ("compile_paper", _count_gates),
        ("paper_factored_form", None),
    ):
        targets += [(holder, name, f"duality_compiler.{name}", counter) for holder in (api, vf)]
    targets.append((api, "emit_text", "duality_compiler.emit_text", None))
    targets.append((dc, "pauli_expand", "pauli.expand", _count_terms))
    targets.append((vf, "factorization_residual", "pauli.factorization_residual", None))
    whole_block = _count_simulation(lambda circuit: 2 ** len(circuit.work_qubits))
    targets += [(holder, "effective_operator", "statevector.effective_operator", whole_block)
                for holder in (api, vf)]
    targets.append((api, "run", "statevector.run", _count_simulation(lambda circuit: 1)))
    targets.append((vf, "compare_up_to_scale", "verify.compare", None))
    for name in ("verify_compiled", "axiom_suite"):
        targets += [(holder, name, f"verify.{name}", None) for holder in (api, vf)]
    targets += [(holder, "reproduce_paper", "verify.reproduce_paper", None) for holder in (api, cli)]
    targets.append((api, "cli_main", "cli.main", None))
    # FrobeniusSpec.su3 imports these from their modules at call time
    targets += [(holder, "su3_truncation", "reptheory.su3_truncation", None)
                for holder in (api, cqs.reptheory)]
    targets += [(holder, "default_encoding", "encoding.default_encoding", None)
                for holder in (api, cqs.encoding)]
    return targets


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Workload:
    name = ""

    def __init__(self, cqs, api):
        self.cqs = cqs
        self.api = api
        self.reference = None  # what job 0 produced, for byte/cost comparison

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def taps(self) -> list:
        """(holder, key, replacement) bindings kept for the whole run."""
        return []

    def job(self):
        raise NotImplementedError

    def check(self, outputs, index: int) -> Ledger:
        raise NotImplementedError

    def stdout_bytes(self, outputs) -> int:
        return 0

    def _su3_spec(self, count: int, beta: float, convention=None):
        f = self.cqs.frobenius
        table = self.api.su3_truncation(count)
        convention = convention or f.PhaseConvention.PAPER_LITERAL
        return f.FrobeniusSpec(table, self.api.default_encoding(table), beta, convention)

    def _same_as_job0(self, ledger: Ledger, index: int, fingerprint) -> None:
        if index == 0:
            self.reference = fingerprint
        elif fingerprint != self.reference:
            ledger.fail("outputs differ from job 0")


class PaperBundle(Workload):
    """reproduce_paper under both conventions, the CLI bundle, and the
    axiom suite on seeded random tables."""

    name = "paper_bundle"
    # One table per encoding width (1, 2 and 3 bits per circle), with the
    # sizes fixed: a seeded size would change the job's work with the seed.
    table_sizes = (1, 3, 4, 6)

    def setup(self, seed: int) -> None:
        cqs = self.cqs
        f, rt = cqs.frobenius, cqs.reptheory
        rng = np.random.default_rng(seed)
        conventions = list(f.PhaseConvention)
        self.axiom_specs = []
        for trial, size in enumerate(self.table_sizes):
            entries = tuple(
                rt.RepEntry(f"R{k}", float(rng.uniform(0.0, 5.0)), int(rng.integers(1, 10)))
                for k in range(size)
            )
            table = rt.RepTable(entries)
            self.axiom_specs.append(f.FrobeniusSpec(
                table,
                self.api.default_encoding(table),
                beta=float(rng.uniform(0.0, 2.0)),
                convention=conventions[trial % 2],
            ))
        # the bundle's own inputs, for the oracle pass over its circuits
        self.bundle_specs = [self._su3_spec(3, 1.0, c) for c in f.PhaseConvention]
        self.argv = ["reproduce-paper", "--convention", "paper"]

    def job(self):
        api = self.api
        bundles = [api.reproduce_paper(spec.convention) for spec in self.bundle_specs]
        stdout = io.StringIO()
        with redirect_stdout(stdout):
            code = api.cli_main(self.argv)
        axioms = [api.axiom_suite(spec) for spec in self.axiom_specs]
        return bundles, code, stdout.getvalue(), axioms

    def stdout_bytes(self, outputs) -> int:
        return len(outputs[2].encode())

    def check(self, outputs, index: int) -> Ledger:
        bundles, code, text, axioms = outputs
        ledger = Ledger()
        if code != 0:
            ledger.fail(f"cli exit code {code}")
        dumps = [json.dumps(b, indent=2, sort_keys=True) + "\n" for b in bundles]
        if text != dumps[0]:
            ledger.fail("cli bundle differs from the direct reproduce_paper call")
        self._same_as_job0(ledger, index, [_digest(d) for d in dumps + [text]])
        for bundle in bundles:
            for op, reports in bundle["reports"].items():
                for mode in ("exact", "paper"):
                    residual = reports[mode]["relative_residual"]
                    ledger.residual_max = max(ledger.residual_max, residual)
                    if not residual <= RESIDUAL_LIMIT:
                        ledger.fail(f"bundle {op}/{mode}: residual {residual:.3e}")
        for spec, deviations in zip(self.axiom_specs, axioms):
            worst = max(value for _name, value in deviations)
            if not worst <= AXIOM_LIMIT:
                ledger.fail(f"axiom deviation {worst:.3e} on a table of {len(spec.table)}")
        if index == 0:
            self._check_bundle_circuits(ledger, bundles)
        return ledger

    def _check_bundle_circuits(self, ledger: Ledger, bundles) -> None:
        """Recompile and simulate the circuits the bundle reports on, check
        each block against its dense target, and take the circuit costs
        from them.  Runs after job 0, outside the timed region."""
        api = self.api
        for spec, bundle in zip(self.bundle_specs, bundles):
            for op in FOUR_GENERATORS:
                target = api.build[op](spec).matrix
                circuit, report = api.compile_exact(target)
                if report.to_dict() != bundle["reports"][op]["exact_compile"]:
                    ledger.fail(f"{op}: exact compile differs from the bundle's")
                block = api.effective_operator(circuit).matrix
                ledger.add_circuit(circuit, report)
                ledger.check_block(f"bundle {op}/exact", circuit, block, report.nominal_scale, target)
                circuit, report = api.compile_paper(op, spec)
                form = api.paper_factored_form(op, spec).matrix()
                block = api.effective_operator(circuit).matrix
                ledger.add_circuit(circuit, report)
                ledger.check_block(f"bundle {op}/paper", circuit, block, report.nominal_scale, form)


class VerifySu3(Workload):
    """build -> compile_exact -> verify_compiled for all five generators at
    su3(7) with a seeded beta."""

    name = "verify_su3_7"
    truncation = 7

    def setup(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.spec = self._su3_spec(self.truncation, float(rng.uniform(0.25, 2.0)))
        self.blocks: list = []

    def taps(self) -> list:
        """Keep each effective operator verify_compiled computes: the oracle
        needs the raw block, which VerifyReport does not carry."""
        verify = self.cqs.verify
        simulate = verify.effective_operator

        def kept(circuit):
            effective = simulate(circuit)
            self.blocks.append(effective.matrix)
            return effective

        return [(verify, "effective_operator", kept)]

    def job(self):
        api = self.api
        self.blocks.clear()
        results = []
        for op in FIVE_GENERATORS:
            target = api.build[op](self.spec)
            circuit, report = api.compile_exact(target)
            results.append((op, target.matrix, circuit, report,
                            api.verify_compiled(circuit, target, op, "exact")))
        return results, list(self.blocks)

    def check(self, outputs, index: int) -> Ledger:
        results, blocks = outputs
        ledger = Ledger()
        if len(blocks) != len(results):
            ledger.fail(f"{len(blocks)} blocks kept for {len(results)} circuits")
            return ledger
        for (op, target, circuit, report, verdict), block in zip(results, blocks):
            ledger.add_circuit(circuit, report)
            ledger.check_block(op, circuit, block, report.nominal_scale, target)
            if not verdict.relative_residual <= RESIDUAL_LIMIT:
                ledger.fail(f"{op}: verify_compiled residual {verdict.relative_residual:.3e}")
        self._same_as_job0(ledger, index, ledger.costs)
        return ledger


class CompileSu3(Workload):
    """build -> compile_exact -> emit_text plus compile_paper for the four
    generators at su3(15), then single-column runs of eta and eps on the
    vacuum, the singlet and one seeded irrep."""

    name = "compile_su3_15"
    truncation = 15
    simulated = ("eta", "eps")

    def setup(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.spec = self._su3_spec(self.truncation, float(rng.uniform(0.25, 2.0)))
        encoding, entries = self.spec.encoding, self.spec.table.entries
        seeded = entries[int(rng.integers(len(entries)))]
        # The singlet (entries[0], dimension 1) is eps's least likely input,
        # so circuit.success_prob_min does not depend on the seeded draw.
        self.inputs = (encoding.vacuum, encoding.bits(entries[0].label),
                       encoding.bits(seeded.label))

    def job(self):
        api = self.api
        compiled = {}
        for op in FOUR_GENERATORS:
            target = api.build[op](self.spec)
            circuit, report = api.compile_exact(target)
            text = api.emit_text(circuit)
            compiled[op] = (target.matrix, circuit, report, text,
                            api.compile_paper(op, self.spec))
        runs = [(op, bits, api.run(compiled[op][1], bits))
                for op in self.simulated for bits in self.inputs]
        return compiled, runs

    def check(self, outputs, index: int) -> Ledger:
        compiled, runs = outputs
        ledger = Ledger()
        for op, (_target, circuit, report, _text, paper) in compiled.items():
            ledger.add_circuit(circuit, report)
            ledger.add_circuit(*paper)
        for op, bits, (vector, _probability) in runs:
            target, circuit, report = compiled[op][:3]
            column = target[:, [int(bits, 2)]]
            ledger.check_block(f"{op} on {bits}", circuit, vector.reshape(-1, 1),
                               report.nominal_scale, column)
        texts = [_digest(entry[3]) for entry in compiled.values()]
        self._same_as_job0(ledger, index, (texts, ledger.costs))
        return ledger


WORKLOADS = {w.name: w for w in (PaperBundle, VerifySu3, CompileSu3)}
