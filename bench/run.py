"""The cqs benchmark: one workload, one process, one closed-loop client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Imports `cqs` from src/ next to this directory, builds the workload's
seeded inputs, then runs its job back to back for S seconds (at least one
job), checking every job's outputs with the workload's oracle.  The last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics; the lines above it print every metric with its unit.

--trace 0 reports the end-to-end metrics.  --trace 1 runs S/2 seconds
untraced, then S/2 seconds with a span around every call into a layer, and
reports the per-layer metrics; its spans are written once, at the end, to
bench/out/.  BLAS/OpenMP pools are pinned to one thread.
"""

import time

START = time.perf_counter()

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path

from tracing import Tracer, replaced
from workloads import WORKLOADS, make_api, trace_targets

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_PROBES = 6  # extra set-ups in fresh processes; setup_s is the median
P90_MIN_JOBS = 100  # a p90 needs ten samples beyond it

END_TO_END_UNITS = {
    "setup_s": "s",
    "job_ms.best": "ms",
    "peak_rss_mb": "MiB",
    "circuit.gates": "count",
    "circuit.ancillas": "count",
    "circuit.controls_max": "count",
    "circuit.success_prob_min": "ratio",
}

PER_LAYER_UNITS = {
    "statevector.ms": "ms",
    "statevector.gate_applications": "count",
    "statevector.amp_updates": "count",
    "statevector.ns_per_amp_update": "ns",
    "statevector.block_mb": "MiB",
    "pauli.expand.ms": "ms",
    "pauli.expand.calls": "count",
    "pauli.expand.terms": "count",
    "duality_compiler.compile_exact.ms": "ms",
    "duality_compiler.gates_per_s": "1/s",
    "frobenius.build.ms": "ms",
    "frobenius.build.calls": "count",
    "verify.residual_max": "ratio",
    "cli.stdout_bytes": "bytes",
    "reptheory.su3_truncation.ms": "ms",
    "encoding.default_encoding.ms": "ms",
    "trace.job_ms": "ms",
    "trace.unattributed_ms": "ms",
    "trace.overhead_ms": "ms",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    return args


def import_cqs():
    if not (SRC / "cqs" / "__init__.py").is_file():
        print(f"error: no cqs package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import cqs
    import cqs.cli  # noqa: F401  (not imported by the package itself)

    return cqs


def prepare(args, tracer=None):
    """Import cqs and build the workload's inputs: everything setup_s
    covers."""
    cqs = import_cqs()
    api = make_api(cqs)
    workload = WORKLOADS[args.workload](cqs, api)
    targets = trace_targets(api, cqs)
    with ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(tracer.patched(targets))
        workload.setup(args.seed)
    return workload, targets


class StepClock:
    """Wall time of every call a job makes through the api namespace, in
    call order.  Calls nested inside the package are part of their caller's
    step."""

    def __init__(self):
        self.steps: list = []

    def take(self) -> list:
        steps, self.steps = self.steps, []
        return steps

    def wrap(self, fn):
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.steps.append(time.perf_counter() - start)

        return timed

    def bindings(self, api):
        """(holder, key, timed function) for every function in `api`."""
        for key, value in vars(api).items():
            if isinstance(value, dict):
                yield from ((value, tag, self.wrap(fn)) for tag, fn in value.items())
            else:
                yield api, key, self.wrap(value)


@dataclass
class Record:
    """One job: its id, time, the times of its steps, oracle failures and
    ledger (None if it raised)."""

    index: int
    seconds: float
    steps: list
    failures: list
    ledger: object
    stdout_bytes: int


def closed_loop(workload, seconds, first_index, clock, tracer=None):
    """Run jobs back to back until `seconds` have passed; check each job's
    outputs outside its timed region."""
    records = []
    begin = time.perf_counter()
    while not records or time.perf_counter() - begin < seconds:
        index = first_index + len(records)
        if tracer is not None:
            tracer.job = index
        clock.take()
        started = time.perf_counter()
        try:
            outputs = workload.job()
        except Exception:
            elapsed = time.perf_counter() - started
            traceback.print_exc()
            records.append(Record(index, elapsed, clock.take(), ["job raised"], None, 0))
            continue
        elapsed = time.perf_counter() - started
        steps = clock.take()
        if tracer is not None:
            tracer.job = "check"
        try:
            ledger = workload.check(outputs, index)
            failures = ledger.failures
        except Exception:
            traceback.print_exc()
            ledger, failures = None, ["oracle raised"]
        if records and len(steps) != len(records[0].steps):
            failures = failures + [f"{len(steps)} calls, job {records[0].index} made "
                                   f"{len(records[0].steps)}"]
        for failure in failures:
            print(f"job {index}: {failure}", file=sys.stderr)
        records.append(Record(index, elapsed, steps, failures, ledger,
                              workload.stdout_bytes(outputs)))
        del outputs
    return records


def median_ms(records):
    return statistics.median(r.seconds for r in records) * 1e3


def best_ms(records):
    """The job time with every part at its fastest in the run.  A job's
    parts are its calls through the api, in order, plus the harness's own
    time between them; every passing job makes the same calls."""
    parts = [r.steps + [r.seconds - sum(r.steps)] for r in records if not r.failures]
    if not parts:
        return min(r.seconds for r in records) * 1e3
    return sum(min(column) for column in zip(*parts)) * 1e3


def setup_samples(args, own):
    """Set up `SETUP_PROBES` more times, each in a fresh process timed from
    its own first statement, and return every sample."""
    samples = [own]
    for _ in range(SETUP_PROBES):
        probe = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(probe.stdout.split()[-1]))
    return samples


def first_ledger(records):
    """Job 0 carries the circuit costs; later jobs are checked equal to it."""
    for record in records:
        if record.ledger is not None and record.ledger.costs:
            return record.ledger
    return None


def end_to_end(args, workload, records, own_setup):
    busy = sum(r.seconds for r in records)
    ledger = first_ledger(records)
    metrics = {
        "setup_s": statistics.median(setup_samples(args, own_setup)),
        "job_ms.best": best_ms(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    circuit = ledger.metrics() if ledger else dict.fromkeys(
        ("circuit.gates", "circuit.ancillas", "circuit.controls_max",
         "circuit.success_prob_min"), 0)
    metrics.update(circuit)
    failed = sum(1 for r in records if r.failures)
    print(f"workload {workload.name} seed {args.seed}: {len(records)} jobs, "
          f"{busy:.3f} s busy, {failed} failed")
    for name, value in metrics.items():
        note = ""
        if name == "setup_s":
            note = f"  (median of {1 + SETUP_PROBES} set-ups)"
        elif name == "job_ms.best":
            note = f"  (n={len(records)}, {len(records[0].steps)} calls per job)"
        elif name == "peak_rss_mb" and ledger:
            note = f"  (statevector.block_mb {ledger.block_mib:.3f} MiB)"
        print(f"  {name:28s} {value:.6g} {END_TO_END_UNITS[name]}{note}")
    # Closed-loop wall-clock figures: printed, not declared, since they
    # follow the shared host's load (README.md, Noise).
    print(f"  {'jobs_per_s':28s} {len(records) / busy:.6g} 1/s")
    print(f"  {'job_ms.p50':28s} {median_ms(records):.6g} ms  (n={len(records)})")
    if len(records) >= P90_MIN_JOBS:
        p90 = statistics.quantiles([r.seconds for r in records], n=10)[-1] * 1e3
        print(f"  {'job_ms.p90':28s} {p90:.6g} ms  (n={len(records)})")
    else:
        print(f"  {'job_ms.p90':28s} n/a  (needs {P90_MIN_JOBS} jobs, n={len(records)})")
    print(f"  {'failed_frac':28s} {failed / len(records):.6g} ratio  ({failed}/{len(records)})")
    if ledger:
        print(f"  circuit detail: {json.dumps(ledger.detail(), sort_keys=True)}")
    return metrics, END_TO_END_UNITS


def per_layer(workload, tracer, untraced, traced):
    """Per-job means over the traced jobs, so the layers' self times and the
    unattributed remainder add up to the traced job time."""
    selfs = tracer.self_times()
    jobs = {r.index for r in traced}
    n = len(jobs)

    def self_ms(name):
        return sum(selfs.get((job, name), 0.0) for job in jobs) / n * 1e3

    def count(name):
        return sum(tracer.counts.get((job, name), 0.0) for job in jobs) / n

    def setup_ms(name):
        return selfs.get(("setup", name), 0.0) * 1e3

    names = sorted({name for (job, name) in selfs if job in jobs})
    sv_ms = self_ms("statevector.effective_operator") + self_ms("statevector.run")
    amp_updates = count("statevector.amp_updates")
    compile_ms = self_ms("duality_compiler.compile_exact") + self_ms("duality_compiler.compile_paper")
    layers_ms = sum(self_ms(name) for name in names)
    job_ms = sum(r.seconds for r in traced) / n * 1e3
    ledgers = [r.ledger for r in untraced + traced if r.ledger is not None]
    ledger = first_ledger(untraced + traced)
    metrics = {
        "statevector.ms": sv_ms,
        "statevector.gate_applications": count("statevector.gate_applications"),
        "statevector.amp_updates": amp_updates,
        "statevector.ns_per_amp_update": sv_ms * 1e6 / amp_updates if amp_updates else 0.0,
        "statevector.block_mb": ledger.block_mib if ledger else 0.0,
        "pauli.expand.ms": self_ms("pauli.expand"),
        "pauli.expand.calls": count("pauli.expand.calls"),
        "pauli.expand.terms": count("pauli.expand.terms"),
        "duality_compiler.compile_exact.ms": self_ms("duality_compiler.compile_exact"),
        "duality_compiler.gates_per_s":
            count("duality_compiler.gates") / compile_ms * 1e3 if compile_ms else 0.0,
        "frobenius.build.ms": self_ms("frobenius.build"),
        "frobenius.build.calls": count("frobenius.build.calls"),
        "verify.residual_max": max((l.residual_max for l in ledgers), default=0.0),
        "cli.stdout_bytes": sum(r.stdout_bytes for r in traced) / n,
        "reptheory.su3_truncation.ms": setup_ms("reptheory.su3_truncation"),
        "encoding.default_encoding.ms": setup_ms("encoding.default_encoding"),
        "trace.job_ms": job_ms,
        "trace.unattributed_ms": job_ms - layers_ms,
        "trace.overhead_ms": median_ms(traced) - median_ms(untraced),
    }
    print(f"workload {workload.name}: {len(untraced)} untraced jobs, then {n} traced jobs")
    print("  self time per traced job, by span:")
    for name in names:
        calls = sum(1 for span in tracer.spans if span[0] == name and span[4] in jobs) / n
        print(f"    {name:40s} {self_ms(name):12.4f} ms  {calls:10.1f} calls")
    print(f"    {'(sum of layers)':40s} {layers_ms:12.4f} ms")
    print("  set-up self time, by span:")
    for (job, name), seconds in sorted(selfs.items(), key=lambda item: item[0][1]):
        if job == "setup":
            print(f"    {name:40s} {seconds * 1e3:12.4f} ms")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:.6g} {PER_LAYER_UNITS[name]}")
    return metrics, PER_LAYER_UNITS


def main(argv=None):
    args = parse_args(argv)
    if args.setup_probe:
        prepare(args)
        print(time.perf_counter() - START)
        return 0
    tracer = Tracer() if args.trace else None
    workload, targets = prepare(args, tracer)
    own_setup = time.perf_counter() - START
    clock = StepClock()
    with ExitStack() as stack:
        for holder, key, value in [*workload.taps(), *clock.bindings(workload.api)]:
            stack.enter_context(replaced(holder, key, value))
        if tracer is None:
            records = closed_loop(workload, args.seconds, 0, clock)
            metrics, units = end_to_end(args, workload, records, own_setup)
        else:
            untraced = closed_loop(workload, args.seconds / 2, 0, clock)
            with tracer.patched(targets):
                traced = closed_loop(workload, args.seconds / 2, len(untraced), clock, tracer)
            records = untraced + traced
            metrics, units = per_layer(workload, tracer, untraced, traced)
            tracer.dump(OUT / f"trace-{workload.name}-seed{args.seed}.json")
    failed = sum(1 for r in records if r.failures)
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
