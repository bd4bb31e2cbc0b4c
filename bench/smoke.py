"""Smoke test of the benchmark.

    python3 bench/smoke.py

Runs one job of every workload in BENCHMARK.json, untraced and traced
(`--seconds 0` runs a single job per timed phase), and checks that:

- each run exits 0 and ends with a correct JSON result whose metrics are
  exactly the ones BENCHMARK.json names, each with its declared unit;
- the untraced summary prints every end-to-end metric with its unit, plus
  failed_frac and job_ms.p90;
- mu compiles in exact mode to 266 / 3054 / 30910 gates and 6 / 9 / 12
  ancillas at su3(3) / su3(7) / su3(15).

Prints one line per failed check and exits 1 if there is any.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MU_COSTS = {3: (266, 6), 7: (3054, 9), 15: (30910, 12)}


def run_once(workload: str, trace: int, spec: dict, problems: list) -> None:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        problems.append(f"{where}: exit code {proc.returncode}\n{proc.stderr[-2000:]}")
        return
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
        return
    if not result["correct"] or result["failed"] or result["attempted"] != 1 + trace:
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}\n{proc.stderr[-2000:]}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != declared:
        problems.append(f"{where}: metrics {printed} differ from BENCHMARK.json {declared}")
    if not trace:
        summary = "\n".join(lines[:-1])
        expected = dict(declared, failed_frac="ratio", jobs_per_s="1/s", **{"job_ms.p50": "ms"})
        for name, unit in expected.items():
            if not re.search(rf"^\s+{re.escape(name)}\s+\S+ {re.escape(unit)}\b", summary, re.M):
                problems.append(f"{where}: summary does not print {name} in {unit}")
        if not re.search(r"^\s+job_ms\.p90\s", summary, re.M):
            problems.append(f"{where}: summary does not print job_ms.p90")


def check_mu_costs(problems: list) -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from cqs import FrobeniusSpec, build_mu, compile_exact
    from costs import circuit_costs

    for count, expected in MU_COSTS.items():
        costs = circuit_costs(*compile_exact(build_mu(FrobeniusSpec.su3(count))))
        found = (costs["gates"], costs["ancillas"])
        if found != expected:
            problems.append(f"mu at su3({count}): gates, ancillas {found}, expected {expected}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list = []
    for workload in spec["workloads"]:
        for trace in (0, 1):
            run_once(workload["name"], trace, spec, problems)
    check_mu_costs(problems)
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
