"""The benchmark harness looks up package names (builder registries, the
functions bound in calling modules) in every run, traced or not; a rename
under src/ would break each run.  This resolves every lookup without
running a workload."""

import sys
from pathlib import Path

import pytest

import cqs
import cqs.cli  # noqa: F401  (not imported by the package itself)

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def bench_modules():
    sys.path.insert(0, str(BENCH))
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import tracing
        import workloads
    finally:
        sys.path.remove(str(BENCH))
        sys.dont_write_bytecode = write_bytecode
    return tracing, workloads


def test_trace_targets_resolve_to_callables(bench_modules):
    tracing, workloads = bench_modules
    targets = workloads.trace_targets(workloads.make_api(cqs), cqs)
    assert targets
    for holder, key, span, _counter in targets:
        assert callable(tracing.lookup(holder, key)), (key, span)
