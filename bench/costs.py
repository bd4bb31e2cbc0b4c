"""Circuit costs and the correctness oracle shared by the workloads.

Costs are read only from public fields: `Circuit.gates` /
`work_qubits` / `ancilla_qubits`, `CompileReport.nominal_scale` and the raw
block of an `EffectiveOperator` or a `run` output.  Success probabilities
are squared column norms of that raw block, not the `success_probabilities`
dict, which clips to [0, 1] and would hide a value above 1.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

RESIDUAL_LIMIT = 1e-10
NORM_SLACK = 1e-12
SUPPORT_CUTOFF = 1e-12
AMPLITUDE_BYTES = 16  # complex128


def circuit_costs(circuit, report) -> dict:
    """Gates by kind, a histogram of control counts, ancillas and the
    nominal scale of one compiled circuit."""
    controls = Counter(len(gate.controls) for gate in circuit.gates)
    return {
        "gates": len(circuit.gates),
        "ancillas": len(circuit.ancilla_qubits),
        "controls_max": max(controls, default=0),
        "gates_by_kind": dict(sorted(Counter(g.kind for g in circuit.gates).items())),
        "controls_hist": dict(sorted(controls.items())),
        "nominal_scale": abs(report.nominal_scale),
    }


def block_mib(circuit, columns: int) -> float:
    """Size of the amplitude block the simulator allocates for `columns`
    input columns of `circuit`."""
    return 2**circuit.n_qubits * columns * AMPLITUDE_BYTES / 2**20


def relative_residual(block: np.ndarray, scale: complex, target: np.ndarray) -> float:
    """||scale * block - target|| / ||target||: a compiled block must equal
    target / nominal_scale, so no scale is fitted here."""
    norm = float(np.linalg.norm(target))
    error = float(np.linalg.norm(scale * block - target))
    return error / norm if norm else error


def column_norms(block: np.ndarray) -> np.ndarray:
    """Squared norm of each column of a raw post-selected block."""
    return np.sum(np.abs(block) ** 2, axis=0)


def support_probabilities(block: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Squared column norms on the inputs the target does not annihilate;
    elsewhere the success probability is 0 by construction.  A target
    column counts as zero below SUPPORT_CUTOFF of the largest one: rounding
    leaves ~1e-33 entries in columns of the paper factored forms that are
    zero in exact arithmetic."""
    target_norms = np.linalg.norm(target, axis=0)
    return column_norms(block)[target_norms > SUPPORT_CUTOFF * np.max(target_norms)]


class Ledger:
    """Circuit costs and oracle results of one job, folded into the
    workload's `circuit.*` metrics."""

    def __init__(self):
        self.costs: list[dict] = []
        self.support: list[float] = []
        self.block_mib = 0.0
        self.residual_max = 0.0
        self.failures: list[str] = []

    def add_circuit(self, circuit, report) -> None:
        self.costs.append(circuit_costs(circuit, report))

    def check_block(self, label: str, circuit, block, scale, target) -> None:
        """Oracle for one simulated block against its dense target."""
        columns = block.shape[1]
        self.block_mib = max(self.block_mib, block_mib(circuit, columns))
        residual = relative_residual(block, scale, target)
        self.residual_max = max(self.residual_max, residual)
        if not residual <= RESIDUAL_LIMIT:
            self.fail(f"{label}: residual {residual:.3e} against the dense target")
        norms = column_norms(block)
        if norms.size and not np.max(norms) <= 1.0 + NORM_SLACK:
            self.fail(f"{label}: raw column norm^2 {np.max(norms)!r} exceeds 1")
        self.support.extend(float(p) for p in support_probabilities(block, target))

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def metrics(self) -> dict:
        return {
            "circuit.gates": sum(c["gates"] for c in self.costs),
            "circuit.ancillas": sum(c["ancillas"] for c in self.costs),
            "circuit.controls_max": max(c["controls_max"] for c in self.costs),
            "circuit.success_prob_min": min(self.support),
        }

    def detail(self) -> dict:
        by_kind: Counter = Counter()
        hist: Counter = Counter()
        for c in self.costs:
            by_kind.update(c["gates_by_kind"])
            hist.update(c["controls_hist"])
        return {
            "circuits": len(self.costs),
            "gates_by_kind": dict(sorted(by_kind.items())),
            "controls_hist": {str(k): v for k, v in sorted(hist.items())},
            "nominal_scales": [c["nominal_scale"] for c in self.costs],
            "block_mib": self.block_mib,
        }
