"""Plan-quality baseline store and regression gate.

``repro bench snapshot`` runs the full plan-quality grid — queries ×
policies × networks × runtimes — and writes one canonical JSON document
(``BENCH_plan_quality.json``) holding, per cell: virtual execution time,
answer count, time to first answer, dief@t / dief@k, every operator's
(estimate, actual) cardinality pair and the q-error summary.  The file is
committed; ``repro bench check`` rebuilds the exact same lake (scale and
seeds are stored in the file), re-runs the grid, and compares cell by cell
under configurable relative/absolute thresholds, exiting nonzero with a
per-cell diff on drift.  Because every quantity is virtual-clock-derived
and seeded, a clean tree reproduces the baseline bit-for-bit — any diff is
a real behaviour change, not machine noise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

from ..core.engine import FederatedEngine
from ..core.policy import PlanPolicy
from ..datalake.lake import SemanticDataLake
from ..network.delays import NetworkSetting
from .metrics import dief_at_k, dief_at_t

BASELINE_KIND = "repro-plan-quality-baseline"
BASELINE_VERSION = 1

#: Canonical short names for the grid axes (shared with the CLI).
POLICY_CHOICES = {
    "aware": PlanPolicy.physical_design_aware,
    "unaware": PlanPolicy.physical_design_unaware,
    "heuristic2": PlanPolicy.heuristic2,
    "source": PlanPolicy.filters_at_source,
    "triple": PlanPolicy.triple_wise,
    "dependent": PlanPolicy.dependent_join,
    "cost": PlanPolicy.cost,
}

NETWORK_CHOICES = {
    "nodelay": NetworkSetting.no_delay,
    "gamma1": NetworkSetting.gamma1,
    "gamma2": NetworkSetting.gamma2,
    "gamma3": NetworkSetting.gamma3,
}

#: The default plan-quality grid (the committed baseline's axes).
DEFAULT_QUERIES = ("Q1", "Q2", "Q3", "Q4", "Q5")
DEFAULT_POLICIES = ("aware", "unaware", "heuristic2", "source", "dependent")
DEFAULT_NETWORKS = ("nodelay", "gamma1", "gamma2", "gamma3")
DEFAULT_RUNTIMES = ("sequential", "event", "thread")


def cell_key(query: str, policy: str, network: str, runtime: str) -> str:
    return f"{query}|{policy}|{network}|{runtime}"


def measure_cell(
    lake: SemanticDataLake,
    query_text: str,
    policy: PlanPolicy,
    network: NetworkSetting,
    runtime: str,
    seed: int,
    exec: str = "batch",
) -> dict:
    """Execute one grid cell observed and distill its plan-quality record."""
    engine = FederatedEngine(
        lake, policy=policy, network=network, runtime=runtime, exec=exec
    )
    answers, stats, report = engine.analyze(query_text, seed=seed, runtime=runtime)
    trace = list(stats.trace)
    return {
        "answers": len(answers),
        "execution_time": stats.execution_time,
        "time_to_first_answer": stats.time_to_first_answer,
        "dief_t": dief_at_t(trace, stats.execution_time),
        "dief_k": dief_at_k(trace, len(answers)) if answers else None,
        "operators": [
            [op.label, op.estimated_rows, op.actual_rows] for op in report.operators
        ],
        "q_error_max": report.max_q_error,
        "q_error_mean": report.mean_q_error,
    }


def build_baseline(
    lake: SemanticDataLake,
    query_texts: dict[str, str],
    scale: float,
    data_seed: int,
    run_seed: int = 7,
    policies: Sequence[str] = DEFAULT_POLICIES,
    networks: Sequence[str] = DEFAULT_NETWORKS,
    runtimes: Sequence[str] = DEFAULT_RUNTIMES,
    exec: str = "batch",
) -> dict:
    """Measure the whole grid and assemble the canonical baseline document.

    *query_texts* maps query names to SPARQL text; *scale*/*data_seed* are
    recorded so ``check`` can rebuild the identical lake.  *exec* selects
    the data plane; since row and batch execution are bit-identical in
    virtual time, a baseline snapshotted under one plane must check clean
    under the other — which is how the CI gate exercises the row
    reference plane against numbers recorded under either.
    """
    cells: dict[str, dict] = {}
    for query_name, text in query_texts.items():
        for policy_name in policies:
            policy = POLICY_CHOICES[policy_name]()
            for network_name in networks:
                network = NETWORK_CHOICES[network_name]()
                for runtime in runtimes:
                    cells[cell_key(query_name, policy_name, network_name, runtime)] = (
                        measure_cell(
                            lake, text, policy, network, runtime, run_seed, exec=exec
                        )
                    )
    return {
        "kind": BASELINE_KIND,
        "version": BASELINE_VERSION,
        "scale": scale,
        "data_seed": data_seed,
        "run_seed": run_seed,
        "queries": sorted(query_texts),
        "policies": list(policies),
        "networks": list(networks),
        "runtimes": list(runtimes),
        "exec": exec,
        "cells": cells,
    }


def baseline_json(payload: dict) -> str:
    """The canonical serialization (sorted keys, 2-space indent)."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_baseline(payload: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(baseline_json(payload))


def load_baseline(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("kind") != BASELINE_KIND:
        raise ValueError(f"{path}: not a plan-quality baseline (kind={payload.get('kind')!r})")
    if payload.get("version") != BASELINE_VERSION:
        raise ValueError(
            f"{path}: baseline version {payload.get('version')!r} != "
            f"supported {BASELINE_VERSION}"
        )
    return payload


@dataclass(frozen=True)
class Thresholds:
    """Allowed drift before a cell counts as a regression.

    Counts (answers, per-operator cardinalities, estimates) are always
    compared exactly — they are integers of the deterministic semantics.
    Times and diefficiency get a relative + absolute corridor; since
    virtual timelines are seeded and deterministic, the defaults are tight
    and exist mainly so an intentional cost-model tweak can be rolled out
    by loosening them explicitly rather than editing the comparator.
    """

    rel_time: float = 0.01
    abs_time: float = 1e-9
    rel_dief: float = 0.01
    abs_dief: float = 1e-9

    def time_ok(self, baseline: float, fresh: float) -> bool:
        return abs(fresh - baseline) <= self.abs_time + self.rel_time * abs(baseline)

    def dief_ok(self, baseline: float, fresh: float) -> bool:
        return abs(fresh - baseline) <= self.abs_dief + self.rel_dief * abs(baseline)


@dataclass
class CellDiff:
    """One divergence between the committed baseline and a fresh run."""

    key: str
    quantity: str
    baseline: object
    fresh: object
    detail: str = ""

    def describe(self) -> str:
        line = f"{self.key} {self.quantity}: baseline {self.baseline!r} -> fresh {self.fresh!r}"
        if self.detail:
            line += f" ({self.detail})"
        return line


@dataclass
class ComparisonReport:
    """Every diff of one baseline comparison, renderable as the CI artifact."""

    diffs: list[CellDiff] = field(default_factory=list)
    cells_compared: int = 0
    thresholds: Thresholds = field(default_factory=Thresholds)

    @property
    def ok(self) -> bool:
        return not self.diffs

    def render(self) -> str:
        if self.ok:
            return (
                f"plan-quality baseline OK: {self.cells_compared} cells match "
                f"(rel_time={self.thresholds.rel_time:g}, "
                f"rel_dief={self.thresholds.rel_dief:g})"
            )
        lines = [
            f"plan-quality baseline DRIFT: {len(self.diffs)} differences across "
            f"{self.cells_compared} compared cells "
            f"(rel_time={self.thresholds.rel_time:g}, rel_dief={self.thresholds.rel_dief:g})"
        ]
        lines.extend(f"  {diff.describe()}" for diff in self.diffs)
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "cells_compared": self.cells_compared,
            "thresholds": {
                "rel_time": self.thresholds.rel_time,
                "abs_time": self.thresholds.abs_time,
                "rel_dief": self.thresholds.rel_dief,
                "abs_dief": self.thresholds.abs_dief,
            },
            "diffs": [
                {
                    "key": diff.key,
                    "quantity": diff.quantity,
                    "baseline": diff.baseline,
                    "fresh": diff.fresh,
                    "detail": diff.detail,
                }
                for diff in self.diffs
            ],
        }


def _relative_drift(baseline: float, fresh: float) -> str:
    if baseline:
        return f"{(fresh - baseline) / baseline:+.2%}"
    return f"{fresh - baseline:+g} abs"


def compare_cell(
    key: str, baseline: dict, fresh: dict, thresholds: Thresholds
) -> list[CellDiff]:
    diffs: list[CellDiff] = []
    if baseline["answers"] != fresh["answers"]:
        diffs.append(
            CellDiff(key, "answers", baseline["answers"], fresh["answers"], "exact match required")
        )
    base_ops = [tuple(op) for op in baseline["operators"]]
    fresh_ops = [tuple(op) for op in fresh["operators"]]
    if base_ops != fresh_ops:
        changed = [
            f"{b[0]}: est {b[1]}->{f[1]} rows {b[2]}->{f[2]}"
            for b, f in zip(base_ops, fresh_ops)
            if b != f
        ]
        if len(base_ops) != len(fresh_ops):
            changed.append(f"operator count {len(base_ops)} -> {len(fresh_ops)}")
        diffs.append(
            CellDiff(
                key,
                "operators",
                len(base_ops),
                len(fresh_ops),
                "; ".join(changed) or "plan shape changed",
            )
        )
    for quantity, check in (
        ("execution_time", thresholds.time_ok),
        ("time_to_first_answer", thresholds.time_ok),
        ("dief_t", thresholds.dief_ok),
        ("dief_k", thresholds.dief_ok),
        ("q_error_max", thresholds.dief_ok),
        ("q_error_mean", thresholds.dief_ok),
    ):
        base_value, fresh_value = baseline[quantity], fresh[quantity]
        if base_value is None or fresh_value is None:
            if base_value != fresh_value:
                diffs.append(CellDiff(key, quantity, base_value, fresh_value, "null vs value"))
            continue
        if not check(base_value, fresh_value):
            diffs.append(
                CellDiff(
                    key,
                    quantity,
                    base_value,
                    fresh_value,
                    f"{_relative_drift(base_value, fresh_value)} drift beyond tolerance",
                )
            )
    return diffs


def compare_baselines(
    baseline: dict, fresh: dict, thresholds: Thresholds | None = None
) -> ComparisonReport:
    """Cell-by-cell comparison of two baseline documents (either direction
    of drift fails — a speedup also invalidates the committed file and
    should be re-snapshotted deliberately)."""
    thresholds = thresholds or Thresholds()
    report = ComparisonReport(thresholds=thresholds)
    base_cells: dict[str, dict] = baseline["cells"]
    fresh_cells: dict[str, dict] = fresh["cells"]
    for key in sorted(base_cells.keys() | fresh_cells.keys()):
        if key not in fresh_cells:
            report.diffs.append(CellDiff(key, "cell", "present", "missing", "cell not re-run"))
            continue
        if key not in base_cells:
            report.diffs.append(
                CellDiff(key, "cell", "missing", "present", "cell absent from baseline")
            )
            continue
        report.cells_compared += 1
        report.diffs.extend(compare_cell(key, base_cells[key], fresh_cells[key], thresholds))
    return report
