"""A/A comparison and the committed baseline.

``aa`` makes two interleaved sets of N full runs of this checkout (run i of
both sets uses seed i) and reports, per workload x end-to-end metric, each
set's median and quartiles, the relative gap between the medians, the
interquartile spread inside each set, and the metric's bound from
``BENCHMARK.json``.  Same-seed runs must agree exactly on everything that is
a count, ``virtual_s_per_op`` included.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys

from .env import RESULTS, ROOT, measuring_environment
from .layers import PER_LAYER
from .stats import quartiles, spread


def contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_cli(*arguments: str) -> dict:
    """One ``python -m perfbench ... --json`` in a fresh process."""
    done = subprocess.run(
        [sys.executable, "-m", "perfbench", *arguments, "--json"],
        capture_output=True,
        text=True,
        cwd=ROOT,
        # A fresh start stamp: set-up time counts from this process's start,
        # not from the A/A command's.
        env=measuring_environment(),
    )
    if not done.stdout.strip():
        raise RuntimeError(f"perfbench {' '.join(arguments)} failed: {done.stderr}")
    document = json.loads(done.stdout.strip().splitlines()[-1])
    if not document["correct"]:
        raise RuntimeError(f"perfbench {' '.join(arguments)}: {document['failures']}")
    return document


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg": list(os.getloadavg()),
    }


def write_report(report: dict, path: str) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path}")


def values_of(document: dict) -> dict:
    return {name: entry["value"] for name, entry in document["metrics"].items()}


def worse_by(first: float, second: float, better: str) -> float:
    """Share of *first* by which *second* is worse (negative = better)."""
    change = (second - first) / first
    return change if better == "lower" else -change


def run_aa(runs: int, workloads: list[str], smoke: bool, out: str | None) -> int:
    spec = contract()
    flags = ["--smoke"] if smoke else []
    report = {"environment_before": environment(), "runs_per_set": runs, "workloads": {}}
    verdict = 0
    for workload in workloads:
        sets: dict[str, list[dict]] = {"a": [], "b": []}
        exact = True
        for index in range(runs):
            seed = str(index + 1)
            # Alternate which set goes first so drift hits both alike.
            for label in ("ab", "ba")[index % 2]:
                sets[label].append(
                    values_of(run_cli("run", workload, "--seed", seed, *flags))
                )
            exact = exact and (
                sets["a"][-1]["virtual_s_per_op"] == sets["b"][-1]["virtual_s_per_op"]
            )
            print(f"{workload}: pair {index + 1}/{runs} done", file=sys.stderr)
        traces = [
            values_of(run_cli("trace", workload, "--seed", "1", *flags))
            for __ in range(2)
        ]
        drifting = [
            name
            for name, __, is_exact in PER_LAYER
            if is_exact and traces[0][name] != traces[1][name]
        ]
        rows = {}
        for entry in spec["end_to_end"]:
            name, bound = entry["name"], entry["bound"]
            a = [values[name] for values in sets["a"]]
            b = [values[name] for values in sets["b"]]
            qa, qb = quartiles(a), quartiles(b)
            gap = worse_by(qa[1], qb[1], entry["better"])
            row = {
                "unit": entry["unit"],
                "bound": bound,
                "a": {"q1": qa[0], "median": qa[1], "q3": qa[2], "spread": spread(a)},
                "b": {"q1": qb[0], "median": qb[1], "q3": qb[2], "spread": spread(b)},
                "gap": gap,
                "values_a": a,
                "values_b": b,
            }
            row["within_bound"] = abs(gap) <= bound and (
                name == "setup_s" or max(row["a"]["spread"], row["b"]["spread"]) <= bound
            )
            rows[name] = row
            if not row["within_bound"]:
                verdict = 1
            print(
                f"{workload:<13} {name:<20} a={qa[1]:<12.6g} b={qb[1]:<12.6g} "
                f"gap={gap:+.4f} spread={row['a']['spread']:.4f}/"
                f"{row['b']['spread']:.4f} bound={bound:g} "
                f"{'ok' if row['within_bound'] else 'OUTSIDE'}"
            )
        if not exact or drifting:
            verdict = 1
        report["workloads"][workload] = {
            "metrics": rows,
            "virtual_s_per_op_bit_identical_per_seed": exact,
            "count_metrics_bit_identical": not drifting,
            "count_metrics_drifting": drifting,
        }
    report["environment_after"] = environment()
    write_report(report, out or os.path.join(RESULTS, "aa.json"))
    return verdict


def write_baseline(seeds: list[int], smoke: bool, out: str | None) -> int:
    """End-to-end and per-layer numbers of every workload at each seed."""
    from .ops import WORKLOADS

    flags = ["--smoke"] if smoke else []
    report = {"environment": environment(), "seeds": seeds, "workloads": {}}
    for workload in sorted(WORKLOADS):
        per_seed = {}
        for seed in seeds:
            per_seed[str(seed)] = {
                "end_to_end": run_cli("run", workload, "--seed", str(seed), *flags)["metrics"],
                "per_layer": run_cli("trace", workload, "--seed", str(seed), *flags)["metrics"],
            }
            print(f"{workload}: seed {seed} done", file=sys.stderr)
        report["workloads"][workload] = per_seed
    write_report(report, out or os.path.join(RESULTS, "baseline.json"))
    return 0
