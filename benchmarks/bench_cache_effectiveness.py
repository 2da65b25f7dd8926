"""Cache effectiveness: cold vs warm wall-clock on a repeated workload.

The north-star scenario is heavy repeated traffic: the same analytical
queries arriving again and again.  This bench runs the paper's five LSLOD
queries as one workload, once cold (empty caches) and then repeatedly warm
(plan + sub-result caches populated), and records real wall-clock for each
pass.  The guardrails assert the two promises of the caching subsystem:

* the warm pass is at least 3x faster in wall-clock terms, and
* virtual execution times and answer counts are *identical* to an engine
  with caching disabled — caching saves machine time, never simulated time.

Results land in ``benchmarks/results/cache_effectiveness.txt`` and, as
machine-readable JSON, in ``BENCH_cache.json`` at the repository root.
"""

import json
import time
from pathlib import Path

from repro import FederatedEngine, NetworkSetting, PlanPolicy
from repro.benchmark import same_answers
from repro.cache import clear_memos
from repro.datasets import BENCHMARK_QUERIES, GRID_QUERIES

from .conftest import SCALE, SEED, emit

RUN_SEED = 7
WARM_PASSES = 5
NETWORK = NetworkSetting.gamma1()
BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_cache.json"


def run_workload(engine, queries):
    """One pass over the workload; returns (wall seconds, per-query stats)."""
    outcomes = []
    started = time.perf_counter()
    for query in queries:
        answers, stats = engine.run(query.text, seed=RUN_SEED)
        outcomes.append((answers, stats))
    return time.perf_counter() - started, outcomes


def test_cache_effectiveness(lake, results_dir):
    queries = [BENCHMARK_QUERIES[name] for name in GRID_QUERIES]
    cached = FederatedEngine(
        lake, policy=PlanPolicy.physical_design_aware(), network=NETWORK
    )
    uncached = FederatedEngine(
        lake,
        policy=PlanPolicy.physical_design_aware(),
        network=NETWORK,
        enable_plan_cache=False,
        enable_subresult_cache=False,
    )

    baseline_wall, baseline = run_workload(uncached, queries)
    clear_memos()  # the uncached run filled the process-wide block memos
    cold_wall, cold = run_workload(cached, queries)
    warm_walls = []
    warm = cold
    for __ in range(WARM_PASSES):
        wall, warm = run_workload(cached, queries)
        warm_walls.append(wall)
    warm_wall = min(warm_walls)  # best warm pass: steady-state service rate
    speedup = cold_wall / warm_wall

    # -- semantics guard: caching must not change a single observable -------
    for (answers_base, stats_base), (answers_warm, stats_warm) in zip(baseline, warm):
        assert same_answers(answers_base, answers_warm)
        assert stats_base.execution_time == stats_warm.execution_time
        assert stats_base.trace == stats_warm.trace
        assert stats_base.messages == stats_warm.messages
    for __, stats_warm in warm:
        assert stats_warm.plan_cache_hit is True
        assert stats_warm.subresult_cache_misses == 0

    # -- the headline number ------------------------------------------------
    assert speedup >= 3.0, (
        f"warm pass only {speedup:.2f}x faster than cold (cold {cold_wall:.4f}s, "
        f"warm {warm_wall:.4f}s)"
    )

    cache_stats = {
        name: stats.as_dict() for name, stats in cached.cache_stats().items()
    }
    lines = [
        f"Cache effectiveness — repeated {len(queries)}-query LSLOD workload",
        f"scale={SCALE} data_seed={SEED} run_seed={RUN_SEED} network={NETWORK.name}",
        "",
        f"{'pass':<22}{'wall-clock [s]':>16}",
        f"{'uncached engine':<22}{baseline_wall:>16.4f}",
        f"{'cold (caches empty)':<22}{cold_wall:>16.4f}",
        f"{'warm (best of ' + str(WARM_PASSES) + ')':<22}{warm_wall:>16.4f}",
        "",
        f"warm speedup over cold: {speedup:.1f}x",
        "",
        "per-query virtual time (identical cached/uncached by construction):",
    ]
    for query, (__, stats) in zip(queries, warm):
        lines.append(
            f"  {query.name}: vt={stats.execution_time:.4f}s answers={stats.answers}"
        )
    lines.append("")
    lines.append("engine cache counters after all passes:")
    lines.append(cached.caches.describe())
    emit(results_dir, "cache_effectiveness.txt", "\n".join(lines))

    BENCH_JSON.write_text(
        json.dumps(
            {
                "workload": list(GRID_QUERIES),
                "scale": SCALE,
                "data_seed": SEED,
                "run_seed": RUN_SEED,
                "network": NETWORK.name,
                "warm_passes": WARM_PASSES,
                "wall_clock_seconds": {
                    "uncached": round(baseline_wall, 6),
                    "cold": round(cold_wall, 6),
                    "warm_best": round(warm_wall, 6),
                    "warm_all": [round(w, 6) for w in warm_walls],
                },
                "warm_speedup_over_cold": round(speedup, 2),
                "virtual_time_neutral": True,
                "per_query": {
                    query.name: {
                        "virtual_time": stats.execution_time,
                        "answers": stats.answers,
                    }
                    for query, (__, stats) in zip(queries, warm)
                },
                "cache_stats": cache_stats,
            },
            indent=2,
        )
        + "\n"
    )
