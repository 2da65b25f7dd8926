"""Row vs batch (vectorized) data plane: wall-clock speedup benchmark.

Runs the Q1-Q5 x four-network grid cold (fresh engine per cell) under
both data planes, checks per-cell bit-identity of answers and every
virtual-time accumulator, then times repeated full-grid passes in
wall-clock and asserts the vectorized plane clears the target speedup.

Protocol:

* one untimed warm-up grid pass per mode first — it primes the
  process-wide block caches (SQL block cache, star-column cache, join
  stream memo) so the timed passes measure the steady state both modes
  enjoy equally;
* then ``TIMED_PASSES`` alternating row/batch grid passes, scoring each
  mode by its best pass (minimum is the noise-robust wall estimator).

Guardrails:

* per cell, answers and the virtual-time signature agree exactly
  between modes (non-associative float addition means this pins the
  exact charge sequence, not just totals);
* aggregate speedup >= ``TARGET_SPEEDUP``;
* the whole benchmark finishes inside a wall-clock budget (the CI
  smoke-guard relies on this).

Results land in ``benchmarks/results/vectorized_speedup.txt`` and,
machine-readable, in ``BENCH_vectorized.json`` at the repository root.
"""

import json
import time
from pathlib import Path

from repro import FederatedEngine, NetworkSetting
from repro.datasets import BENCHMARK_QUERIES, cached_lslod_lake

from .conftest import emit

#: The grid is pinned (not the conftest env knobs): the committed
#: BENCH_vectorized.json must mean the same thing on every machine.
SCALE = 1.0
DATA_SEED = 11
RUN_SEED = 7
GRID_QUERY_NAMES = ("Q1", "Q2", "Q3", "Q4", "Q5")
TIMED_PASSES = 4
#: Both planes fetch and charge sources through the same wrapper path, so
#: the ratio measures the operator loops alone (3.4-3.8x at scale 1.0 on a
#: 2-vCPU box when run alone, ~2x after the rest of benchmarks/ in one
#: process); the source side no longer widens it.
TARGET_SPEEDUP = 2.0
WALL_BUDGET_SECONDS = 180.0
BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_vectorized.json"

NETWORKS = (
    NetworkSetting.no_delay,
    NetworkSetting.gamma1,
    NetworkSetting.gamma2,
    NetworkSetting.gamma3,
)


def stats_signature(stats) -> tuple:
    per_source = tuple(
        (sid, s.requests, s.answers, s.virtual_cost, s.network_delay)
        for sid, s in sorted(stats.source_stats.items())
    )
    return (
        stats.execution_time,
        tuple(stats.trace),
        stats.messages,
        stats.engine_cost,
        stats.time_to_first_answer,
        stats.answers,
        stats.subresult_cache_hits,
        per_source,
    )


def grid_pass(lake, exec_mode, signatures=None):
    """One cold-engine pass over the full grid; returns its wall time."""
    started = time.perf_counter()
    for query_name in GRID_QUERY_NAMES:
        text = BENCHMARK_QUERIES[query_name].text
        for network_factory in NETWORKS:
            engine = FederatedEngine(lake, network=network_factory(), exec=exec_mode)
            answers, stats = engine.run(text, seed=RUN_SEED)
            if signatures is not None:
                key = (query_name, network_factory.__name__)
                signatures[key] = (answers, stats_signature(stats))
    return time.perf_counter() - started


def test_vectorized_speedup(results_dir):
    lake = cached_lslod_lake(scale=SCALE, seed=DATA_SEED)
    started_all = time.perf_counter()

    # -- identity + warm-up (untimed) ---------------------------------------
    row_sigs, batch_sigs = {}, {}
    grid_pass(lake, "row", row_sigs)
    grid_pass(lake, "batch", batch_sigs)
    assert row_sigs.keys() == batch_sigs.keys()
    for key, (row_answers, row_sig) in row_sigs.items():
        batch_answers, batch_sig = batch_sigs[key]
        assert batch_answers == row_answers, key
        assert batch_sig == row_sig, key

    # -- timed passes --------------------------------------------------------
    row_times, batch_times = [], []
    for __ in range(TIMED_PASSES):
        row_times.append(grid_pass(lake, "row"))
        batch_times.append(grid_pass(lake, "batch"))
    row_best, batch_best = min(row_times), min(batch_times)
    speedup = row_best / batch_best
    total_wall = time.perf_counter() - started_all

    assert speedup >= TARGET_SPEEDUP, (
        f"vectorized speedup {speedup:.2f}x below target {TARGET_SPEEDUP:.1f}x "
        f"(row best {row_best:.4f}s, batch best {batch_best:.4f}s)"
    )
    assert total_wall < WALL_BUDGET_SECONDS, (
        f"benchmark took {total_wall:.1f}s, budget {WALL_BUDGET_SECONDS:.0f}s"
    )

    # -- report --------------------------------------------------------------
    cells = [
        {
            "query": query_name,
            "network": network_name,
            "answers": len(row_sigs[(query_name, network_name)][0]),
            "virtual_time": row_sigs[(query_name, network_name)][1][0],
            "identical": True,
        }
        for (query_name, network_name) in row_sigs
    ]
    lines = [
        f"grid: {len(cells)} cells "
        f"({len(GRID_QUERY_NAMES)} queries x {len(NETWORKS)} networks), "
        f"scale {SCALE}, data seed {DATA_SEED}, run seed {RUN_SEED}",
        f"row   best of {TIMED_PASSES}: {row_best:.4f}s "
        f"(all {[round(t, 4) for t in row_times]})",
        f"batch best of {TIMED_PASSES}: {batch_best:.4f}s "
        f"(all {[round(t, 4) for t in batch_times]})",
        f"speedup: {speedup:.2f}x (target >= {TARGET_SPEEDUP:.1f}x)",
        "virtual-time identity: all cells bit-identical",
    ]
    emit(results_dir, "vectorized_speedup.txt", "\n".join(lines))

    BENCH_JSON.write_text(
        json.dumps(
            {
                "scale": SCALE,
                "data_seed": DATA_SEED,
                "run_seed": RUN_SEED,
                "timed_passes": TIMED_PASSES,
                "target_speedup": TARGET_SPEEDUP,
                "row_wall_times": row_times,
                "batch_wall_times": batch_times,
                "row_best": row_best,
                "batch_best": batch_best,
                "speedup": speedup,
                "cells": cells,
            },
            indent=2,
        )
        + "\n"
    )
