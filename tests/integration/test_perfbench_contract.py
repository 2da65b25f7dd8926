"""The benchmark's patch points are a tier-1 contract.

``perfbench/layers.py`` measures every layer from outside by replacing the
program's public entry points: ``owner.__dict__[name]`` of each wrapper
class, and every module-level reference to the planning functions.  A
refactor that moves ``execute`` to a base class, binds a wrapper method at
plan time, or calls ``translate_stars`` through a private alias passes
every other test and fails only inside a benchmark run.  This one traced
query fails first.
"""

from __future__ import annotations

import os
import sys
from collections import Counter

from repro import FederatedEngine, NetworkSetting, PlanPolicy
from repro.cache import clear_memos
from repro.datasets import BENCHMARK_QUERIES
from repro.federation.operators import ServiceNode

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def leaves(operator) -> int:
    if isinstance(operator, ServiceNode):
        return 1
    return sum(leaves(child) for child in operator.children())


def test_one_traced_query_reaches_every_patched_layer(small_lslod_lake):
    if ROOT not in sys.path:
        sys.path.insert(0, ROOT)
    from perfbench.layers import install
    from perfbench.tracer import Tracer

    # The unaware policy keeps Q2's two stars apart: two leaves under a join.
    query = BENCHMARK_QUERIES["Q2"].text
    settings = (PlanPolicy.physical_design_unaware(), NetworkSetting.gamma2())
    planned_before = FederatedEngine(small_lslod_lake, *settings)
    executed = leaves(planned_before.plan(query).root)
    assert executed == 2

    def requests(result) -> int:
        return sum(s.requests for s in result.stats.source_stats.values())

    tracer = Tracer()
    install(tracer)
    try:
        # A plan built (and cached) before the patches went in still reaches
        # them: wrapper methods are looked up when a leaf executes.  Cleared
        # memos make every traced execution a live one (no run script).
        clear_memos()
        result = planned_before.execute(query, seed=7, exec="batch")
        assert result.collect() and result.stats.plan_cache_hit
        spans = Counter(span[0] for span in tracer.spans)
        assert spans["federation.operators"] == 1
        # Exactly one wrapper span per executed leaf (every wrapper
        # execution charges exactly one request).
        assert requests(result) == executed
        assert spans["federation.wrapper"] == executed
        assert spans["core.plan"] == 0

        clear_memos()
        planned_after = FederatedEngine(small_lslod_lake, *settings)
        planned_after.execute(query, seed=7, exec="batch").collect()
        spans = Counter(span[0] for span in tracer.spans)
        assert spans["core.plan"] == 1
        assert spans["mapping.translate"] == executed
        assert spans["federation.wrapper"] == 2 * executed

        # That run recorded a run script; the plan's next runs replay it:
        # no wrapper runs, yet every leaf's request is counted.
        planned_after.execute(query, seed=7, exec="batch").collect()
        result = planned_after.execute(query, seed=8, exec="batch")
        assert result.collect() and requests(result) == executed
        spans = Counter(span[0] for span in tracer.spans)
        assert spans["federation.wrapper"] == 2 * executed
        assert spans["federation.operators"] == 4
    finally:
        tracer.restore()
        clear_memos()
