"""Event-scheduler semantics: overlap, identity, and cross-runtime answers.

The acceptance bar for the concurrent runtime:

* on a 2-source symmetric-hash-join query under Gamma(3, 1.5), the
  event-scheduled virtual execution time is strictly less than the
  sequential one (delays overlap);
* single-source plans report bit-identical virtual times (and traces)
  under both runtimes;
* answer multisets agree across all three runtimes for every plan shape.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.benchmark.metrics import solution_key
from repro.core.engine import FederatedEngine
from repro.core.policy import PlanPolicy
from repro.datasets import BENCHMARK_QUERIES
from repro.federation.answers import RunContext
from repro.federation.operators import DependentJoin, ServiceNode, SymmetricHashJoin
from repro.network.delays import NetworkSetting
from repro.runtime import RUNTIMES
from repro.runtime.scheduler import EventScheduler

from ..conftest import TINY_CROSS_SOURCE_QUERY, TINY_QUERY

GAMMA3 = NetworkSetting.gamma3()

OPTIONAL_ORDER_QUERY = """
PREFIX v: <http://ex/vocab#>
SELECT ?g ?sym ?dn WHERE {
  ?g a v:Gene ; v:geneSymbol ?sym .
  OPTIONAL { ?g v:associatedDisease ?d . ?d v:diseaseName ?dn . }
}
ORDER BY ?sym
"""

LIMIT_QUERY = """
PREFIX v: <http://ex/vocab#>
SELECT ?g ?sym WHERE { ?g a v:Gene ; v:geneSymbol ?sym . }
LIMIT 2
"""

UNION_QUERY = """
PREFIX v: <http://ex/vocab#>
SELECT ?name WHERE {
  { ?d a v:Disease ; v:diseaseName ?name . }
  UNION
  { ?p a v:Probeset ; v:symbol ?name . }
}
"""


def engine_for(lake, runtime, policy=None, network=GAMMA3, **kwargs):
    return FederatedEngine(
        lake,
        policy=policy or PlanPolicy.physical_design_aware(),
        network=network,
        runtime=runtime,
        **kwargs,
    )


def multiset(answers):
    return Counter(solution_key(solution) for solution in answers)


def count_leaves(op):
    if isinstance(op, ServiceNode):
        return 1
    return sum(count_leaves(child) for child in op.children())


def find_op(op, kind):
    if isinstance(op, kind):
        return op
    for child in op.children():
        found = find_op(child, kind)
        if found is not None:
            return found
    return None


# ---------------------------------------------------------------------------
# Acceptance: overlap on multi-source plans, identity on single-source ones
# ---------------------------------------------------------------------------


def test_two_source_join_overlaps_under_gamma3(tiny_lake):
    """Event-scheduled delays overlap: strictly less virtual time."""
    sequential = engine_for(tiny_lake, "sequential")
    plan = sequential.plan(TINY_CROSS_SOURCE_QUERY)
    assert find_op(plan.root, SymmetricHashJoin) is not None
    assert count_leaves(plan.root) == 2

    answers_seq, stats_seq = sequential.run(TINY_CROSS_SOURCE_QUERY, seed=11)
    answers_evt, stats_evt = engine_for(tiny_lake, "event").run(
        TINY_CROSS_SOURCE_QUERY, seed=11
    )
    assert multiset(answers_seq) == multiset(answers_evt)
    assert stats_evt.execution_time < stats_seq.execution_time


def test_single_source_plan_times_are_bit_identical(tiny_lake):
    """One producer degenerates to the sequential interleaving exactly."""
    query = """
    PREFIX v: <http://ex/vocab#>
    SELECT ?d ?dn WHERE { ?d a v:Disease ; v:diseaseName ?dn . }
    """
    sequential = engine_for(tiny_lake, "sequential")
    assert count_leaves(sequential.plan(query).root) == 1

    answers_seq, stats_seq = sequential.run(query, seed=11)
    answers_evt, stats_evt = engine_for(tiny_lake, "event").run(query, seed=11)
    assert [solution_key(s) for s in answers_seq] == [
        solution_key(s) for s in answers_evt
    ]
    assert stats_seq.execution_time == stats_evt.execution_time
    assert stats_seq.trace == stats_evt.trace
    assert stats_seq.messages == stats_evt.messages


def test_single_source_identity_on_lslod(small_lslod_lake):
    for name in ("Q2", "Q5"):
        query = BENCHMARK_QUERIES[name].text
        sequential = engine_for(small_lslod_lake, "sequential")
        if count_leaves(sequential.plan(query).root) != 1:
            continue
        __, stats_seq = sequential.run(query, seed=5)
        __, stats_evt = engine_for(small_lslod_lake, "event").run(query, seed=5)
        assert stats_seq.execution_time == stats_evt.execution_time
        assert stats_seq.trace == stats_evt.trace


def test_multi_source_benchmark_queries_drop_virtual_time(small_lslod_lake):
    for name in ("Q1", "Q4"):
        query = BENCHMARK_QUERIES[name].text
        sequential = engine_for(small_lslod_lake, "sequential")
        assert count_leaves(sequential.plan(query).root) >= 2
        answers_seq, stats_seq = sequential.run(query, seed=5)
        answers_evt, stats_evt = engine_for(small_lslod_lake, "event").run(query, seed=5)
        assert multiset(answers_seq) == multiset(answers_evt)
        assert stats_evt.execution_time < stats_seq.execution_time


# ---------------------------------------------------------------------------
# Cross-runtime answer equivalence on every operator shape
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "query",
    [TINY_QUERY, TINY_CROSS_SOURCE_QUERY, OPTIONAL_ORDER_QUERY, UNION_QUERY],
    ids=["join", "cross-filter", "optional-order", "union"],
)
def test_all_runtimes_agree_on_answers(tiny_lake, query):
    reference = None
    for runtime in RUNTIMES:
        answers, stats = engine_for(tiny_lake, runtime).run(query, seed=3)
        assert stats.execution_time > 0
        if reference is None:
            reference = multiset(answers)
        else:
            assert multiset(answers) == reference


def test_ordered_output_is_sorted_under_event_runtime(tiny_lake):
    answers, __ = engine_for(tiny_lake, "event").run(OPTIONAL_ORDER_QUERY, seed=3)
    symbols = [solution["sym"].lexical for solution in answers]
    assert symbols == sorted(symbols)


def test_limit_is_respected_and_stops_the_scheduler(tiny_lake):
    for runtime in RUNTIMES:
        answers, stats = engine_for(tiny_lake, runtime).run(LIMIT_QUERY, seed=3)
        assert len(answers) == 2
        assert stats.execution_time > 0


def test_dependent_join_agrees_across_runtimes(tiny_lake):
    policy = PlanPolicy.dependent_join()
    sequential = engine_for(tiny_lake, "sequential", policy=policy)
    plan = sequential.plan(TINY_CROSS_SOURCE_QUERY)
    assert find_op(plan.root, DependentJoin) is not None

    answers_seq, __ = sequential.run(TINY_CROSS_SOURCE_QUERY, seed=9)
    for runtime in ("event", "thread"):
        answers, __ = engine_for(tiny_lake, runtime, policy=policy).run(
            TINY_CROSS_SOURCE_QUERY, seed=9
        )
        assert multiset(answers) == multiset(answers_seq)


@pytest.mark.parametrize("workers", (None, 2), ids=("event", "thread"))
def test_one_outer_event_runs_one_inner_block_at_a_time(small_lslod_lake, workers):
    """One outer event can release several solutions (a symmetric join's
    probe into a bucket); with one-solution blocks each fills a block, and
    the next block must wait for the inner one in flight — starting it at
    once left the first inner stream unclosed and the scheduler stalled."""
    plan = engine_for(small_lslod_lake, "sequential").plan(BENCHMARK_QUERIES["Q1"].text)
    join = find_op(plan.root, SymmetricHashJoin)
    inner = find_op(join.right, ServiceNode)
    variable = join.join_variables[0]
    assert variable in inner.variables
    op = DependentJoin(join, inner, variable, block_size=1)
    network = NetworkSetting.gamma1()
    pulled = list(op.execute(RunContext(network=network, seed=3)))
    scheduler = EventScheduler(op, RunContext(network=network, seed=3), pool_workers=workers)
    pushed = [solution for __, solution in scheduler.run()]
    assert len(pulled) > 1 and multiset(pushed) == multiset(pulled)


def test_event_and_thread_modes_match_to_float_noise(small_lslod_lake):
    """Thread mode replays the same virtual timeline as simulated mode.

    Timestamps may differ in the last ulps (local-clock deltas are
    re-associated), but never materially; answers agree as multisets.
    """
    query = BENCHMARK_QUERIES["Q1"].text
    answers_evt, stats_evt = engine_for(small_lslod_lake, "event").run(query, seed=21)
    answers_thr, stats_thr = engine_for(small_lslod_lake, "thread").run(query, seed=21)
    assert multiset(answers_evt) == multiset(answers_thr)
    assert stats_thr.execution_time == pytest.approx(stats_evt.execution_time)
    assert stats_thr.messages == stats_evt.messages


# ---------------------------------------------------------------------------
# Plumbing
# ---------------------------------------------------------------------------


def test_unknown_runtime_is_rejected(tiny_lake):
    with pytest.raises(ValueError, match="unknown runtime"):
        FederatedEngine(tiny_lake, runtime="parallel")
    engine = FederatedEngine(tiny_lake)
    with pytest.raises(ValueError, match="unknown runtime"):
        engine.execute(TINY_QUERY, runtime="evnet")


def test_execution_time_is_set_when_consumer_abandons_stream(tiny_lake):
    """A consumer breaking out early (LIMIT-style) still gets a well-defined
    execution time under every runtime."""
    for runtime in RUNTIMES:
        stream = engine_for(tiny_lake, runtime).execute(TINY_QUERY, seed=3)
        first = next(iter(stream))
        assert first
        stream._iterator.close()
        assert not stream.exhausted
        assert stream.stats.execution_time > 0
        assert stream.stats.execution_time == stream.context.now()
        assert stream.stats.answers == 1
