"""Tests for the federated planner and engine facade."""

import pytest

from repro import FederatedEngine, PlanPolicy, NetworkSetting, VirtualClock
from repro.benchmark import same_answers
from repro.exceptions import SourceSelectionError

from ..conftest import TINY_CROSS_SOURCE_QUERY, TINY_QUERY


class TestPlanning:
    def test_unaware_plan_has_engine_join(self, tiny_lake):
        engine = FederatedEngine(tiny_lake, policy=PlanPolicy.physical_design_unaware())
        plan = engine.plan(TINY_QUERY)
        assert "SymmetricHashJoin" in plan.explain()

    def test_aware_plan_merges_stars(self, tiny_lake):
        engine = FederatedEngine(tiny_lake, policy=PlanPolicy.physical_design_aware())
        plan = engine.plan(TINY_QUERY)
        explained = plan.explain()
        assert "JOIN disease" in explained
        assert "SymmetricHashJoin" not in explained

    def test_explain_includes_decisions(self, tiny_lake):
        engine = FederatedEngine(tiny_lake, policy=PlanPolicy.physical_design_aware())
        explained = engine.explain(TINY_CROSS_SOURCE_QUERY)
        assert "Heuristic 2" in explained

    def test_plan_carries_policy_and_network(self, tiny_lake):
        engine = FederatedEngine(
            tiny_lake,
            policy=PlanPolicy.physical_design_aware(),
            network=NetworkSetting.gamma2(),
        )
        plan = engine.plan(TINY_QUERY)
        assert plan.policy.name == "Physical-Design-Aware"
        assert plan.network.name == "Gamma 2"

    def test_unplannable_query_raises(self, tiny_lake):
        engine = FederatedEngine(tiny_lake)
        with pytest.raises(SourceSelectionError):
            engine.plan("PREFIX x: <http://nowhere/> SELECT * WHERE { ?a x:nope ?b }")


class TestExecution:
    def test_answers_correct(self, tiny_lake):
        engine = FederatedEngine(tiny_lake)
        answers, stats = engine.run(TINY_QUERY, seed=1)
        assert len(answers) == 4
        assert stats.answers == 4
        symbols = {answer["sym"].lexical for answer in answers}
        assert symbols == {"BRCA1", "TP53", "KRAS", "INS"}

    def test_policies_agree_on_answers(self, tiny_lake):
        aware = FederatedEngine(tiny_lake, policy=PlanPolicy.physical_design_aware())
        unaware = FederatedEngine(tiny_lake, policy=PlanPolicy.physical_design_unaware())
        for query in (TINY_QUERY, TINY_CROSS_SOURCE_QUERY):
            a, __ = aware.run(query, seed=1)
            b, __ = unaware.run(query, seed=1)
            assert same_answers(a, b)

    def test_cross_source_join(self, tiny_lake):
        engine = FederatedEngine(tiny_lake)
        answers, __ = engine.run(TINY_CROSS_SOURCE_QUERY, seed=1)
        # BRCA1 and KRAS probesets are Homo sapiens
        assert len(answers) == 2

    def test_projection_respected(self, tiny_lake):
        engine = FederatedEngine(tiny_lake)
        answers, __ = engine.run(TINY_QUERY, seed=1)
        assert all(set(answer) == {"g", "sym", "dn"} for answer in answers)

    def test_streaming_interface(self, tiny_lake):
        engine = FederatedEngine(tiny_lake)
        stream = engine.execute(TINY_QUERY, seed=1)
        first = next(stream)
        assert "sym" in first
        rest = stream.collect()
        assert len(rest) == 3
        assert stream.exhausted
        assert stream.stats.execution_time > 0

    def test_trace_recorded(self, tiny_lake):
        engine = FederatedEngine(tiny_lake, network=NetworkSetting.gamma2())
        __, stats = engine.run(TINY_QUERY, seed=1)
        assert len(stats.trace) == 4
        times = [when for when, __c in stats.trace]
        assert times == sorted(times)
        assert stats.time_to_first_answer == times[0]

    def test_deterministic_given_seed(self, tiny_lake):
        engine = FederatedEngine(tiny_lake, network=NetworkSetting.gamma3())
        __, first = engine.run(TINY_QUERY, seed=11)
        __, second = engine.run(TINY_QUERY, seed=11)
        assert first.execution_time == pytest.approx(second.execution_time)

    def test_different_seeds_differ(self, tiny_lake):
        engine = FederatedEngine(tiny_lake, network=NetworkSetting.gamma3())
        __, first = engine.run(TINY_QUERY, seed=11)
        __, second = engine.run(TINY_QUERY, seed=12)
        assert first.execution_time != second.execution_time

    def test_custom_clock(self, tiny_lake):
        engine = FederatedEngine(tiny_lake)
        clock = VirtualClock(start=100.0)
        stream = engine.execute(TINY_QUERY, seed=1, clock=clock)
        stream.collect()
        assert stream.stats.execution_time >= 100.0

    def test_with_policy_and_network_builders(self, tiny_lake):
        engine = FederatedEngine(tiny_lake)
        sibling = engine.with_policy(PlanPolicy.physical_design_unaware())
        assert sibling.lake is engine.lake
        assert sibling.policy.name == "Physical-Design-Unaware"
        other = engine.with_network(NetworkSetting.gamma1())
        assert other.network.name == "Gamma 1"

        # Every constructor setting travels; the registry is never shared.
        tuned = FederatedEngine(
            tiny_lake,
            enable_subresult_cache=False,
            plan_cache_size=512,
            thread_workers=8,
            debug_validate=True,
        )
        for sibling in (
            tuned.with_policy(PlanPolicy.physical_design_unaware()),
            tuned.with_network(NetworkSetting.gamma1()),
        ):
            assert sibling.thread_workers == 8
            assert sibling.debug_validate is True
            assert sibling.caches is not tuned.caches
            assert sibling.caches.plans.enabled
            assert sibling.caches.plans.capacity == 512
            assert not sibling.caches.subresults.enabled
            assert sibling.caches.subresults.capacity == 1024
        # A sibling of an engine on a shared registry gets one shaped like it.
        pooled = FederatedEngine(tiny_lake, caches=tuned.caches)
        fresh = pooled.with_network(NetworkSetting.gamma1()).caches
        assert fresh is not tuned.caches
        assert (fresh.plans.capacity, fresh.subresults.enabled) == (512, False)


class TestModifiers:
    def test_distinct(self, tiny_lake):
        query = """
        PREFIX v: <http://ex/vocab#>
        SELECT DISTINCT ?dn WHERE {
          ?g a v:Gene ; v:associatedDisease ?d .
          ?d a v:Disease ; v:diseaseName ?dn .
        }
        """
        engine = FederatedEngine(tiny_lake)
        answers, __ = engine.run(query, seed=1)
        assert len(answers) == 3  # four genes but three diseases

    def test_order_by_and_limit(self, tiny_lake):
        query = """
        PREFIX v: <http://ex/vocab#>
        SELECT ?sym WHERE { ?g a v:Gene ; v:geneSymbol ?sym . }
        ORDER BY ?sym LIMIT 2
        """
        engine = FederatedEngine(tiny_lake)
        answers, __ = engine.run(query, seed=1)
        assert [answer["sym"].lexical for answer in answers] == ["BRCA1", "INS"]

    def test_residual_filter_at_engine(self, tiny_lake):
        query = """
        PREFIX v: <http://ex/vocab#>
        SELECT * WHERE {
          ?g a v:Gene ; v:geneSymbol ?sym .
          ?p a v:Probeset ; v:symbol ?psym .
          FILTER(?sym = ?psym)
        }
        """
        engine = FederatedEngine(tiny_lake)
        answers, __ = engine.run(query, seed=1)
        assert len(answers) == 3
