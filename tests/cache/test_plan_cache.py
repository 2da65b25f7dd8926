"""Plan-cache behaviour: reuse, key isolation, and flag plumbing.

The key-isolation satellite: physical-design-aware and -unaware policies,
and different network settings, must never share a plan-cache entry — the
heuristics bake both into the plan.
"""

import pytest

from repro import FederatedEngine, NetworkSetting, PlanPolicy

from ..conftest import TINY_QUERY


class TestPlanReuse:
    def test_second_execution_hits(self, tiny_lake):
        engine = FederatedEngine(tiny_lake)
        __, first = engine.run(TINY_QUERY, seed=1)
        __, second = engine.run(TINY_QUERY, seed=1)
        assert first.plan_cache_hit is False
        assert second.plan_cache_hit is True

    def test_cached_plan_is_the_same_object(self, tiny_lake):
        engine = FederatedEngine(tiny_lake)
        assert engine.plan(TINY_QUERY) is engine.plan(TINY_QUERY)

    def test_whitespace_variants_share_one_entry(self, tiny_lake):
        engine = FederatedEngine(tiny_lake)
        engine.plan(TINY_QUERY)
        reformatted = "\n".join(line.strip() for line in TINY_QUERY.split("\n"))
        engine.plan("  " + reformatted)
        assert engine.cache_stats()["plans"].hits == 1

    def test_queries_differing_after_a_hash_in_an_iri_never_share_a_plan(
        self, small_lslod_lake
    ):
        # Regression: the canonicalizer took the `#` of `vocab#compoundName`
        # for a comment, both texts keyed as `... <http://lslod.repro/kegg/vocab`,
        # and the second was answered by the first's cached plan.
        text = "SELECT ?c ?v WHERE { ?c <http://lslod.repro/kegg/vocab#%s> ?v } LIMIT 2"
        warm = FederatedEngine(small_lslod_lake)
        uncached = FederatedEngine(small_lslod_lake, enable_plan_cache=False)
        for name in ("compoundName", "formula"):
            answers, stats = warm.run(text % name, seed=1)
            expected, __ = uncached.run(text % name, seed=1)
            assert stats.plan_cache_hit is False
            assert answers == expected and len(answers) == 2
        names, formulas = (warm.run(text % name, seed=1) for name in ("compoundName", "formula"))
        assert names[1].plan_cache_hit and formulas[1].plan_cache_hit
        assert names[0] != formulas[0]

    def test_parsed_queries_bypass_the_cache(self, tiny_lake):
        from repro.sparql.parser import parse_query

        engine = FederatedEngine(tiny_lake)
        query = parse_query(TINY_QUERY)
        engine.plan(query)
        engine.plan(query)
        stats = engine.cache_stats()["plans"]
        assert stats.lookups == 0

    def test_plan_keys_carry_the_design_version(self, tiny_lake):
        # The design a plan was made against lives in its cache key (the
        # plan object itself carries no copy).  A heuristic plan reads no
        # row data, so its key leaves the data versions out; a cost plan's
        # statistics read the rows, so its key carries both.
        engine = FederatedEngine(tiny_lake)
        engine.plan(TINY_QUERY)
        (key,) = engine.caches.plans.keys()
        assert tiny_lake.design_version in key
        assert tiny_lake.catalog_version() not in key

        cost = engine.with_policy(PlanPolicy.cost())
        cost.plan(TINY_QUERY)
        (key,) = cost.caches.plans.keys()
        assert tiny_lake.design_version in key
        assert tiny_lake.catalog_version() in key


class TestKeyIsolation:
    def test_policies_never_share_entries(self, tiny_lake):
        aware = FederatedEngine(tiny_lake, policy=PlanPolicy.physical_design_aware())
        unaware = aware.with_policy(PlanPolicy.physical_design_unaware())
        # Same registry would be required to even risk sharing; engines keep
        # their own, so also verify via key construction on one engine.
        plan_aware = aware.plan(TINY_QUERY)
        plan_unaware = unaware.plan(TINY_QUERY)
        assert "SymmetricHashJoin" in plan_unaware.explain()
        assert "SymmetricHashJoin" not in plan_aware.explain()

    def test_fingerprint_differs_across_policies(self):
        fingerprints = {
            PlanPolicy.physical_design_aware().fingerprint(),
            PlanPolicy.physical_design_unaware().fingerprint(),
            PlanPolicy.heuristic2().fingerprint(),
            PlanPolicy.filters_at_source().fingerprint(),
            PlanPolicy.dependent_join().fingerprint(),
            PlanPolicy.triple_wise().fingerprint(),
        }
        assert len(fingerprints) == 6

    def test_fingerprint_ignores_cache_toggles(self):
        base = PlanPolicy.physical_design_aware()
        toggled = base.with_(use_plan_cache=False, use_subresult_cache=False)
        assert base.fingerprint() == toggled.fingerprint()

    def test_networks_never_share_entries(self, tiny_lake):
        # One engine per network, but exercise the actual key path by
        # checking distinct entries accumulate in a shared-lake scenario.
        fast = FederatedEngine(tiny_lake, network=NetworkSetting.no_delay())
        slow = fast.with_network(NetworkSetting.gamma3())
        plan_fast = fast.plan(TINY_QUERY)
        plan_slow = slow.plan(TINY_QUERY)
        assert plan_fast.network != plan_slow.network

    def test_network_is_part_of_the_key(self, tiny_lake):
        engine = FederatedEngine(tiny_lake, network=NetworkSetting.no_delay())
        engine.plan(TINY_QUERY)
        engine.network = NetworkSetting.gamma3()
        plan_slow = engine.plan(TINY_QUERY)
        stats = engine.cache_stats()["plans"]
        assert stats.misses == 2 and stats.hits == 0
        assert plan_slow.network == NetworkSetting.gamma3()

    def test_policy_is_part_of_the_key(self, tiny_lake):
        engine = FederatedEngine(tiny_lake, policy=PlanPolicy.physical_design_aware())
        engine.plan(TINY_QUERY)
        engine.policy = PlanPolicy.physical_design_unaware()
        plan = engine.plan(TINY_QUERY)
        stats = engine.cache_stats()["plans"]
        assert stats.misses == 2 and stats.hits == 0
        assert "SymmetricHashJoin" in plan.explain()


class TestFlags:
    def test_engine_flag_disables_plan_cache(self, tiny_lake):
        engine = FederatedEngine(tiny_lake, enable_plan_cache=False)
        __, first = engine.run(TINY_QUERY, seed=1)
        __, second = engine.run(TINY_QUERY, seed=1)
        assert first.plan_cache_hit is None
        assert second.plan_cache_hit is None

    def test_policy_flag_disables_plan_cache(self, tiny_lake):
        policy = PlanPolicy.physical_design_aware().with_(use_plan_cache=False)
        engine = FederatedEngine(tiny_lake, policy=policy)
        __, stats = engine.run(TINY_QUERY, seed=1)
        assert stats.plan_cache_hit is None

    def test_engine_flag_disables_subresult_cache(self, tiny_lake):
        engine = FederatedEngine(tiny_lake, enable_subresult_cache=False)
        engine.run(TINY_QUERY, seed=1)
        __, stats = engine.run(TINY_QUERY, seed=1)
        assert stats.subresult_cache_hits == 0
        assert stats.subresult_cache_misses == 0

    def test_policy_flag_disables_subresult_cache(self, tiny_lake):
        policy = PlanPolicy.physical_design_aware().with_(use_subresult_cache=False)
        engine = FederatedEngine(tiny_lake, policy=policy)
        engine.run(TINY_QUERY, seed=1)
        __, stats = engine.run(TINY_QUERY, seed=1)
        assert stats.subresult_cache_hits == 0

    def test_clear_caches(self, tiny_lake):
        engine = FederatedEngine(tiny_lake)
        engine.run(TINY_QUERY, seed=1)
        engine.clear_caches()
        __, stats = engine.run(TINY_QUERY, seed=1)
        assert stats.plan_cache_hit is False

    def test_profile_reports_cache_summary(self, tiny_lake):
        engine = FederatedEngine(tiny_lake)
        engine.run(TINY_QUERY, seed=1)
        __, __stats, report = engine.profile(TINY_QUERY, seed=1)
        assert report.cache_summary is not None
        assert "subresults" in report.render()

    def test_profile_never_poisons_the_plan_cache(self, tiny_lake):
        """Instrumented operators must not leak into cached plans."""
        engine = FederatedEngine(tiny_lake)
        engine.profile(TINY_QUERY, seed=1)
        answers, stats = engine.run(TINY_QUERY, seed=1)
        answers_again, stats_again = engine.run(TINY_QUERY, seed=1)
        assert len(answers) == len(answers_again)
        assert stats.execution_time == stats_again.execution_time
