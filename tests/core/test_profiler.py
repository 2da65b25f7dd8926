"""Tests for the plan profiler (EXPLAIN ANALYZE)."""

import pytest

from repro import FederatedEngine, NetworkSetting, PlanPolicy

from ..conftest import TINY_QUERY


class TestProfiler:
    def test_profile_returns_answers_and_report(self, tiny_lake):
        engine = FederatedEngine(tiny_lake, network=NetworkSetting.gamma1())
        answers, stats, report = engine.profile(TINY_QUERY, seed=1)
        assert len(answers) == 4
        assert stats.answers == 4
        assert report.execution_time == stats.execution_time

    def test_per_operator_row_counts(self, tiny_lake):
        engine = FederatedEngine(
            tiny_lake, policy=PlanPolicy.physical_design_unaware()
        )
        __, __stats, report = engine.profile(TINY_QUERY, seed=1)
        project = report.by_label("Project")
        assert project.rows_out == 4
        join = report.by_label("SymmetricHashJoin")
        assert join.rows_out == 4
        services = [entry for entry in report.entries if "Service" in entry.label]
        assert len(services) == 2
        assert sum(entry.rows_out for entry in services) == 4 + 3  # genes + diseases

    def test_timestamps_monotone(self, tiny_lake):
        engine = FederatedEngine(tiny_lake, network=NetworkSetting.gamma2())
        __, __stats, report = engine.profile(TINY_QUERY, seed=1)
        for entry in report.entries:
            if entry.rows_out:
                assert entry.first_output_at <= entry.last_output_at

    def test_render(self, tiny_lake):
        engine = FederatedEngine(tiny_lake)
        __, __stats, report = engine.profile(TINY_QUERY, seed=1)
        text = report.render()
        assert "Profile" in text
        assert "rows=" in text
        # pre-order: the root operator first, indented children after
        assert text.splitlines()[1].startswith("Project")

    def test_empty_result_profile(self, tiny_lake):
        query = """
        PREFIX v: <http://ex/vocab#>
        SELECT * WHERE { ?g a v:Gene ; v:geneSymbol "NOPE" . }
        """
        engine = FederatedEngine(tiny_lake)
        answers, __, report = engine.profile(query, seed=1)
        assert answers == []
        assert all(entry.rows_out == 0 for entry in report.entries)
        assert report.by_label("Service").first_output_at is None

    def test_results_match_unprofiled_run(self, tiny_lake):
        from repro.benchmark import same_answers

        engine = FederatedEngine(tiny_lake, network=NetworkSetting.gamma1())
        plain, plain_stats = engine.run(TINY_QUERY, seed=1)
        profiled, profiled_stats, __ = engine.profile(TINY_QUERY, seed=1)
        assert same_answers(plain, profiled)
        assert plain_stats.execution_time == pytest.approx(
            profiled_stats.execution_time
        )

    @pytest.mark.parametrize("runtime", ["sequential", "event", "thread"])
    def test_profile_works_under_every_runtime(self, tiny_lake, runtime):
        engine = FederatedEngine(tiny_lake, network=NetworkSetting.gamma1())
        answers, stats, report = engine.profile(TINY_QUERY, seed=1, runtime=runtime)
        assert len(answers) == 4
        assert report.runtime == runtime
        assert report.by_label("Project").rows_out == 4


class TestPlanCacheInteraction:
    """Regression: profiling a cached plan must not double-count.

    The historical profiler rebound ``execute`` on each operator and never
    restored it; with the plan cache serving the same plan object to the
    next profile, the old closure stayed bound and every solution was
    counted twice (then three times, ...).
    """

    def test_repeated_profiles_of_cached_plan_count_once(self, tiny_lake):
        engine = FederatedEngine(tiny_lake)
        counts = []
        for __ in range(3):
            __a, __s, report = engine.profile(TINY_QUERY, seed=1)
            counts.append(report.by_label("Project").rows_out)
        assert counts == [4, 4, 4]

    def test_profile_leaves_plan_uninstrumented(self, tiny_lake):
        engine = FederatedEngine(tiny_lake)
        engine.profile(TINY_QUERY, seed=1)
        plan = engine.plan(TINY_QUERY)

        def assert_clean(operator):
            assert "execute" not in operator.__dict__, operator.label()
            for child in operator.children():
                assert_clean(child)

        assert_clean(plan.root)

    def test_profile_then_plain_run_unchanged(self, tiny_lake):
        engine = FederatedEngine(tiny_lake, network=NetworkSetting.gamma1())
        __, profiled_stats, __r = engine.profile(TINY_QUERY, seed=1)
        answers, stats = engine.run(TINY_QUERY, seed=1)
        assert len(answers) == 4
        assert stats.execution_time == pytest.approx(profiled_stats.execution_time)

    def test_profile_plan_restores_on_error(self, tiny_lake):
        """Even an execution that dies mid-stream must restore bindings."""
        from repro.federation.answers import RunContext
        from repro.obs import profile_plan

        engine = FederatedEngine(tiny_lake)
        plan = engine.plan(TINY_QUERY)

        class Boom(RuntimeError):
            pass

        context = RunContext(network=NetworkSetting.gamma1(), seed=1)
        original = plan.root.execute

        def exploding(run_context):
            raise Boom()
            yield  # pragma: no cover

        plan.root.execute = exploding
        try:
            with pytest.raises(Boom):
                profile_plan(plan, context)
        finally:
            plan.root.__dict__.pop("execute", None)
        assert plan.root.execute.__func__ is original.__func__

        def assert_clean(operator):
            assert "execute" not in operator.__dict__, operator.label()
            for child in operator.children():
                assert_clean(child)

        assert_clean(plan.root)


class TestReportErgonomics:
    def test_by_label_error_lists_available_labels(self, tiny_lake):
        engine = FederatedEngine(tiny_lake)
        __, __s, report = engine.profile(TINY_QUERY, seed=1)
        with pytest.raises(KeyError) as excinfo:
            report.by_label("NoSuchOperator")
        message = str(excinfo.value)
        assert "NoSuchOperator" in message
        assert "available labels" in message
        assert "Project" in message

    def test_by_label_error_on_empty_report(self):
        from repro.obs import ProfileReport

        with pytest.raises(KeyError, match=r"\(none\)"):
            ProfileReport().by_label("anything")

    def test_render_stable_for_zero_row_operators(self, tiny_lake):
        query = """
        PREFIX v: <http://ex/vocab#>
        SELECT * WHERE { ?g a v:Gene ; v:geneSymbol "NOPE" . }
        """
        engine = FederatedEngine(tiny_lake)
        __, __s, report = engine.profile(query, seed=1)
        text = report.render()
        # One line per operator plus header and cache summary — zero-row
        # operators render with "-" markers instead of vanishing.
        assert len(text.splitlines()) == len(report.entries) + 2
        assert "rows=0 first=- last=-" in text
