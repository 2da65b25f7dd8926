"""Cache invalidation: writes and physical-design changes drop cached state.

A cached wrapper sub-result must stop being served after INSERT/DELETE on
an underlying table and after CREATE/DROP INDEX changes the physical
design.  The plan cache follows the physical design only: index DDL
re-plans, since the heuristics' decisions depend on the indexes, while a
data write keeps the plan (``test_plan_follows_design.py``).
"""

import pytest

from repro import FederatedEngine, NetworkSetting, PlanPolicy
from repro.rdf.terms import IRI, Literal, Triple

from ..conftest import TINY_QUERY

XSD_STRING = "http://www.w3.org/2001/XMLSchema#string"


def warm(engine, query=TINY_QUERY, seed=1):
    answers, stats = engine.run(query, seed=seed)
    return answers, stats


class TestDataVersionCounters:
    def test_insert_bumps_table_and_database_version(self, tiny_lake):
        database = tiny_lake.source("diseasome").database
        storage = database.table("gene")
        before_table, before_db = storage.version, database.data_version
        storage.insert({"id": 999, "genesymbol": "XYZ", "associateddisease": 1})
        assert storage.version == before_table + 1
        assert database.data_version == before_db + 1

    def test_delete_bumps_version(self, tiny_lake):
        database = tiny_lake.source("diseasome").database
        storage = database.table("gene")
        row_id = storage.insert({"id": 998, "genesymbol": "ZZZ", "associateddisease": 1})
        before = database.data_version
        assert storage.delete(row_id)
        assert database.data_version == before + 1

    def test_index_ddl_bumps_version(self, tiny_lake):
        database = tiny_lake.source("diseasome").database
        before = database.data_version
        database.create_index("gene", ["genesymbol"], name="ix_tmp")
        assert database.data_version > before
        mid = database.data_version
        database.drop_index("gene", "ix_tmp")
        assert database.data_version > mid

    def test_graph_version_counts_real_changes_only(self):
        from repro.rdf import Graph

        graph = Graph("g")
        triple = Triple(IRI("http://ex/s"), IRI("http://ex/p"), Literal("o", XSD_STRING))
        assert graph.version == 0
        graph.add(triple)
        assert graph.version == 1
        graph.add(triple)  # duplicate: no change, no bump
        assert graph.version == 1
        graph.remove(triple)
        assert graph.version == 2

    def test_lake_catalog_version_reflects_member_writes(self, tiny_lake):
        before = tiny_lake.catalog_version()
        tiny_lake.source("diseasome").database.table("gene").insert(
            {"id": 997, "genesymbol": "AAA", "associateddisease": 1}
        )
        after = tiny_lake.catalog_version()
        assert before != after
        changed = dict(after).keys() - {
            source for source, version in before if dict(after)[source] == version
        }
        assert "diseasome" in changed


class TestSubresultInvalidation:
    def test_insert_drops_cached_wrapper_result(self, tiny_lake):
        engine = FederatedEngine(tiny_lake)
        answers_before, __ = warm(engine)
        __, stats_warm = warm(engine)
        assert stats_warm.subresult_cache_hits > 0
        assert stats_warm.subresult_cache_misses == 0

        # A new gene joins an existing disease: the result set must grow.
        tiny_lake.source("diseasome").database.table("gene").insert(
            {"id": 500, "genesymbol": "NEW1", "associateddisease": 2}
        )
        answers_after, stats_after = warm(engine)
        assert stats_after.subresult_cache_misses > 0  # stale entries skipped
        assert len(answers_after) == len(answers_before) + 1
        symbols = {str(solution["sym"]) for solution in answers_after}
        assert any("NEW1" in symbol for symbol in symbols)

    def test_delete_drops_cached_wrapper_result(self, tiny_lake):
        database = tiny_lake.source("diseasome").database
        storage = database.table("gene")
        row_id = storage.insert({"id": 501, "genesymbol": "TMP", "associateddisease": 2})
        engine = FederatedEngine(tiny_lake)
        answers_with, __ = warm(engine)
        storage.delete(row_id)
        answers_without, stats = warm(engine)
        assert len(answers_without) == len(answers_with) - 1
        assert stats.subresult_cache_misses > 0

    def test_create_index_invalidates_subresults_and_plans(self, tiny_lake):
        engine = FederatedEngine(tiny_lake)
        warm(engine)
        __, stats_warm = warm(engine)
        assert stats_warm.plan_cache_hit is True

        tiny_lake.create_index("diseasome", "disease", ["diseaseclass"])
        __, stats_after = warm(engine)
        assert stats_after.plan_cache_hit is False  # replanned
        assert stats_after.subresult_cache_misses > 0

    def test_drop_index_invalidates_plan_cache(self, tiny_lake):
        tiny_lake.create_index("diseasome", "disease", ["diseaseclass"], name="ix_dc")
        engine = FederatedEngine(tiny_lake)
        warm(engine)
        __, stats_warm = warm(engine)
        assert stats_warm.plan_cache_hit is True
        tiny_lake.drop_index("diseasome", "disease", "ix_dc")
        __, stats_after = warm(engine)
        assert stats_after.plan_cache_hit is False

    def test_rdf_source_write_invalidates(self, diseasome_graph, affymetrix_graph):
        from repro.datalake import SemanticDataLake

        lake = SemanticDataLake("rdf")
        lake.add_rdf_source("diseasome", diseasome_graph)
        lake.add_rdf_source("affymetrix", affymetrix_graph)
        engine = FederatedEngine(lake)
        answers_before, __ = warm(engine)
        __, stats_warm = warm(engine)
        assert stats_warm.subresult_cache_hits > 0

        vocabulary = "http://ex/vocab#"
        subject = IRI("http://ex/diseasome/Gene/99")
        diseasome_graph.add(
            Triple(
                subject,
                IRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#type"),
                IRI(f"{vocabulary}Gene"),
            )
        )
        diseasome_graph.add(
            Triple(subject, IRI(f"{vocabulary}geneSymbol"), Literal("G99", XSD_STRING))
        )
        diseasome_graph.add(
            Triple(
                subject,
                IRI(f"{vocabulary}associatedDisease"),
                IRI("http://ex/diseasome/Disease/1"),
            )
        )
        lake.invalidate_descriptions()
        answers_after, stats_after = warm(engine)
        assert stats_after.subresult_cache_misses > 0
        assert len(answers_after) == len(answers_before) + 1
