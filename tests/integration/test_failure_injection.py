"""Failure injection: malformed queries, missing data, wrapper errors."""

import pytest

from repro import (
    FederatedEngine,
    PlanPolicy,
    SemanticDataLake,
    SPARQLParseError,
    SourceSelectionError,
)
from repro.core.decomposer import decompose_star_shaped
from repro.exceptions import CatalogError, PlanningError, WrapperError
from repro.federation import RelationalSource, RunContext, SQLWrapper
from repro.mapping import normalize_graph, translate_stars
from repro.rdf import Graph, IRI
from repro.sparql import parse_query

from ..conftest import TINY_DISEASOME, make_tiny_graph

PREFIX = "PREFIX v: <http://ex/vocab#>\n"


class TestMalformedQueries:
    @pytest.mark.parametrize(
        "text",
        [
            "SELECT WHERE { ?a ?b }",
            "SELECT * { ?a <p> }",
            "SELECT * WHERE { ?a <http://p> ?b",
            "ASK { ?a <http://p> ?b }",
            "",
        ],
    )
    def test_parse_errors(self, tiny_lake, text):
        engine = FederatedEngine(tiny_lake)
        with pytest.raises(SPARQLParseError):
            engine.plan(text)

    def test_variable_predicate_rejected_at_planning(self, tiny_lake):
        engine = FederatedEngine(tiny_lake)
        with pytest.raises(PlanningError):
            engine.plan("SELECT * WHERE { ?s ?p ?o }")


class TestEmptyAndMissing:
    def test_empty_lake_has_no_sources(self):
        lake = SemanticDataLake("empty")
        engine = FederatedEngine(lake)
        with pytest.raises(SourceSelectionError):
            engine.plan(PREFIX + "SELECT * WHERE { ?g v:geneSymbol ?s }")

    def test_unknown_source_lookup(self):
        lake = SemanticDataLake("empty")
        with pytest.raises(CatalogError):
            lake.source("ghost")

    def test_duplicate_source_registration(self, diseasome_graph):
        lake = SemanticDataLake("dup")
        lake.add_graph_as_relational("src", diseasome_graph)
        with pytest.raises(CatalogError):
            lake.add_rdf_source("src", Graph())

    def test_query_matching_no_data_returns_empty(self, tiny_lake):
        engine = FederatedEngine(tiny_lake)
        answers, stats = engine.run(
            PREFIX + 'SELECT * WHERE { ?g a v:Gene ; v:geneSymbol "NOPE" . }',
            seed=1,
        )
        assert answers == []
        assert stats.answers == 0
        assert stats.time_to_first_answer is None

    def test_create_index_on_rdf_source_rejected(self, affymetrix_graph):
        lake = SemanticDataLake("mixed")
        lake.add_rdf_source("affymetrix", affymetrix_graph)
        with pytest.raises(CatalogError):
            lake.create_index("affymetrix", "probeset", ["symbol"])


class TestWrapperFailures:
    def test_broken_translation_surfaces_as_wrapper_error(self):
        db, mapping, __ = normalize_graph("src", make_tiny_graph(TINY_DISEASOME))
        source = RelationalSource(source_id="src", database=db, mapping=mapping)
        wrapper = SQLWrapper(source)
        star = decompose_star_shaped(
            parse_query(PREFIX + "SELECT * WHERE { ?g a v:Gene ; v:geneSymbol ?s . }")
        ).subqueries[0]
        translation = translate_stars([(star, mapping.class_mapping(IRI("http://ex/vocab#Gene")))])
        db.drop_table("gene")  # sabotage the source after planning
        with pytest.raises(WrapperError):
            list(wrapper.execute(translation, RunContext(seed=1)))


class TestRobustPlanning:
    def test_cartesian_plan_allowed_with_note(self, tiny_lake):
        engine = FederatedEngine(tiny_lake, policy=PlanPolicy.physical_design_unaware())
        plan = engine.plan(
            PREFIX
            + "SELECT * WHERE { ?g a v:Gene ; v:geneSymbol ?s . "
            "?p a v:Probeset ; v:scientificName ?sp . }"
        )
        assert any("cartesian" in note for note in plan.notes)
        answers = [a for a in engine.execute(plan.query, seed=1)]
        assert len(answers) == 4 * 3

    def test_filter_on_unbound_variable_rejects_all(self, tiny_lake):
        engine = FederatedEngine(tiny_lake)
        answers, __ = engine.run(
            PREFIX
            + "SELECT * WHERE { ?g a v:Gene ; v:geneSymbol ?s . FILTER(?nope = 1) }",
            seed=1,
        )
        assert answers == []

    def test_limit_zero(self, tiny_lake):
        engine = FederatedEngine(tiny_lake)
        answers, __ = engine.run(
            PREFIX + "SELECT * WHERE { ?g a v:Gene ; v:geneSymbol ?s . } LIMIT 0",
            seed=1,
        )
        assert answers == []
