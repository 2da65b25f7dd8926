"""Tests for the dependent (bound) join and restricted translations."""

import pytest

from repro import FederatedEngine, NetworkSetting, PlanPolicy
from repro.benchmark import same_answers
from repro.core import JoinStrategy, decompose_star_shaped
from repro.exceptions import TranslationError
from repro.federation import DependentJoin, RunContext, ServiceNode
from repro.federation.operators import SymmetricHashJoin
from repro.mapping import normalize_graph, translate_stars
from repro.rdf import IRI, Literal
from repro.sparql import parse_query

from ..conftest import TINY_DISEASOME, TINY_QUERY, make_tiny_graph

PREFIX = "PREFIX v: <http://ex/vocab#>\n"
GENE = IRI("http://ex/vocab#Gene")


@pytest.fixture(scope="module")
def prepared():
    db, mapping, __ = normalize_graph("tiny", make_tiny_graph(TINY_DISEASOME))
    return db, mapping


def gene_translation(prepared):
    db, mapping = prepared
    star = decompose_star_shaped(
        parse_query(PREFIX + "SELECT * WHERE { ?g a v:Gene ; v:geneSymbol ?s . }")
    ).subqueries[0]
    return db, translate_stars([(star, mapping.class_mapping(GENE))])


class TestRestrictedTranslation:
    def test_literal_in_restriction(self, prepared):
        db, translation = gene_translation(prepared)
        restricted = translation.restricted("s", [Literal("BRCA1"), Literal("TP53")])
        assert "IN ('BRCA1', 'TP53')" in restricted.sql
        rows = db.query(restricted.statement).fetchall()
        assert len(rows) == 2

    def test_iri_keys_extracted(self, prepared):
        db, translation = gene_translation(prepared)
        restricted = translation.restricted(
            "g", [IRI("http://ex/diseasome/Gene/10"), IRI("http://ex/diseasome/Gene/12")]
        )
        assert "IN (10, 12)" in restricted.sql
        assert len(db.query(restricted.statement).fetchall()) == 2

    def test_foreign_iris_dropped(self, prepared):
        db, translation = gene_translation(prepared)
        restricted = translation.restricted(
            "g", [IRI("http://other/space/1"), IRI("http://ex/diseasome/Gene/10")]
        )
        assert "IN (10)" in restricted.sql

    def test_all_foreign_terms_yield_empty(self, prepared):
        db, translation = gene_translation(prepared)
        restricted = translation.restricted("g", [IRI("http://other/space/1")])
        assert db.query(restricted.statement).fetchall() == []

    def test_unknown_variable_rejected(self, prepared):
        __, translation = gene_translation(prepared)
        with pytest.raises(TranslationError):
            translation.restricted("nope", [Literal("x")])

    def test_original_translation_unchanged(self, prepared):
        db, translation = gene_translation(prepared)
        before = translation.sql
        translation.restricted("s", [Literal("BRCA1")])
        assert translation.sql == before


class TestDependentJoinOperator:
    def make_inner(self, prepared) -> ServiceNode:
        from repro.federation import RelationalSource, SQLWrapper

        db, translation = gene_translation(prepared)
        __, mapping = prepared
        source = RelationalSource(source_id="tiny", database=db, mapping=mapping)
        return ServiceNode(SQLWrapper(source), translation)

    def outer_static(self, symbols):
        from tests.federation.test_operators import Static

        return Static([{"s": Literal(symbol)} for symbol in symbols])

    def test_joins_correctly(self, prepared):
        inner = self.make_inner(prepared)
        join = DependentJoin(self.outer_static(["BRCA1", "KRAS"]), inner, "s")
        rows = list(join.execute(RunContext(seed=1)))
        assert len(rows) == 2
        assert {row["s"].lexical for row in rows} == {"BRCA1", "KRAS"}

    def test_empty_outer(self, prepared):
        inner = self.make_inner(prepared)
        join = DependentJoin(self.outer_static([]), inner, "s")
        assert list(join.execute(RunContext(seed=1))) == []

    def test_blocks_partition_outer(self, prepared):
        inner = self.make_inner(prepared)
        join = DependentJoin(
            self.outer_static(["BRCA1", "TP53", "KRAS", "INS"]), inner, "s", block_size=2
        )
        context = RunContext(seed=1)
        rows = list(join.execute(context))
        assert len(rows) == 4
        # two blocks -> two restricted requests
        assert context.stats.source("tiny").requests == 2

    def test_duplicate_outer_terms_multiply(self, prepared):
        inner = self.make_inner(prepared)
        join = DependentJoin(self.outer_static(["BRCA1", "BRCA1"]), inner, "s")
        rows = list(join.execute(RunContext(seed=1)))
        assert len(rows) == 2

    def test_matches_symmetric_hash_join(self, prepared):
        inner_dep = self.make_inner(prepared)
        inner_shj = self.make_inner(prepared)
        symbols = ["BRCA1", "TP53", "NOPE", "KRAS", "INS", "BRCA1"]
        dep_rows = list(
            DependentJoin(self.outer_static(symbols), inner_dep, "s", block_size=2).execute(
                RunContext(seed=1)
            )
        )
        shj_rows = list(
            SymmetricHashJoin(self.outer_static(symbols), inner_shj, ("s",)).execute(
                RunContext(seed=1)
            )
        )
        assert same_answers(dep_rows, shj_rows)


class TestPlannerIntegration:
    def test_policy_produces_dependent_join(self, tiny_lake):
        engine = FederatedEngine(tiny_lake, policy=PlanPolicy.dependent_join())
        query = PREFIX + (
            "SELECT * WHERE { ?g a v:Gene ; v:geneSymbol ?sym . "
            "?p a v:Probeset ; v:symbol ?sym . }"
        )
        plan = engine.plan(query)
        assert "DependentJoin" in plan.explain()

    def test_same_answers_as_symmetric(self, tiny_lake):
        query = PREFIX + (
            "SELECT * WHERE { ?g a v:Gene ; v:geneSymbol ?sym . "
            "?p a v:Probeset ; v:symbol ?sym ; v:scientificName ?sp . }"
        )
        dep, __ = FederatedEngine(tiny_lake, policy=PlanPolicy.dependent_join()).run(
            query, seed=1
        )
        shj, __ = FederatedEngine(
            tiny_lake, policy=PlanPolicy.physical_design_aware()
        ).run(query, seed=1)
        assert same_answers(dep, shj)
        assert len(dep) == 3

    def test_falls_back_without_restriction(self, tiny_lake, affymetrix_graph):
        # RDF services are not restrictable: the planner must fall back.
        from repro.datalake import SemanticDataLake

        lake = SemanticDataLake("mixed")
        lake.add_graph_as_relational(
            "diseasome", make_tiny_graph(TINY_DISEASOME)
        )
        lake.add_rdf_source("affymetrix", affymetrix_graph)
        engine = FederatedEngine(lake, policy=PlanPolicy.dependent_join())
        query = PREFIX + (
            "SELECT * WHERE { ?p a v:Probeset ; v:symbol ?sym . "
            "?g a v:Gene ; v:geneSymbol ?sym ; v:associatedDisease ?d . "
            "?d a v:Disease ; v:diseaseName ?dn . }"
        )
        plan = engine.plan(query)
        explained = plan.explain()
        # at least one join must have fallen back (depending on order the
        # RDF leaf may be outer); answers still correct
        answers, __ = engine.run(query, seed=1)
        assert len(answers) == 3

    def test_dependent_join_over_rdf_source(self, affymetrix_graph):
        """RDF leaves are restrictable too (VALUES-style filtering)."""
        from repro.datalake import SemanticDataLake
        from tests.conftest import TINY_DISEASOME, make_tiny_graph

        lake = SemanticDataLake("mixed")
        lake.add_graph_as_relational("diseasome", make_tiny_graph(TINY_DISEASOME))
        lake.add_rdf_source("affymetrix", affymetrix_graph)
        engine = FederatedEngine(lake, policy=PlanPolicy.dependent_join())
        query = PREFIX + (
            'SELECT * WHERE { ?g a v:Gene ; v:geneSymbol ?sym ; '
            'v:associatedDisease <http://ex/diseasome/Disease/1> . '
            "?p a v:Probeset ; v:symbol ?sym . }"
        )
        plan = engine.plan(query)
        assert "DependentJoin" in plan.explain()
        answers, stats = engine.run(query, seed=1)
        assert {answer["sym"].lexical for answer in answers} == {"BRCA1", "TP53"}
        # the probeset star (smaller estimate) is the outer; the diseasome
        # leaf is restricted to the three probed symbols and only ships the
        # two genes of Disease/1 carrying them
        assert stats.source("affymetrix").answers == 3
        assert stats.source("diseasome").answers == 2

    def test_restriction_uses_index(self, tiny_lake):
        """The pushed IN list is answered via the index, not a scan."""
        source = tiny_lake.source("affymetrix")
        plan = source.database.explain(
            "SELECT id FROM probeset WHERE symbol IN ('BRCA1', 'TP53')"
        )
        assert "IndexScan" in plan
        assert "IN (2 keys)" in plan
