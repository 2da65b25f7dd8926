"""Tests for source wrappers and the run context / statistics."""

import pytest

from repro.core import decompose_star_shaped
from repro.federation import (
    RDFSource,
    RelationalSource,
    RunContext,
    SPARQLWrapper,
    SQLWrapper,
    StarRequest,
)
from repro.federation.answers import ExecutionStats
from repro.mapping import normalize_graph, translate_stars
from repro.network import FixedDelay, NetworkSetting, VirtualClock
from repro.rdf import IRI
from repro.sparql import parse_query

from ..conftest import TINY_AFFYMETRIX, TINY_DISEASOME, make_tiny_graph

PREFIX = "PREFIX v: <http://ex/vocab#>\n"
GENE = IRI("http://ex/vocab#Gene")


@pytest.fixture(scope="module")
def relational_source() -> RelationalSource:
    db, mapping, __ = normalize_graph("diseasome", make_tiny_graph(TINY_DISEASOME))
    return RelationalSource(source_id="diseasome", database=db, mapping=mapping)


def star(text: str):
    return decompose_star_shaped(parse_query(PREFIX + text)).subqueries[0]


class TestSQLWrapper:
    def test_streams_solutions(self, relational_source):
        wrapper = SQLWrapper(relational_source)
        the_star = star("SELECT * WHERE { ?g a v:Gene ; v:geneSymbol ?s . }")
        translation = translate_stars([(the_star, relational_source.mapping.class_mapping(GENE))])
        context = RunContext(seed=1)
        solutions = list(wrapper.execute(translation, context))
        assert len(solutions) == 4
        assert all(isinstance(solution["g"], IRI) for solution in solutions)

    def test_charges_source_time_and_messages(self, relational_source):
        wrapper = SQLWrapper(relational_source)
        the_star = star("SELECT * WHERE { ?g a v:Gene ; v:geneSymbol ?s . }")
        translation = translate_stars([(the_star, relational_source.mapping.class_mapping(GENE))])
        context = RunContext(seed=1)
        list(wrapper.execute(translation, context))
        source_stats = context.stats.source("diseasome")
        assert source_stats.requests == 1
        assert source_stats.answers == 4
        assert source_stats.virtual_cost > 0
        assert context.now() > 0

    def test_network_delay_applied_per_answer(self, relational_source):
        wrapper = SQLWrapper(relational_source)
        the_star = star("SELECT * WHERE { ?g a v:Gene ; v:geneSymbol ?s . }")
        translation = translate_stars([(the_star, relational_source.mapping.class_mapping(GENE))])
        setting = NetworkSetting("fixed", FixedDelay(0.01))
        context = RunContext(network=setting, seed=1)
        list(wrapper.execute(translation, context))
        # 1 request + 4 answers, each paying >= 10ms
        assert context.now() >= 0.05

    def test_time_advances_between_answers(self, relational_source):
        wrapper = SQLWrapper(relational_source)
        the_star = star("SELECT * WHERE { ?g a v:Gene ; v:geneSymbol ?s . }")
        translation = translate_stars([(the_star, relational_source.mapping.class_mapping(GENE))])
        setting = NetworkSetting("fixed", FixedDelay(0.01))
        context = RunContext(network=setting, seed=1)
        timestamps = []
        for __ in wrapper.execute(translation, context):
            timestamps.append(context.now())
        assert timestamps == sorted(timestamps)
        assert len(set(timestamps)) == len(timestamps)


class TestSPARQLWrapper:
    def test_streams_solutions(self):
        graph = make_tiny_graph(TINY_AFFYMETRIX)
        source = RDFSource(source_id="affymetrix", graph=graph)
        wrapper = SPARQLWrapper(source)
        the_star = star("SELECT * WHERE { ?p a v:Probeset ; v:symbol ?s . }")
        context = RunContext(seed=1)
        solutions = list(wrapper.execute(StarRequest(the_star, ()), context))
        assert len(solutions) == 3
        assert context.stats.source("affymetrix").answers == 3

    def test_pushed_filters_applied(self):
        graph = make_tiny_graph(TINY_AFFYMETRIX)
        source = RDFSource(source_id="affymetrix", graph=graph)
        wrapper = SPARQLWrapper(source)
        the_star = star(
            'SELECT * WHERE { ?p a v:Probeset ; v:scientificName ?sp . '
            'FILTER(CONTAINS(?sp, "Homo")) }'
        )
        context = RunContext(seed=1)
        request = StarRequest(the_star, tuple(the_star.filters))
        solutions = list(wrapper.execute(request, context))
        assert len(solutions) == 2


class TestRunContext:
    def test_default_virtual_clock(self):
        context = RunContext()
        assert context.now() == 0.0

    def test_charge_engine_accumulates(self):
        context = RunContext()
        context.charge_engine(0.5)
        context.charge_engine(0.25)
        assert context.stats.engine_cost == pytest.approx(0.75)
        assert context.now() == pytest.approx(0.75)

    def test_charge_request_counts(self):
        context = RunContext(seed=1)
        context.charge_request("src")
        assert context.stats.messages == 1
        assert context.stats.source("src").requests == 1

    def test_deterministic_with_seed(self):
        setting = NetworkSetting.gamma2()
        first = RunContext(network=setting, seed=9)
        second = RunContext(network=setting, seed=9)
        for __ in range(5):
            first.charge_request("s")
            second.charge_request("s")
        assert first.now() == pytest.approx(second.now())


class TestExecutionStats:
    def test_record_answer_builds_trace(self):
        stats = ExecutionStats()
        stats.record_answer(0.5)
        stats.record_answer(1.0)
        assert stats.answers == 2
        assert stats.time_to_first_answer == 0.5
        assert stats.trace == [(0.5, 1), (1.0, 2)]

    def test_answers_at(self):
        stats = ExecutionStats()
        for when in (0.5, 1.0, 2.0):
            stats.record_answer(when)
        assert stats.answers_at(0.4) == 0
        assert stats.answers_at(1.0) == 2
        assert stats.answers_at(5.0) == 3

    def test_trace_area(self):
        stats = ExecutionStats()
        stats.record_answer(1.0)
        stats.execution_time = 2.0
        # 1 answer from t=1 to t=2
        assert stats.trace_area() == pytest.approx(1.0)

    def test_throughput(self):
        stats = ExecutionStats()
        stats.record_answer(0.5)
        stats.record_answer(1.0)
        stats.execution_time = 2.0
        assert stats.throughput == pytest.approx(1.0)
