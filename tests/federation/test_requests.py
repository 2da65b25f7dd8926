"""A sub-query is one request value: ``TranslationResult`` / ``StarRequest``.

What a request promises (rendered once, restriction leaves the original
alone, the sub-result keys are the pre-refactor tuples value for value) and
a structural guard that plan leaves stay data: no ``Callable`` field on
``ServiceNode`` and no lambda inside a ``ServiceNode(...)`` call of the
planner.
"""

from __future__ import annotations

import ast
import inspect

import pytest

from repro.cache import CacheRegistry, sparql_result_key, sql_result_key
from repro.core import decompose_star_shaped, planner
from repro.federation import (
    RDFSource,
    RelationalSource,
    RunContext,
    SPARQLWrapper,
    SQLWrapper,
    StarRequest,
)
from repro.federation.operators import ServiceNode
from repro.mapping import TranslationResult, normalize_graph, translate_stars
from repro.rdf import IRI, Literal
from repro.relational.sql.ast import SelectStatement
from repro.sparql import parse_query

from ..conftest import TINY_AFFYMETRIX, TINY_DISEASOME, make_tiny_graph

PREFIX = "PREFIX v: <http://ex/vocab#>\n"
GENE = IRI("http://ex/vocab#Gene")
GENE_SQL = "SELECT t0.id AS v_g, t0.genesymbol AS v_s FROM gene AS t0 WHERE t0.genesymbol IS NOT NULL"
PROBESET_PATTERNS = (
    "?p <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/vocab#Probeset> . . "
    "?p <http://ex/vocab#symbol> ?s . . ?p <http://ex/vocab#scientificName> ?sp ."
)


def star(text: str):
    return decompose_star_shaped(parse_query(PREFIX + text)).subqueries[0]


@pytest.fixture
def sql_leaf():
    """(wrapper, a translation nobody has rendered yet)."""
    db, mapping, __ = normalize_graph("diseasome", make_tiny_graph(TINY_DISEASOME))
    source = RelationalSource(source_id="diseasome", database=db, mapping=mapping)
    memoized = translate_stars(
        [(star("SELECT * WHERE { ?g a v:Gene ; v:geneSymbol ?s . }"), mapping.class_mapping(GENE))]
    )
    return SQLWrapper(source), TranslationResult(memoized.statement, memoized.outputs)


@pytest.fixture
def sparql_leaf():
    source = RDFSource(source_id="affymetrix", graph=make_tiny_graph(TINY_AFFYMETRIX))
    the_star = star(
        "SELECT * WHERE { ?p a v:Probeset ; v:symbol ?s ; v:scientificName ?sp . "
        'FILTER(CONTAINS(?sp, "Homo")) }'
    )
    return SPARQLWrapper(source), StarRequest(the_star, tuple(the_star.filters))


def test_sql_text_is_rendered_once(sql_leaf, monkeypatch):
    wrapper, translation = sql_leaf
    renders = []
    render = SelectStatement.sql
    monkeypatch.setattr(
        SelectStatement, "sql", lambda self: renders.append(self) or render(self)
    )
    node = ServiceNode(wrapper, translation)
    for __ in range(2):
        # Batch mode with a sub-result cache reads the text twice per
        # execution: the sub-result key and the sql_blocks key.
        context = RunContext(seed=1, exec_mode="batch", caches=CacheRegistry())
        assert len(list(node.execute_batch(context))) == 4
    assert node.label() == f"Service[diseasome] SQL: {GENE_SQL}"
    assert renders == [translation.statement]


def test_restriction_leaves_the_original_untouched(sql_leaf, sparql_leaf):
    __, translation = sql_leaf
    before = translation.sql
    restricted = translation.restricted("s", [Literal("BRCA1")])
    assert restricted is not translation and restricted.sql != before
    assert (translation.sql, translation.text) == (before, f"SQL: {before}")

    __, request = sparql_leaf
    restricted = request.restricted("s", [Literal("BRCA1")])
    assert request.bindings is None and request.key_parts[2] is None
    assert restricted.bindings == ("s", frozenset([Literal("BRCA1")]))
    assert (restricted.star, restricted.filters) == (request.star, request.filters)
    assert restricted.text == request.text
    assert not request.span_args["restricted"] and restricted.span_args["restricted"]


def test_sparql_restriction_keys_ignore_term_order_and_duplicates(sparql_leaf):
    wrapper, request = sparql_leaf
    a, b = Literal("BRCA1"), Literal("TP53")
    keys = {wrapper._key(request.restricted("s", terms)) for terms in ([a, b], [b, a], [b, a, b])}
    assert len(keys) == 1
    assert wrapper._key(request.restricted("s", [a])) not in keys


def test_restriction_over_no_joinable_term_ships_nothing(sql_leaf):
    wrapper, translation = sql_leaf
    # An IRI cannot be a gene symbol: nothing can join.
    restricted = translation.restricted("s", [IRI("http://other/space/1")])
    assert restricted.sql == f"{GENE_SQL} AND 0 = 1"
    for exec_mode, run in (("row", wrapper.execute), ("batch", wrapper.execute_batch)):
        context = RunContext(seed=1, exec_mode=exec_mode)
        assert list(run(restricted, context)) == []
        shipped = context.stats.source("diseasome")
        assert (shipped.requests, shipped.answers) == (1, 0)


def test_sub_result_keys_are_the_pre_refactor_tuples(sql_leaf, sparql_leaf):
    wrapper, translation = sql_leaf
    version = wrapper.source.database.data_version
    assert wrapper._key(translation) == ("sql", "diseasome", GENE_SQL, version)
    assert wrapper._key(translation) == sql_result_key("diseasome", translation.sql, version)

    wrapper, request = sparql_leaf
    version = wrapper.source.graph.version
    filters = 'FILTER(CONTAINS(?sp, "Homo"))'
    assert wrapper._key(request) == (
        "sparql", "affymetrix", PROBESET_PATTERNS, filters, None, version,
    )
    restricted = request.restricted("s", [Literal("TP53"), Literal("BRCA1")])
    assert wrapper._key(restricted) == (
        "sparql", "affymetrix", PROBESET_PATTERNS, filters, ("s", ('"BRCA1"', '"TP53"')), version,
    )
    # ... which is what the parent commit passed to cache/keys.py.
    star_, pushed, bindings = restricted.star, restricted.filters, restricted.bindings
    assert wrapper._key(restricted) == sparql_result_key(
        "affymetrix",
        " . ".join(pattern.n3() for pattern in star_.patterns),
        " && ".join(f.n3() for f in pushed),
        (bindings[0], tuple(sorted(term.n3() for term in bindings[1]))),
        version,
    )


# -- structural guard: leaves are data ------------------------------------------


def callable_fields(class_source: str, name: str = "ServiceNode") -> list[str]:
    """Fields of class *name* whose annotation mentions ``Callable``."""
    tree = ast.parse(class_source)
    cls = next(n for n in ast.walk(tree) if isinstance(n, ast.ClassDef) and n.name == name)
    return [
        statement.target.id
        for statement in cls.body
        if isinstance(statement, ast.AnnAssign)
        and any(
            isinstance(node, ast.Name) and node.id == "Callable"
            for node in ast.walk(statement.annotation)
        )
    ]


def lambdas_in_leaf_calls(module_source: str) -> int:
    """Lambdas anywhere inside a ``ServiceNode(...)`` call."""
    return sum(
        isinstance(inner, ast.Lambda)
        for call in ast.walk(ast.parse(module_source))
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "ServiceNode"
        for inner in ast.walk(call)
    )


def test_plan_leaves_are_data():
    assert callable_fields(inspect.getsource(ServiceNode)) == []
    assert lambdas_in_leaf_calls(inspect.getsource(planner)) == 0


#: What the guard is for: the leaf as the parent commit declared and built it.
PARENT_SERVICE_NODE = '''
class ServiceNode(FedOperator):
    source_id: str
    description: str
    runner: Callable[[RunContext], Iterator[Solution]]
    engine_filters: list[Filter] = field(default_factory=list)
    restricted_runner: Callable[..., Iterator[Solution]] | None = None
    variables: tuple[str, ...] = ()
    batch_runner: Callable[[RunContext], Iterator[Handle]] | None = None
    restricted_batch_runner: Callable[..., Iterator[Handle]] | None = None
    data_version_provider: Callable[[], object] | None = None
'''
PARENT_PLANNER = '''
operator = ServiceNode(
    source_id=group.source_id,
    description=f"SQL: {translation.sql}",
    runner=lambda context, w=wrapper, t=translation: w.execute(t, context),
    engine_filters=filter_plan.at_engine,
    restricted_runner=(
        lambda context, variable, terms, w=wrapper, t=translation: w.execute(
            t.restricted(variable, terms), context
        )
    ),
    variables=tuple(sorted(variables)),
    data_version_provider=(lambda s=source: (ref(s.database), s.database.data_version)),
)
remaining = sorted(units, key=lambda unit: unit.estimate)
'''


def test_the_guard_fires_on_the_parent_commit():
    assert callable_fields(PARENT_SERVICE_NODE) == [
        "runner",
        "restricted_runner",
        "batch_runner",
        "restricted_batch_runner",
        "data_version_provider",
    ]
    # The sort-key lambda outside the call is not the guard's business.
    assert lambdas_in_leaf_calls(PARENT_PLANNER) == 3
