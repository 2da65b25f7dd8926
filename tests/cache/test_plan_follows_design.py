"""Heuristic plans follow the lake's physical design, not its data.

The heuristics read the physical catalog (index flags, primary keys, the
row counts harvested at the last DDL), the molecule templates and the
static mappings; no data write changes any of them.  So after every kind
of write the next run of a heuristic policy is a plan-cache hit whose
plan is the one a fresh planner builds and whose answers are a cache-free
engine's.  Every design change (index DDL, refreshed descriptions, a new
member) re-plans, and a cost-based policy, whose statistics read the
rows, still re-plans after a data write.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro import FederatedEngine, NetworkSetting, PlanPolicy
from repro.datasets import BENCHMARK_QUERIES, build_lslod_lake
from repro.rdf import Graph
from repro.rdf.terms import IRI, Triple

SEED = 7
SENTINEL_ID = 990_001
NETWORKS = (
    NetworkSetting.no_delay,
    NetworkSetting.gamma1,
    NetworkSetting.gamma2,
    NetworkSetting.gamma3,
)
POLICIES = {
    "aware": PlanPolicy.physical_design_aware,
    "unaware": PlanPolicy.physical_design_unaware,
    "heuristic2": PlanPolicy.heuristic2,
    "filters_at_source": PlanPolicy.filters_at_source,
    "dependent": PlanPolicy.dependent_join,
    "triple_wise": PlanPolicy.triple_wise,
}
#: Per query, a variable whose subject row, copied under a fresh key,
#: adds an answer: (variable, source, table).
ANSWER_ROWS = {
    "Q1": ("trial", "linkedct", "trial"),
    "Q2": ("gene", "diseasome", "gene"),
    "Q3": ("expr", "tcga", "geneexpression"),
    "Q4": ("drug", "drugbank", "drug"),
    "Q5": ("expr", "tcga", "geneexpression"),
    "Fig1": ("probe", "affymetrix", "probeset"),
}
KEGG_COMPOUND = IRI("http://lslod.repro/kegg/resource/Compound/990001")


@pytest.fixture(scope="module")
def lake():
    """A private small lake: every test leaves its data as it found it."""
    return build_lslod_lake(scale=0.1, seed=42)


@contextmanager
def net_zero_sql(lake, answers):
    database = lake.source("linkedct").database
    database.execute(f"INSERT INTO trial (id) VALUES ({SENTINEL_ID})")
    database.execute(f"DELETE FROM trial WHERE id = {SENTINEL_ID}")
    yield


@contextmanager
def answer_adding_insert(lake, answers, query_name):
    variable, source_id, table = ANSWER_ROWS[query_name]
    database = lake.source(source_id).database
    row_id = int(answers[0][variable].value.rpartition("/")[2])
    (row,) = database.query(f"SELECT * FROM {table} WHERE id = {row_id}").fetchall()
    columns = database.table(table).schema.column_names
    database.insert(table, {**dict(zip(columns, row)), "id": SENTINEL_ID})
    try:
        yield
    finally:
        assert database.execute(f"DELETE FROM {table} WHERE id = {SENTINEL_ID}") == 1


@contextmanager
def direct_storage_insert(lake, answers):
    storage = lake.source("diseasome").database.table("gene")
    row_id = storage.insert({"id": SENTINEL_ID, "genesymbol": "SENTINEL"})
    try:
        yield
    finally:
        assert storage.delete(row_id)


@contextmanager
def graph_add(lake, answers):
    # A copy of a KEGG subject under a new IRI; copying a compound that
    # answers Q4 gives Q4 one answer more.
    graph: Graph = lake.source("kegg").graph
    compound = answers[0].get("compound") or next(iter(graph.subjects()))
    copies = [
        Triple(KEGG_COMPOUND, triple.predicate, triple.object)
        for triple in graph.triples(compound, None, None)
    ]
    for triple in copies:
        assert graph.add(triple)
    try:
        yield
    finally:
        for triple in copies:
            assert graph.remove(triple)


WRITES = {
    "net-zero SQL insert and delete": net_zero_sql,
    "insert adding an answer": answer_adding_insert,
    "direct TableStorage insert": direct_storage_insert,
    "Graph.add": graph_add,
}


def engines(lake, policy_name):
    """(cached, cache-free) engine pairs, one per network."""
    policy = POLICIES[policy_name]()
    return [
        (
            FederatedEngine(lake, policy=policy, network=network()),
            FederatedEngine(
                lake,
                policy=policy,
                network=network(),
                enable_plan_cache=False,
                enable_subresult_cache=False,
            ),
        )
        for network in NETWORKS
    ]


@pytest.mark.parametrize("policy_name", sorted(POLICIES))
@pytest.mark.parametrize("query_name", sorted(BENCHMARK_QUERIES))
def test_a_data_write_keeps_the_plan(lake, query_name, policy_name):
    text = BENCHMARK_QUERIES[query_name].text
    pairs = engines(lake, policy_name)
    firsts = [cached.run(text, seed=SEED) for cached, __ in pairs]
    assert not any(stats.plan_cache_hit for __, stats in firsts)
    before = firsts[0][0]
    for write_name, write in WRITES.items():
        extra = (query_name,) if write is answer_adding_insert else ()
        with write(lake, before, *extra):
            for cached, cache_free in pairs:
                answers, stats = cached.run(text, seed=SEED)
                assert stats.plan_cache_hit is True, write_name
                plan = cached.plan(text)
                assert plan.explain() == cached.planner().plan(text).explain(), write_name
                expected, __ = cache_free.run(text, seed=SEED)
                assert answers == expected, write_name
                if write is answer_adding_insert or (
                    write is graph_add and query_name == "Q4"
                ):
                    assert len(answers) > len(before), write_name
    for (cached, __), (first, __) in zip(pairs, firsts):
        assert cached.run(text, seed=SEED)[0] == first


@contextmanager
def index_created(lake):
    lake.create_index("diseasome", "disease", ["diseaseclass"], name="ix_design")
    try:
        yield
    finally:
        lake.drop_index("diseasome", "disease", "ix_design")


@contextmanager
def index_dropped(lake):
    lake.drop_index("tcga", "geneexpression", "ix_geneexpression_genesymbol")
    try:
        yield
    finally:
        lake.create_index("tcga", "geneexpression", ["genesymbol"])


@contextmanager
def descriptions_invalidated(lake):
    lake.invalidate_descriptions()
    yield


@contextmanager
def source_registered(lake):
    lake.add_rdf_source(f"extra{lake.design_version}", Graph("extra"))
    yield


DESIGN_CHANGES = {
    "create_index": index_created,
    "drop_index": index_dropped,
    "invalidate_descriptions": descriptions_invalidated,
    "register a source": source_registered,
}


@pytest.mark.parametrize("change", sorted(DESIGN_CHANGES))
def test_a_design_change_replans(lake, change):
    if change == "register a source":
        lake = build_lslod_lake(scale=0.1, seed=42)  # it stays registered
    texts = [query.text for query in BENCHMARK_QUERIES.values()]
    cached = [
        FederatedEngine(lake, policy=policy(), network=NetworkSetting.gamma2())
        for policy in POLICIES.values()
    ]
    for engine in cached:
        for text in texts:
            engine.plan(text)
    version = lake.design_version
    with DESIGN_CHANGES[change](lake):
        assert lake.design_version > version
        for engine in cached:
            for text in texts:
                __, stats = engine.run(text, seed=SEED)
                assert stats.plan_cache_hit is False
                assert engine.plan(text).explain() == engine.planner().plan(text).explain()


def test_a_cost_plan_replans_after_a_data_write(lake):
    engine = FederatedEngine(lake, policy=PlanPolicy.cost(), network=NetworkSetting.gamma2())
    text = BENCHMARK_QUERIES["Q2"].text
    engine.run(text, seed=SEED)
    assert engine.run(text, seed=SEED)[1].plan_cache_hit is True
    with net_zero_sql(lake, None):
        assert engine.run(text, seed=SEED)[1].plan_cache_hit is False
