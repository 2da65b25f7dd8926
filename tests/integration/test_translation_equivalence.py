"""Property: the relational path is semantically transparent.

For random small RDF graphs and random star queries, evaluating the query

* directly over the RDF graph (the local SPARQL evaluator), and
* over the 3NF-normalized relational version via SSQ->SQL translation

must produce identical answer sets.  This is the end-to-end correctness of
normalizer + mappings + translator + relational engine.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.benchmark import answer_set
from repro.core import decompose_star_shaped
from repro.federation import RelationalSource, RunContext, SQLWrapper
from repro.mapping import normalize_graph, translate_stars
from repro.rdf import Graph, IRI, Literal, RDF_TYPE, Triple, XSD_INTEGER
from repro.sparql import evaluate_query, parse_query

VOCAB = "http://ex/v#"
CLASS_GENE = IRI(VOCAB + "Gene")
CLASS_DISEASE = IRI(VOCAB + "Disease")

SYMBOLS = ["BRCA1", "TP53", "KRAS", "INS", "EGFR"]


@st.composite
def random_lake_graph(draw):
    """A small typed graph with genes linking to diseases."""
    graph = Graph()
    n_diseases = draw(st.integers(1, 5))
    n_genes = draw(st.integers(1, 12))
    for index in range(1, n_diseases + 1):
        subject = IRI(f"http://ex/data/Disease/{index}")
        graph.add(Triple(subject, RDF_TYPE, CLASS_DISEASE))
        name = draw(st.sampled_from(["cancer", "diabetes", "asthma", "flu"]))
        graph.add(Triple(subject, IRI(VOCAB + "name"), Literal(f"{name} {index}")))
        graph.add(
            Triple(
                subject,
                IRI(VOCAB + "degree"),
                Literal(str(draw(st.integers(0, 30))), XSD_INTEGER),
            )
        )
    for index in range(1, n_genes + 1):
        subject = IRI(f"http://ex/data/Gene/{index}")
        graph.add(Triple(subject, RDF_TYPE, CLASS_GENE))
        # Some genes lack a symbol (NULL column) to exercise the guards.
        if draw(st.booleans()) or index == 1:
            graph.add(
                Triple(
                    subject,
                    IRI(VOCAB + "symbol"),
                    Literal(draw(st.sampled_from(SYMBOLS))),
                )
            )
        disease_key = draw(st.integers(1, n_diseases))
        graph.add(
            Triple(
                subject,
                IRI(VOCAB + "assoc"),
                IRI(f"http://ex/data/Disease/{disease_key}"),
            )
        )
    return graph


@st.composite
def random_star_query(draw):
    """A star over Gene, with optional constant object and optional filter."""
    parts = ["?g a v:Gene"]
    variables = ["?g"]
    use_symbol = draw(st.booleans())
    if use_symbol:
        constant = draw(st.booleans())
        if constant:
            parts.append(f'v:symbol "{draw(st.sampled_from(SYMBOLS))}"')
        else:
            parts.append("v:symbol ?s")
            variables.append("?s")
    use_assoc = draw(st.booleans())
    if use_assoc:
        parts.append("v:assoc ?d")
        variables.append("?d")
    body = " ; ".join(parts) + " ."
    filter_clause = ""
    if "?s" in variables and draw(st.booleans()):
        kind = draw(st.sampled_from(["eq", "contains", "neq"]))
        if kind == "eq":
            filter_clause = f'FILTER(?s = "{draw(st.sampled_from(SYMBOLS))}")'
        elif kind == "neq":
            filter_clause = f'FILTER(?s != "{draw(st.sampled_from(SYMBOLS))}")'
        else:
            filter_clause = f'FILTER(CONTAINS(?s, "{draw(st.sampled_from(["R", "A", "5"]))}"))'
    return (
        "PREFIX v: <http://ex/v#>\n"
        f"SELECT {' '.join(variables)} WHERE {{ {body} {filter_clause} }}"
    )


class TestTranslationEquivalence:
    @given(graph=random_lake_graph(), query_text=random_star_query())
    @settings(max_examples=60, deadline=None)
    def test_sql_path_matches_sparql_path(self, graph, query_text):
        query = parse_query(query_text)

        # Path 1: local SPARQL evaluation over the original graph.
        reference = list(evaluate_query(graph, query))

        # Path 2: normalize to 3NF, translate the star, run the SQL.
        database, mapping, __ = normalize_graph("src", graph)
        source = RelationalSource(source_id="src", database=database, mapping=mapping)
        wrapper = SQLWrapper(source)
        decomposition = decompose_star_shaped(query)
        star = decomposition.subqueries[0]
        translation = translate_stars(
            [(star, mapping.class_mapping(CLASS_GENE))],
            pushed_filters=star.filters,
        )
        produced = list(wrapper.execute(translation, RunContext(seed=1)))
        projected = [
            {name: solution[name] for name in (v.name for v in query.variables) if name in solution}
            for solution in produced
        ]

        assert answer_set(projected) == answer_set(reference), query_text
