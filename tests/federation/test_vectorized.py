"""Vectorized (columnar batch) execution: bit-identity and edge cases.

The batch data plane must be indistinguishable from the row plane in
everything except wall-clock cost: same answers in the same order, and
bitwise-identical virtual-time accumulators (clock arithmetic is float
addition, which is non-associative, so this pins the exact charge
sequence, not just the totals).
"""

from __future__ import annotations

import random

import pytest

from repro.cache import clear_memos, memo_stats
from repro.core.engine import FederatedEngine
from repro.datalake import SemanticDataLake
from repro.network.delays import NetworkSetting
from repro.rdf.terms import IRI, Literal
from repro.sparql.algebra import BinaryOp, TermExpr, VariableExpr
from repro.sparql.expressions import compile_holds, holds
from repro.sparql.parser import parse_query

from ..conftest import (
    TINY_AFFYMETRIX,
    TINY_CROSS_SOURCE_QUERY,
    TINY_DISEASOME,
    TINY_QUERY,
    make_tiny_graph,
)


def stats_signature(stats) -> tuple:
    """Every virtual-time accumulator of a run, as one comparable tuple."""
    per_source = tuple(
        (sid, s.requests, s.answers, s.virtual_cost, s.network_delay)
        for sid, s in sorted(stats.source_stats.items())
    )
    return (
        stats.execution_time,
        tuple(stats.trace),
        stats.messages,
        stats.engine_cost,
        stats.time_to_first_answer,
        stats.answers,
        stats.subresult_cache_hits,
        per_source,
    )


def run_pair(lake, query, *, seed=3, batch_size=None, network=None, runtime="sequential"):
    """One cold row run and one cold batch run; returns both (answers, sig)."""
    results = []
    for exec_mode in ("row", "batch"):
        engine = FederatedEngine(
            lake,
            network=network or NetworkSetting.no_delay(),
            runtime=runtime,
            exec=exec_mode,
            batch_size=batch_size,
        )
        answers, stats = engine.run(query, seed=seed)
        results.append((answers, stats_signature(stats)))
    return results


def assert_identical(lake, query, **kwargs):
    (row_answers, row_sig), (batch_answers, batch_sig) = run_pair(lake, query, **kwargs)
    assert batch_answers == row_answers
    assert batch_sig == row_sig
    return row_answers


DISTINCT_ORDER_QUERY = """
PREFIX v: <http://ex/vocab#>
SELECT DISTINCT ?dn WHERE {
  ?g a v:Gene ; v:associatedDisease ?d .
  ?d a v:Disease ; v:diseaseName ?dn .
}
ORDER BY ?dn
"""

EMPTY_QUERY = """
PREFIX v: <http://ex/vocab#>
SELECT ?g ?dn WHERE {
  ?g a v:Gene ; v:associatedDisease ?d .
  ?d a v:Disease ; v:diseaseName ?dn .
  FILTER(?dn = "zzz-no-such-disease")
}
"""


class TestRowBatchIdentity:
    @pytest.mark.parametrize("runtime", ["sequential", "event", "thread"])
    @pytest.mark.parametrize("network", ["no_delay", "gamma2"])
    def test_benchmark_query_identity(self, small_lslod_lake, runtime, network):
        from repro.datasets import BENCHMARK_QUERIES

        setting = getattr(NetworkSetting, network)()
        assert_identical(
            small_lslod_lake,
            BENCHMARK_QUERIES["Q2"].text,
            seed=7,
            network=setting,
            runtime=runtime,
        )

    def test_multi_join_query_identity(self, small_lslod_lake):
        # Q4 stacks two hash joins over SQL and SPARQL sources — the
        # worst case for charge-order divergence between the planes.
        from repro.datasets import BENCHMARK_QUERIES

        assert_identical(
            small_lslod_lake,
            BENCHMARK_QUERIES["Q4"].text,
            seed=7,
            network=NetworkSetting.gamma1(),
        )

    def test_warm_and_cold_runs_identical(self, tiny_lake):
        signatures = {}
        for exec_mode in ("row", "batch"):
            engine = FederatedEngine(tiny_lake, exec=exec_mode)
            runs = []
            for __ in range(2):  # cold, then warm (subresult/plan caches)
                answers, stats = engine.run(TINY_QUERY, seed=3)
                runs.append((answers, stats_signature(stats)))
            signatures[exec_mode] = runs
        assert signatures["batch"] == signatures["row"]

    def test_batch_size_never_changes_results(self, tiny_lake):
        reference = None
        for batch_size in (1, 2, 3, 256):
            engine = FederatedEngine(tiny_lake, exec="batch", batch_size=batch_size)
            answers, stats = engine.run(TINY_QUERY, seed=3)
            outcome = (answers, stats_signature(stats))
            if reference is None:
                reference = outcome
            else:
                assert outcome == reference


class TestBatchBoundaries:
    def test_empty_sources(self, tiny_lake):
        answers = assert_identical(tiny_lake, EMPTY_QUERY, batch_size=2)
        assert answers == []

    def test_batch_size_one(self, tiny_lake):
        answers = assert_identical(tiny_lake, TINY_QUERY, batch_size=1)
        assert len(answers) == 4

    def test_limit_abandons_stream_mid_batch(self, tiny_lake):
        # Batch capacity exceeds the LIMIT, so the engine abandons the
        # operator stream with a partially-consumed chunk in flight; the
        # trace (including final execution_time) must still match row mode.
        limited = TINY_QUERY.rstrip() + "\nLIMIT 2"
        answers = assert_identical(tiny_lake, limited, batch_size=256)
        assert len(answers) == 2

    def test_distinct_and_order_span_chunk_boundaries(self, tiny_lake):
        # batch_size=2 forces DISTINCT dedup state and the ORDER BY
        # materialization to straddle several chunks.
        answers = assert_identical(tiny_lake, DISTINCT_ORDER_QUERY, batch_size=2)
        names = [answer["dn"].lexical for answer in answers]
        assert names == sorted(names)
        assert len(names) == len(set(names))


def build_lake(diseasome_text: str = TINY_DISEASOME) -> SemanticDataLake:
    lake = SemanticDataLake("tiny")
    lake.add_graph_as_relational(
        "diseasome", make_tiny_graph(diseasome_text, "diseasome")
    )
    lake.add_graph_as_relational(
        "affymetrix", make_tiny_graph(TINY_AFFYMETRIX, "affymetrix")
    )
    lake.create_index("diseasome", "gene", ["associateddisease"])
    lake.create_index("affymetrix", "probeset", ["symbol"])
    return lake


class TestJoinStreamMemo:
    """A replayed run script — the join's stream and everything around it —
    must never change results.

    The cross-source query forces a SymmetricHashJoin between the two
    lakes' service nodes (the single-source TINY_QUERY merges into one
    SQL unit and never reaches the join operator).  A plan's first run
    records the script, later ones replay it.
    """

    def test_replay_is_bit_identical(self):
        lake = build_lake()
        clear_memos()
        before = memo_stats()["run_scripts"]
        first = None
        for __ in range(4):  # record, then replay three times
            engine = FederatedEngine(lake, exec="batch")
            answers, stats = engine.run(TINY_CROSS_SOURCE_QUERY, seed=3)
            outcome = (answers, stats_signature(stats))
            if first is None:
                first = outcome
            else:
                assert outcome == first
        after = memo_stats()["run_scripts"]
        assert after.size == 1  # the run script was memoized ...
        assert after.hits - before.hits == 3  # ... and found by runs 2-4
        assert first == run_pair(lake, TINY_CROSS_SOURCE_QUERY)[0]  # = live row

    def test_identical_lakes_do_not_collide(self):
        # Two different lakes with identical schemas, SQL text and data
        # versions must not share memo entries: the signature pins the
        # backing store by object identity.  Gene/99 carries the BRCA1
        # symbol, so lake_b gains one extra cross-source join answer.
        extra = (
            TINY_DISEASOME
            + '<http://ex/diseasome/Gene/99> '
            '<http://www.w3.org/1999/02/22-rdf-syntax-ns#type> '
            '<http://ex/vocab#Gene> .\n'
            '<http://ex/diseasome/Gene/99> <http://ex/vocab#geneSymbol> "BRCA1" .\n'
            '<http://ex/diseasome/Gene/99> <http://ex/vocab#associatedDisease> '
            '<http://ex/diseasome/Disease/1> .\n'
        )
        lake_a, lake_b = build_lake(), build_lake(extra)
        for __ in range(2):  # lake_a's script is published before lake_b runs
            answers_a, __ = FederatedEngine(lake_a, exec="batch").run(
                TINY_CROSS_SOURCE_QUERY, seed=3
            )
        answers_b, __ = FederatedEngine(lake_b, exec="batch").run(
            TINY_CROSS_SOURCE_QUERY, seed=3
        )
        assert any("Gene/99" in str(answer["g"]) for answer in answers_b)
        assert len(answers_b) == len(answers_a) + 1

    def test_data_mutation_invalidates_replay(self):
        lake = build_lake()
        engine = FederatedEngine(lake, exec="batch")
        for __ in range(3):  # the last run replays a script
            before, __ = engine.run(TINY_CROSS_SOURCE_QUERY, seed=3)
        database = lake.source("diseasome").database
        disease = next(
            iter(database.execute("SELECT associateddisease FROM gene").as_dicts())
        )["associateddisease"]
        # KRAS matches a Homo sapiens probeset, so the new gene must
        # surface as one extra join answer on the very next run.
        database.table("gene").insert(
            {"id": 999, "genesymbol": "KRAS", "associateddisease": disease}
        )
        after = assert_identical(lake, TINY_CROSS_SOURCE_QUERY)
        assert len(after) == len(before) + 1

    def test_observed_runs_bypass_the_memo(self):
        lake = build_lake()
        clear_memos()
        before = memo_stats()["run_scripts"]
        engine = FederatedEngine(lake, exec="batch")
        for __ in range(3):
            __, __, observation = engine.observe(TINY_CROSS_SOURCE_QUERY, seed=3)
        after = memo_stats()["run_scripts"]
        assert after.size == 0 and after.lookups == before.lookups
        # and the observed run still produced per-operator profiles
        report = observation.profile_report()
        assert any(entry.rows_out for entry in report.entries)


class TestBatchSizeKnob:
    def test_rejects_non_positive(self, tiny_lake):
        with pytest.raises(ValueError, match="batch size"):
            FederatedEngine(tiny_lake, exec="batch", batch_size=0)


class TestCompiledFilters:
    """compile_holds must be decision-identical to the holds interpreter."""

    OPERATORS = ("=", "!=", "<", ">", "<=", ">=")

    def _random_term(self, rng: random.Random):
        kind = rng.randrange(5)
        if kind == 0:
            return Literal(str(rng.randrange(50)), datatype="http://www.w3.org/2001/XMLSchema#integer")
        if kind == 1:
            return Literal(f"s{rng.randrange(10)}")
        if kind == 2:
            return IRI(f"http://ex/{rng.randrange(10)}")
        if kind == 3:
            return Literal("true" if rng.random() < 0.5 else "false", datatype="http://www.w3.org/2001/XMLSchema#boolean")
        # invalid numeric literal: evaluation errors must reject the row
        return Literal("not-a-number", datatype="http://www.w3.org/2001/XMLSchema#integer")

    def test_differential_against_interpreter(self):
        rng = random.Random(20260808)
        checked = 0
        for __ in range(500):
            query = parse_query(
                "PREFIX v: <http://ex/> SELECT ?x WHERE { ?x v:p ?y . }"
            )
            variable = VariableExpr(query.where.patterns[0].object)
            term = TermExpr(self._random_term(rng))
            operator = rng.choice(self.OPERATORS)
            flipped = rng.random() < 0.5
            expression = BinaryOp(
                operator,
                term if flipped else variable,
                variable if flipped else term,
            )
            compiled = compile_holds(expression)
            solution = {}
            if rng.random() < 0.9:
                solution["y"] = self._random_term(rng)
            assert compiled(solution) == holds(expression, solution)
            checked += 1
        assert checked == 500
