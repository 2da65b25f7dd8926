"""Tests for the ANAPSID-style federated operators."""

from dataclasses import dataclass, field
from typing import Iterator

import pytest

from repro.federation import RunContext, Solution
from repro.federation.operators import (
    Distinct,
    EngineFilter,
    FedOperator,
    Limit,
    OrderBy,
    Project,
    ServiceNode,
    SymmetricHashJoin,
    Union,
)
from repro.rdf import IRI, Literal, Variable, XSD_INTEGER
from repro.sparql.algebra import (
    BinaryOp,
    Filter,
    OrderCondition,
    TermExpr,
    VariableExpr,
)


@dataclass
class Static(FedOperator):
    """Test helper: replay a fixed list of solutions."""

    solutions: list[Solution]
    pulls: list[int] = field(default_factory=list)

    def execute(self, context: RunContext) -> Iterator[Solution]:
        for index, solution in enumerate(self.solutions):
            self.pulls.append(index)
            yield dict(solution)


def lit(value: str) -> Literal:
    return Literal(value)


def num(value: int) -> Literal:
    return Literal(str(value), XSD_INTEGER)


def ctx() -> RunContext:
    return RunContext(seed=1)


class TestSymmetricHashJoin:
    def test_joins_on_shared_variable(self):
        left = Static([{"a": lit("1"), "b": lit("x")}, {"a": lit("2"), "b": lit("y")}])
        right = Static([{"a": lit("1"), "c": lit("z")}])
        join = SymmetricHashJoin(left, right, ("a",))
        rows = list(join.execute(ctx()))
        assert rows == [{"a": lit("1"), "b": lit("x"), "c": lit("z")}]

    def test_duplicates_multiply(self):
        left = Static([{"a": lit("1")}, {"a": lit("1")}])
        right = Static([{"a": lit("1"), "c": lit("z")}, {"a": lit("1"), "c": lit("w")}])
        join = SymmetricHashJoin(left, right, ("a",))
        assert len(list(join.execute(ctx()))) == 4

    def test_empty_join_variables_is_cross_product(self):
        left = Static([{"b": lit("x")}, {"b": lit("y")}])
        right = Static([{"c": lit("z")}])
        join = SymmetricHashJoin(left, right, ())
        assert len(list(join.execute(ctx()))) == 2

    def test_inconsistent_shared_nonjoin_variable_dropped(self):
        # both sides also bind ?b: merge must check compatibility
        left = Static([{"a": lit("1"), "b": lit("x")}])
        right = Static([{"a": lit("1"), "b": lit("DIFFERENT")}])
        join = SymmetricHashJoin(left, right, ("a",))
        assert list(join.execute(ctx())) == []

    def test_adaptivity_alternates_sides(self):
        left = Static([{"a": lit(str(i))} for i in range(4)])
        right = Static([{"a": lit(str(i))} for i in range(4)])
        join = SymmetricHashJoin(left, right, ("a",))
        list(join.execute(ctx()))
        # both inputs were pulled before either was exhausted
        assert left.pulls and right.pulls

    def test_charges_engine_time(self):
        context = ctx()
        left = Static([{"a": lit("1")}])
        right = Static([{"a": lit("1")}])
        join = SymmetricHashJoin(left, right, ("a",))
        list(join.execute(context))
        assert context.stats.engine_cost > 0

    def test_join_on_iri_terms(self):
        shared = IRI("http://ex/d/1")
        left = Static([{"d": shared, "g": lit("g1")}])
        right = Static([{"d": shared, "n": lit("n1")}])
        join = SymmetricHashJoin(left, right, ("d",))
        assert len(list(join.execute(ctx()))) == 1


class TestEngineFilter:
    def test_filters_solutions(self):
        child = Static([{"n": num(1)}, {"n": num(5)}, {"n": num(9)}])
        filter_ = Filter(
            BinaryOp(">", VariableExpr(Variable("n")), TermExpr(num(3)))
        )
        node = EngineFilter(child, [filter_])
        rows = list(node.execute(ctx()))
        assert [row["n"].lexical for row in rows] == ["5", "9"]

    def test_error_rejects_solution(self):
        child = Static([{"m": num(1)}])  # ?n unbound
        filter_ = Filter(BinaryOp(">", VariableExpr(Variable("n")), TermExpr(num(3))))
        assert list(EngineFilter(child, [filter_]).execute(ctx())) == []

    def test_charges_per_filter(self):
        context = ctx()
        child = Static([{"n": num(1)}] * 10)
        filter_ = Filter(BinaryOp(">", VariableExpr(Variable("n")), TermExpr(num(0))))
        list(EngineFilter(child, [filter_, filter_]).execute(context))
        expected = 10 * 2 * context.cost_model.engine_filter_eval
        assert context.stats.engine_cost == pytest.approx(expected)


class TestProjectDistinctLimit:
    def test_project(self):
        child = Static([{"a": lit("1"), "b": lit("2")}])
        rows = list(Project(child, ("a",)).execute(ctx()))
        assert rows == [{"a": lit("1")}]

    def test_project_missing_variable_skipped(self):
        child = Static([{"a": lit("1")}])
        rows = list(Project(child, ("a", "missing")).execute(ctx()))
        assert rows == [{"a": lit("1")}]

    def test_distinct(self):
        child = Static([{"a": lit("1")}, {"a": lit("1")}, {"a": lit("2")}])
        rows = list(Distinct(child).execute(ctx()))
        assert len(rows) == 2

    def test_limit(self):
        child = Static([{"a": num(i)} for i in range(10)])
        rows = list(Limit(child, limit=3).execute(ctx()))
        assert len(rows) == 3

    def test_offset(self):
        child = Static([{"a": num(i)} for i in range(5)])
        rows = list(Limit(child, limit=2, offset=2).execute(ctx()))
        assert [row["a"].lexical for row in rows] == ["2", "3"]

    def test_limit_stops_pulling(self):
        child = Static([{"a": num(i)} for i in range(100)])
        list(Limit(child, limit=1).execute(ctx()))
        assert len(child.pulls) <= 2


class TestOrderBy:
    def test_numeric_order(self):
        child = Static([{"n": num(5)}, {"n": num(1)}, {"n": num(3)}])
        condition = OrderCondition(VariableExpr(Variable("n")))
        rows = list(OrderBy(child, [condition]).execute(ctx()))
        assert [row["n"].lexical for row in rows] == ["1", "3", "5"]

    def test_descending(self):
        child = Static([{"n": num(5)}, {"n": num(1)}])
        condition = OrderCondition(VariableExpr(Variable("n")), ascending=False)
        rows = list(OrderBy(child, [condition]).execute(ctx()))
        assert [row["n"].lexical for row in rows] == ["5", "1"]

    def test_string_order(self):
        child = Static([{"s": lit("pear")}, {"s": lit("apple")}])
        condition = OrderCondition(VariableExpr(Variable("s")))
        rows = list(OrderBy(child, [condition]).execute(ctx()))
        assert [row["s"].lexical for row in rows] == ["apple", "pear"]


class TestUnion:
    def test_round_robin(self):
        first = Static([{"a": lit("1")}, {"a": lit("2")}])
        second = Static([{"a": lit("3")}])
        rows = list(Union([first, second]).execute(ctx()))
        assert [row["a"].lexical for row in rows] == ["1", "3", "2"]

    def test_empty_inputs(self):
        assert list(Union([Static([]), Static([])]).execute(ctx())) == []


class ListWrapper:
    """A fake wrapper: every request streams the same solutions."""

    def __init__(self, source_id, solutions=()):
        self.source_id = source_id
        self.solutions = solutions

    def execute(self, request, context):
        return iter(self.solutions)


class TextRequest:
    def __init__(self, text):
        self.text = text


class TestServiceNode:
    def test_engine_filters_applied(self):
        wrapper = ListWrapper("src", [{"n": num(1)}, {"n": num(9)}])
        filter_ = Filter(BinaryOp(">", VariableExpr(Variable("n")), TermExpr(num(5))))
        node = ServiceNode(wrapper, TextRequest("test"), engine_filters=[filter_])
        rows = list(node.execute(ctx()))
        assert [row["n"].lexical for row in rows] == ["9"]

    def test_explain_mentions_source(self):
        node = ServiceNode(ListWrapper("diseasome"), TextRequest("SQL: SELECT 1"))
        assert "diseasome" in node.explain()
