"""Tests for algebra helpers and query formatting of complex groups."""

import pytest

from repro.rdf import IRI, Literal, Variable
from repro.sparql import (
    BinaryOp,
    Filter,
    FunctionCall,
    TermExpr,
    UnaryOp,
    VariableExpr,
    expression_variables,
    format_query,
    parse_query,
)
from repro.sparql.algebra import TriplePattern

PREFIX = "PREFIX ex: <http://ex/>\n"


class TestExpressionVariables:
    def test_collects_nested(self):
        expression = BinaryOp(
            "&&",
            FunctionCall("CONTAINS", (VariableExpr(Variable("a")), TermExpr(Literal("x")))),
            UnaryOp("!", BinaryOp("=", VariableExpr(Variable("b")), TermExpr(Literal("y")))),
        )
        assert {v.name for v in expression_variables(expression)} == {"a", "b"}

    def test_constant_has_none(self):
        assert expression_variables(TermExpr(Literal("x"))) == set()


class TestTriplePattern:
    def test_variables_and_ground(self):
        pattern = TriplePattern(Variable("s"), IRI("http://ex/p"), Literal("o"))
        assert pattern.variable_names() == {"s"}
        assert not pattern.is_ground()
        ground = TriplePattern(IRI("http://ex/s"), IRI("http://ex/p"), Literal("o"))
        assert ground.is_ground()

    def test_unpacking(self):
        pattern = TriplePattern(Variable("s"), IRI("http://ex/p"), Variable("o"))
        s, p, o = pattern
        assert s == Variable("s")


class TestFormatComplexGroups:
    def test_optional_rendered(self):
        query = parse_query(
            PREFIX + "SELECT * WHERE { ?s ex:p ?o OPTIONAL { ?s ex:q ?q } }"
        )
        text = format_query(query)
        assert "OPTIONAL {" in text
        reparsed = parse_query(text)
        assert len(reparsed.where.optionals) == 1

    def test_union_rendered(self):
        query = parse_query(
            PREFIX + "SELECT * WHERE { { ?s ex:p ?o } UNION { ?s ex:q ?o } }"
        )
        text = format_query(query)
        assert "UNION" in text
        reparsed = parse_query(text)
        assert len(reparsed.where.unions) == 1
        assert len(reparsed.where.unions[0]) == 2

    def test_group_variables_include_all_structures(self):
        query = parse_query(
            PREFIX
            + "SELECT * WHERE { ?s ex:p ?o OPTIONAL { ?s ex:q ?q } "
            "FILTER(?o > 1) }"
        )
        names = {v.name for v in query.where.variables()}
        assert names == {"s", "o", "q"}

    def test_all_triple_patterns_walks_structures(self):
        query = parse_query(
            PREFIX
            + "SELECT * WHERE { { ?a ex:p ?b } UNION { ?a ex:q ?b } "
            "OPTIONAL { ?a ex:r ?c } }"
        )
        # top group has no direct patterns but nested ones are reachable
        assert len(list(query.where.all_triple_patterns())) == 3
