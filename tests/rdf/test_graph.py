"""Tests for the indexed triple store."""

from repro.rdf import Graph, IRI, Literal, Triple, Variable

S1 = IRI("http://ex/s1")
S2 = IRI("http://ex/s2")
P1 = IRI("http://ex/p1")
P2 = IRI("http://ex/p2")
O1 = Literal("one")
O2 = Literal("two")


def build_graph() -> Graph:
    graph = Graph()
    graph.add(Triple(S1, P1, O1))
    graph.add(Triple(S1, P2, O2))
    graph.add(Triple(S2, P1, O1))
    graph.add(Triple(S2, P1, S1))
    return graph


class TestAddRemove:
    def test_add_returns_true_for_new(self):
        graph = Graph()
        assert graph.add(Triple(S1, P1, O1)) is True

    def test_add_duplicate_returns_false(self):
        graph = Graph()
        graph.add(Triple(S1, P1, O1))
        assert graph.add(Triple(S1, P1, O1)) is False
        assert len(graph) == 1

    def test_add_all_counts_new_only(self):
        graph = Graph()
        triples = [Triple(S1, P1, O1), Triple(S1, P1, O1), Triple(S1, P2, O2)]
        assert graph.add_all(triples) == 2

    def test_remove(self):
        graph = build_graph()
        assert graph.remove(Triple(S1, P1, O1)) is True
        assert Triple(S1, P1, O1) not in graph
        assert len(graph) == 3

    def test_remove_absent_returns_false(self):
        graph = Graph()
        assert graph.remove(Triple(S1, P1, O1)) is False

    def test_removed_triple_not_matched(self):
        graph = build_graph()
        graph.remove(Triple(S1, P1, O1))
        assert list(graph.triples(S1, P1, None)) == []

    def test_contains(self):
        graph = build_graph()
        assert Triple(S1, P1, O1) in graph

    def test_iteration(self):
        graph = build_graph()
        assert len(list(graph)) == 4


class TestPatternMatching:
    def test_fully_bound(self):
        graph = build_graph()
        assert list(graph.triples(S1, P1, O1)) == [Triple(S1, P1, O1)]

    def test_fully_bound_miss(self):
        graph = build_graph()
        assert list(graph.triples(S1, P1, O2)) == []

    def test_subject_only(self):
        graph = build_graph()
        assert len(list(graph.triples(S1, None, None))) == 2

    def test_predicate_only(self):
        graph = build_graph()
        assert len(list(graph.triples(None, P1, None))) == 3

    def test_object_only(self):
        graph = build_graph()
        assert len(list(graph.triples(None, None, O1))) == 2

    def test_subject_predicate(self):
        graph = build_graph()
        assert len(list(graph.triples(S2, P1, None))) == 2

    def test_predicate_object(self):
        graph = build_graph()
        assert len(list(graph.triples(None, P1, O1))) == 2

    def test_subject_object(self):
        graph = build_graph()
        assert list(graph.triples(S2, None, S1)) == [Triple(S2, P1, S1)]

    def test_unbound_matches_all(self):
        graph = build_graph()
        assert len(list(graph.triples())) == 4

    def test_variables_act_as_wildcards(self):
        graph = build_graph()
        matched = list(graph.triples(Variable("s"), P1, Variable("o")))
        assert len(matched) == 3

    def test_iri_in_object_position(self):
        graph = build_graph()
        assert list(graph.triples(None, None, S1)) == [Triple(S2, P1, S1)]

    def test_unknown_subject_empty(self):
        graph = build_graph()
        assert list(graph.triples(IRI("http://ex/unknown"), None, None)) == []


class TestAccessors:
    def test_count(self):
        graph = build_graph()
        assert graph.count(None, P1, None) == 3

    def test_count_equals_enumeration_for_every_shape(self):
        # `count` reads index bucket sizes where it can; every boundness
        # shape, with `None` and with a Variable as the wildcard, must agree
        # with enumerating the matches.
        graph = build_graph()
        graph.add(Triple(S2, P2, O1))
        graph.remove(Triple(S1, P2, O2))  # leaves empty P2/O2 and S1/P2 buckets
        wild = Variable("x")
        for subject in (None, wild, S1, S2, IRI("http://ex/unknown")):
            for predicate in (None, wild, P1, P2, O1):  # O1: a non-IRI predicate
                for obj in (None, wild, O1, O2, S1):
                    expected = sum(1 for __ in graph.triples(subject, predicate, obj))
                    assert graph.count(subject, predicate, obj) == expected, (
                        subject,
                        predicate,
                        obj,
                    )
        assert graph.count(None, P2, O2) == 0
        assert graph.count(None, P2, None) == 1

    def test_subjects_distinct(self):
        graph = build_graph()
        assert set(graph.subjects(P1, O1)) == {S1, S2}

    def test_objects_distinct(self):
        graph = build_graph()
        assert set(graph.objects(S2, P1)) == {O1, S1}

    def test_predicates(self):
        graph = build_graph()
        assert set(graph.predicates(S1)) == {P1, P2}

    def test_value_returns_one(self):
        graph = build_graph()
        assert graph.value(S1, P1) == O1

    def test_value_missing_is_none(self):
        graph = build_graph()
        assert graph.value(S1, IRI("http://ex/unknown")) is None
