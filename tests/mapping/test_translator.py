"""Tests for SSQ -> SQL translation."""

import pytest

from repro.core import decompose_star_shaped
from repro.exceptions import TranslationError
from repro.mapping import (
    can_translate_filter,
    filter_columns,
    normalize_graph,
    stars_variable_columns,
    translate_stars,
)
from repro.rdf import Graph, IRI, Literal, RDF_TYPE, Triple
from repro.sparql import parse_query

from ..conftest import TINY_DISEASOME, make_tiny_graph

PREFIX = "PREFIX v: <http://ex/vocab#>\n"
GENE = IRI("http://ex/vocab#Gene")
DISEASE = IRI("http://ex/vocab#Disease")


@pytest.fixture(scope="module")
def prepared():
    db, mapping, __ = normalize_graph("tiny", make_tiny_graph(TINY_DISEASOME))
    return db, mapping


def stars_for(text: str):
    return decompose_star_shaped(parse_query(PREFIX + text)).subqueries


class TestSingleStar:
    def test_variable_projection(self, prepared):
        db, mapping = prepared
        (star,) = stars_for("SELECT * WHERE { ?g a v:Gene ; v:geneSymbol ?s . }")
        result = translate_stars([(star, mapping.class_mapping(GENE))])
        assert "FROM gene" in result.sql
        assert {binding.variable for binding in result.outputs} == {"g", "s"}

    def test_null_guard_added(self, prepared):
        db, mapping = prepared
        (star,) = stars_for("SELECT * WHERE { ?g a v:Gene ; v:geneSymbol ?s . }")
        result = translate_stars([(star, mapping.class_mapping(GENE))])
        assert "IS NOT NULL" in result.sql

    def test_constant_object_becomes_where(self, prepared):
        db, mapping = prepared
        (star,) = stars_for('SELECT * WHERE { ?g a v:Gene ; v:geneSymbol "BRCA1" . }')
        result = translate_stars([(star, mapping.class_mapping(GENE))])
        assert "genesymbol = 'BRCA1'" in result.sql
        rows = db.query(result.statement).fetchall()
        assert len(rows) == 1

    def test_constant_link_object(self, prepared):
        db, mapping = prepared
        (star,) = stars_for(
            "SELECT * WHERE { ?g a v:Gene ; "
            "v:associatedDisease <http://ex/diseasome/Disease/1> . }"
        )
        result = translate_stars([(star, mapping.class_mapping(GENE))])
        assert "associateddisease = 1" in result.sql
        assert len(db.query(result.statement).fetchall()) == 2

    def test_constant_subject(self, prepared):
        db, mapping = prepared
        (star,) = stars_for(
            "SELECT * WHERE { <http://ex/diseasome/Gene/10> v:geneSymbol ?s . }"
        )
        result = translate_stars([(star, mapping.class_mapping(GENE))])
        assert "id = 10" in result.sql
        rows = db.query(result.statement).fetchall()
        assert result.decode_columns(rows) == (("s",), [[Literal("BRCA1")]], set())

    def test_solution_reconstruction(self, prepared):
        db, mapping = prepared
        (star,) = stars_for("SELECT * WHERE { ?g a v:Gene ; v:associatedDisease ?d . }")
        result = translate_stars([(star, mapping.class_mapping(GENE))])
        rows = db.query(result.statement).fetchall()
        names, columns, invalid = result.decode_columns(rows)
        assert invalid == set()
        solutions = [dict(zip(names, values)) for values in zip(*columns)]
        assert len(solutions) == len(rows) > 0
        assert all(isinstance(solution["g"], IRI) for solution in solutions)
        assert all(isinstance(solution["d"], IRI) for solution in solutions)
        assert all(
            solution["d"].value.startswith("http://ex/diseasome/Disease/")
            for solution in solutions
        )

    def test_null_binding_marks_row_invalid(self, prepared):
        db, mapping = prepared
        (star,) = stars_for("SELECT * WHERE { ?g a v:Gene ; v:geneSymbol ?s . }")
        result = translate_stars([(star, mapping.class_mapping(GENE))])
        values = {"g": (10, 11), "s": ("BRCA1", None)}
        rows = list(zip(*(values[b.variable] for b in result.outputs)))
        position = [b.variable for b in result.outputs].index("s")
        names, columns, invalid = result.decode_columns(rows)
        assert invalid == {1}
        assert columns[position] == [Literal("BRCA1"), None]

    def test_wrong_class_type_rejected(self, prepared):
        db, mapping = prepared
        (star,) = stars_for("SELECT * WHERE { ?g a v:Gene ; v:geneSymbol ?s . }")
        with pytest.raises(TranslationError):
            translate_stars([(star, mapping.class_mapping(DISEASE))])

    def test_unknown_predicate_rejected(self, prepared):
        db, mapping = prepared
        (star,) = stars_for("SELECT * WHERE { ?g a v:Gene ; v:nope ?x . }")
        with pytest.raises(TranslationError):
            translate_stars([(star, mapping.class_mapping(GENE))])


class TestMergedStars:
    def get_stars(self):
        return stars_for(
            "SELECT * WHERE { "
            "?g a v:Gene ; v:geneSymbol ?s ; v:associatedDisease ?d . "
            "?d a v:Disease ; v:diseaseName ?dn . }"
        )

    def test_merged_sql_joins_base_tables(self, prepared):
        db, mapping = prepared
        star_g, star_d = self.get_stars()
        result = translate_stars(
            [
                (star_g, mapping.class_mapping(GENE)),
                (star_d, mapping.class_mapping(DISEASE)),
            ]
        )
        assert "JOIN disease" in result.sql
        assert "ON t0.associateddisease = t1.id" in result.sql

    def test_merged_results_match_engine_join(self, prepared):
        db, mapping = prepared
        star_g, star_d = self.get_stars()
        result = translate_stars(
            [
                (star_g, mapping.class_mapping(GENE)),
                (star_d, mapping.class_mapping(DISEASE)),
            ]
        )
        rows = db.query(result.statement).fetchall()
        assert len(rows) == 4  # every gene joins its disease

    def test_merge_without_shared_variable_rejected(self, prepared):
        db, mapping = prepared
        stars = stars_for(
            "SELECT * WHERE { ?g a v:Gene ; v:geneSymbol ?s . "
            "?d a v:Disease ; v:diseaseName ?dn . }"
        )
        with pytest.raises(TranslationError):
            translate_stars(
                [
                    (stars[0], mapping.class_mapping(GENE)),
                    (stars[1], mapping.class_mapping(DISEASE)),
                ]
            )

    def test_incompatible_templates_rejected(self, prepared):
        db, mapping = prepared
        # ?x is a gene subject in one star and a disease subject in the other
        stars = stars_for(
            "SELECT * WHERE { ?x a v:Gene ; v:geneSymbol ?s . }"
        ) + stars_for(
            "SELECT * WHERE { ?x a v:Disease ; v:diseaseName ?dn . }"
        )
        with pytest.raises(TranslationError):
            translate_stars(
                [
                    (stars[0], mapping.class_mapping(GENE)),
                    (stars[1], mapping.class_mapping(DISEASE)),
                ]
            )


class TestFilterTranslation:
    def star_with_filter(self, filter_text: str):
        return stars_for(
            "SELECT * WHERE { ?g a v:Gene ; v:geneSymbol ?s . " + filter_text + " }"
        )[0]

    def test_equality_filter(self, prepared):
        db, mapping = prepared
        star = self.star_with_filter('FILTER(?s = "BRCA1")')
        result = translate_stars(
            [(star, mapping.class_mapping(GENE))], pushed_filters=star.filters
        )
        assert "= 'BRCA1'" in result.sql

    def test_contains_becomes_like(self, prepared):
        db, mapping = prepared
        star = self.star_with_filter('FILTER(CONTAINS(?s, "RC"))')
        result = translate_stars(
            [(star, mapping.class_mapping(GENE))], pushed_filters=star.filters
        )
        assert "LIKE '%RC%'" in result.sql
        rows = db.query(result.statement).fetchall()
        assert len(rows) == 1

    def test_strstarts_strends(self, prepared):
        db, mapping = prepared
        star = self.star_with_filter('FILTER(STRSTARTS(?s, "BR"))')
        result = translate_stars(
            [(star, mapping.class_mapping(GENE))], pushed_filters=star.filters
        )
        assert "LIKE 'BR%'" in result.sql
        star = self.star_with_filter('FILTER(STRENDS(?s, "53"))')
        result = translate_stars(
            [(star, mapping.class_mapping(GENE))], pushed_filters=star.filters
        )
        assert "LIKE '%53'" in result.sql

    def test_logical_combination(self, prepared):
        db, mapping = prepared
        star = self.star_with_filter('FILTER(?s = "BRCA1" || ?s = "TP53")')
        result = translate_stars(
            [(star, mapping.class_mapping(GENE))], pushed_filters=star.filters
        )
        rows = db.query(result.statement).fetchall()
        assert len(rows) == 2

    def test_can_translate_filter(self, prepared):
        db, mapping = prepared
        pair = [(self.star_with_filter('FILTER(?s = "x")'), mapping.class_mapping(GENE))]
        star = pair[0][0]
        assert can_translate_filter(star.filters[0], pair)

    def test_regex_not_translatable(self, prepared):
        db, mapping = prepared
        star = self.star_with_filter('FILTER(REGEX(?s, "^B.*1$"))')
        pair = [(star, mapping.class_mapping(GENE))]
        assert not can_translate_filter(star.filters[0], pair)

    def test_entity_variable_filter_not_translatable(self, prepared):
        db, mapping = prepared
        star = stars_for(
            "SELECT * WHERE { ?g a v:Gene ; v:associatedDisease ?d . "
            "FILTER(?d = ?d) }"
        )[0]
        pair = [(star, mapping.class_mapping(GENE))]
        assert not can_translate_filter(star.filters[0], pair)

    def test_wildcard_pattern_not_translatable(self, prepared):
        db, mapping = prepared
        star = self.star_with_filter('FILTER(CONTAINS(?s, "100%"))')
        pair = [(star, mapping.class_mapping(GENE))]
        assert not can_translate_filter(star.filters[0], pair)

    def test_filter_columns(self, prepared):
        db, mapping = prepared
        star = self.star_with_filter('FILTER(?s = "BRCA1")')
        pair = [(star, mapping.class_mapping(GENE))]
        assert filter_columns(star.filters[0], pair) == [("gene", "genesymbol")]


class TestVariableColumns:
    def test_subject_and_object_columns(self, prepared):
        db, mapping = prepared
        (star,) = stars_for(
            "SELECT * WHERE { ?g a v:Gene ; v:geneSymbol ?s ; v:associatedDisease ?d . }"
        )
        columns = stars_variable_columns([(star, mapping.class_mapping(GENE))])
        assert columns["g"] == ("gene", "id")
        assert columns["s"] == ("gene", "genesymbol")
        assert columns["d"] == ("gene", "associateddisease")
