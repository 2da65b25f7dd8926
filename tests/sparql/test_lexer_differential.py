"""The compiled lexical grammar against the character scanners it replaced.

``reference_lexer`` holds the old ``tokenize`` and ``canonicalize_query``
loops verbatim.  The new implementations must produce the same
``(kind, value, line, column)`` stream — or the same error type, message,
line and column — and the same canonical text, on every input except the
two intended differences, which are asserted explicitly at the bottom.
"""

import json
import os
import random
import re
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro
from repro.cache import canonicalize_query
from repro.datasets import BENCHMARK_QUERIES
from repro.datasets.queries import PREFIXES
from repro.exceptions import SPARQLParseError
from repro.oracle.generator import random_case
from repro.sparql import parse_query, tokenize

from . import reference_lexer as reference


def check_tokens(text):
    """Same stream or same error, unless the number rule may differ."""
    if not number_rule_differs(text):
        assert outcome(tokenize, text) == outcome(reference.tokenize, text), text


def check_canonical(text):
    """Same canonical text, unless the old loop misread an IRI."""
    if not _IRI_OLD_LOOP_MISREAD.search(text):
        assert canonicalize_query(text) == reference.canonicalize_query(text), text


def outcome(scan, text):
    """The token stream of *text*, or what the scanner raised instead."""
    try:
        return [(t.kind, t.value, t.line, t.column) for t in scan(text)]
    except SPARQLParseError as error:
        return (type(error), error.message, error.line, error.column)


# -- where the two intended differences can show -------------------------------

#: The old number rule took ``e``/``E`` plus an optional sign into the token
#: without requiring a digit after it (and counted non-decimal digits such as
#: ``²`` as digits); texts containing either are compared by the explicit
#: tests below, every other text must lex identically.
_DANGLING_EXPONENT = re.compile(r"\d[eE](?:[+-](?!\d)|\Z)")

#: The old canonicalizer knew no IRIs: inside ``<...>`` it still opened a
#: comment at ``#``, a literal at ``'`` and folded ``\f``/``\v``.
_IRI = r"""[^ \t\r\n"{}|^`\\<>]*"""
_IRI_OLD_LOOP_MISREAD = re.compile(rf"<{_IRI}[#'\f\v]{_IRI}>")


def number_rule_differs(text):
    return bool(_DANGLING_EXPONENT.search(text)) or any(
        char.isdigit() and not char.isdecimal() for char in text
    )


# -- corpora -------------------------------------------------------------------

#: (prefix, class, predicate taking the constant, second predicate): the
#: single-star shape of eight of perfbench's ten ad-hoc templates ...
_STARS = (
    ("diseasome", "Gene", "geneSymbol", "associatedDisease"),
    ("drugbank", "Drug", "drugName", "category"),
    ("linkedct", "Trial", "interventionDrug", "phase"),
    ("kegg", "Compound", "compoundName", "formula"),
    ("tcga", "GeneExpression", "geneSymbol", "expressionValue"),
    ("chebi", "ChemicalEntity", "chebiName", "mass"),
    ("affymetrix", "Probeset", "symbol", "scientificName"),
    ("medicare", "Claim", "drugName", "cost"),
)
TEMPLATES = [
    f'SELECT ?s ?o WHERE {{ ?s a {p}:{c} ; {p}:{constant} "{{c}}" ; {p}:{other} ?o . }}'
    for p, c, constant, other in _STARS
] + [
    # ... plus its two-star join and its engine-level FILTER template.
    'SELECT ?gene ?dname WHERE { ?gene a diseasome:Gene ; diseasome:geneSymbol "{c}" ; '
    "diseasome:associatedDisease ?disease . ?disease a diseasome:Disease ; "
    "diseasome:diseaseName ?dname . }",
    "SELECT ?drug ?trial WHERE { ?drug a drugbank:Drug ; drugbank:drugName ?name . "
    '?trial a linkedct:Trial ; linkedct:interventionDrug ?name . FILTER(?name = "{c}") }',
]
CONSTANTS = (
    "Aspirin-12",
    "two  spaces",
    "it's",
    r"say \"hi\"",
    'raw "quote"',
    r"back\\slash",
    r"bad \q escape",
    "trailing backslash\\",
    "#hash # tag",
    "line\nbreak",
    r"tab\tnewline\n",
    "<http://x/y#z>",
)

#: Every input of ``test_lexer.py``, then the cases the old scanner decided
#: character by character.
CASES = (
    "?gene $other",
    "<http://ex/a>",
    "ex:drug",
    "ex:drug.",
    "select Where FILTER",
    "CONTAINS",
    r'"a\n\t\"b"',
    "'hi'",
    "42 4.5 1e3",
    "<= >= != && || ^^",
    "?a < 5",
    "?a # comment\n?b",
    "?a\n  ?b",
    '"hi"@en-GB',
    '"unterminated',
    "? ",
    "@@@",
    r'"\q"',
    # `<` as less-than vs IRIREF
    "?o<5 && ?o>3",
    "?a<?b&&?c>?d",
    "?a <= <http://ex/a>",
    "<>",
    "<a b>",
    "<a\n>",
    "< <x>",
    # PNAME locals and trailing dots
    "ex:drug..",
    "ex:a.b.c. ?x",
    "ex:.a",
    "ex:",
    "ex:...",
    "ex:-a_b",
    ":local",
    "a-b:c-d",
    # blank nodes, language tags, variables
    "_:b1.",
    "_:",
    "_x",
    "@en_x",
    "@",
    "?x_1?y",
    # numbers
    "1.5e+3 1e-2 2E5",
    "1.e3",
    "1e3.5",
    "1.5.3",
    "12.",
    ".5",
    "5abc",
    "LIMIT 5.",
    # strings
    '"a\nb"\n  ?x',
    "'multi\n\nline' 'x'\n?y",
    '"abc\\',
    '"abc\\q',
    '"abc\\"',
    "'a\"b' \"a'b\"",
    '"" \'\'',
    '"a" "b\n',
    # comments and separators
    "#only a comment",
    "# c1\n# c2\n?x # c3",
    '#"a\n"',
    "?x\r\n?y\r?z",
    "?x\f?y",
    "?x\v",
    "?x\xa0?y",
    "",
    " \t\n",
    # stray characters
    "&",
    "|",
    "^",
    "~",
    "%",
    "é:è ?é",
    "٣ ?x٣",
)


def corpus():
    texts = [query.text for query in BENCHMARK_QUERIES.values()]
    for body in TEMPLATES:
        for index, constant in enumerate(CONSTANTS):
            text = PREFIXES + body.replace("{c}", constant)
            texts.append(text if index % 2 else f"{text} LIMIT {index}")
    texts.extend(random_case(seed, index).sparql() for seed in (42, 7) for index in range(120))
    texts.extend(CASES)
    return texts


CORPUS = corpus()


class TestCorpus:
    def test_corpus_covers_every_source(self):
        assert len(CORPUS) >= len(BENCHMARK_QUERIES) + 10 * len(CONSTANTS) + 240 + len(CASES)
        assert not any(number_rule_differs(text) for text in CORPUS)

    def test_token_streams_and_errors_are_identical(self):
        for text in CORPUS:
            assert outcome(tokenize, text) == outcome(reference.tokenize, text), text

    def test_canonical_text_is_identical_outside_iris(self):
        misread = 0
        for text in CORPUS:
            if _IRI_OLD_LOOP_MISREAD.search(text):
                misread += 1
                # With every IRI reference masked the two must still agree.
                text = re.sub(rf"<{_IRI}>", "<iri>", text)
            assert canonicalize_query(text) == reference.canonicalize_query(text), text
        # Every text carrying PREFIXES has `#>` in its IRIs.
        assert misread >= len(BENCHMARK_QUERIES) + 10 * len(CONSTANTS)

    def test_corpus_exercises_both_outcomes(self):
        outcomes = [outcome(tokenize, text) for text in CORPUS]
        assert sum(isinstance(result, tuple) for result in outcomes) >= 15
        assert sum(isinstance(result, list) for result in outcomes) >= 300

    def test_line_and_column_after_multiline_tokens(self):
        tokens = tokenize('"a\nb"\n  ?x # c\n\n?y')
        assert [(t.kind, t.line, t.column) for t in tokens] == [
            ("STRING", 1, 1),
            ("VAR", 3, 3),
            ("VAR", 5, 1),
            ("EOF", 5, 3),
        ]


# -- random text -----------------------------------------------------------------

#: Every character some rule of either scanner treats specially, a few that
#: none does, and the separators on which ``\s``/``\w`` and the explicit
#: classes disagree (``\f \v`` fold in keys but do not tokenize; ``\xa0`` and
#: ``\x1c`` are ``str.isspace()`` yet neither).
ALPHABET = "\"'\\#<>?:.@_-eE+0159azAZ \t\n\r\f\v$!=&|^{}()*/;,é٣\xa0\x1c"
FRAGMENTS = (
    "<http://x/y>",
    '"a\\"b"',
    "'x y'",
    '"a\nb"',
    '"\\q"',
    "?v",
    "ex:a.b.",
    "1.5e+3",
    "@en-GB",
    "_:b1.",
    "#c\n",
    "<=",
    "^^",
    "SELECT",
    "<a b>",
    "12.",
    "\\",
)
texts = st.lists(
    st.sampled_from(FRAGMENTS) | st.text(alphabet=ALPHABET, min_size=1, max_size=4),
    max_size=8,
).map("".join)


class TestRandomText:
    @given(texts)
    def test_token_stream_or_error_is_identical(self, text):
        check_tokens(text)

    @given(texts)
    def test_canonical_text_is_identical(self, text):
        check_canonical(text)

    @given(texts)
    def test_canonical_text_is_a_fixed_point_that_lexes_the_same(self, text):
        canonical = canonicalize_query(text)
        assert canonicalize_query(canonical) == canonical
        if "\f" in text or "\v" in text:
            return  # folded by the key (as ever), rejected by the tokenizer

        def shape(result):  # positions move when whitespace folds
            if isinstance(result, list):
                return [token[:2] for token in result]
            return result[:2]

        assert shape(outcome(tokenize, canonical)) == shape(outcome(tokenize, text))

    def test_seeded_sweep(self):
        # Volume the hypothesis profiles do not reach in tier-1 time.
        rng = random.Random(15)
        for __ in range(20_000):
            parts = [
                rng.choice(FRAGMENTS)
                if rng.random() < 0.4
                else "".join(rng.choice(ALPHABET) for __ in range(rng.randint(1, 4)))
                for __ in range(rng.randint(0, 8))
            ]
            check_tokens("".join(parts))
            check_canonical("".join(parts))


# -- the two intended differences ------------------------------------------------


class TestNumberRuleDifference:
    """A number token is one that ``int()``/``float()`` can cast."""

    @pytest.mark.parametrize(
        "text, old, new",
        [
            ("1e+", [("DECIMAL", "1e+")], [("INTEGER", "1"), ("NAME", "e"), ("PUNCT", "+")]),
            ("2E-", [("DECIMAL", "2E-")], [("INTEGER", "2"), ("NAME", "E-")]),
            (
                "1.5e+x",
                [("DECIMAL", "1.5e+"), ("NAME", "x")],
                [("DECIMAL", "1.5"), ("NAME", "e"), ("PUNCT", "+"), ("NAME", "x")],
            ),
            ("1e", [("DECIMAL", "1e")], [("INTEGER", "1"), ("NAME", "e")]),
        ],
    )
    def test_dangling_exponent_is_not_part_of_the_number(self, text, old, new):
        def kinds_and_values(scan):
            return [(t.kind, t.value) for t in scan(text)][:-1]

        assert kinds_and_values(reference.tokenize) == old
        assert kinds_and_values(tokenize) == new

    def test_every_number_token_casts(self):
        for text in ("1e+", "2E-", "1e", "3.5E+ 7e-", "1e+5 2.5E-3 4e7 12 0.5"):
            for token in tokenize(text):
                if token.kind == "INTEGER":
                    int(token.value)
                elif token.kind == "DECIMAL":
                    float(token.value)

    def test_dangling_exponent_is_a_parse_error_not_a_literal(self):
        query = "SELECT ?s WHERE { ?s <http://ex/p> ?o . FILTER(?o > %s) }"
        assert parse_query(query % "1e+5") is not None
        for number in ("1e+", "2E-"):
            with pytest.raises(SPARQLParseError):
                parse_query(query % number)

    def test_non_decimal_digit_starts_no_token(self):
        # `str.isdigit()` admits `²`; `int("²")` does not.
        assert [t.kind for t in reference.tokenize("²")] == ["INTEGER", "EOF"]
        assert outcome(tokenize, "²") == (SPARQLParseError, "unexpected character '²'", 1, 1)
        # Where the old scanner rejected a number-like non-letter, so does the new.
        for text in ("½", "Ⅷ:x", "?x ½"):
            assert outcome(tokenize, text) == outcome(reference.tokenize, text)
            assert outcome(tokenize, text)[0] is SPARQLParseError


class TestIriVerbatimDifference:
    """``canonicalize_query`` copies ``<IRI>`` references verbatim."""

    A = "SELECT ?c ?v WHERE { ?c <http://lslod.repro/kegg/vocab#compoundName> ?v } LIMIT 2"
    B = "SELECT ?c ?v WHERE { ?c <http://lslod.repro/kegg/vocab#formula> ?v } LIMIT 2"

    def test_fragment_identifier_is_not_a_comment(self):
        assert reference.canonicalize_query(self.A) == reference.canonicalize_query(self.B)
        assert canonicalize_query(self.A) == self.A
        assert canonicalize_query(self.B) == self.B

    def test_quote_and_form_feed_inside_an_iri(self):
        text = "?s  <http://x/o'brien>   ?o .  ?s <a\fb>  'x  y'"
        assert canonicalize_query(text) == "?s <http://x/o'brien> ?o . ?s <a\fb> 'x  y'"

    def test_less_than_is_not_an_iri(self):
        # The IRIREF fragment decides exactly as the tokenizer does.
        assert canonicalize_query("?a <  5 #c>\n && ?b > 3") == "?a < 5 && ?b > 3"
        assert canonicalize_query("?o<5 && ?o>3 # x") == "?o<5 && ?o>3"

    @given(
        st.text(alphabet="?:.@_-eE+019az \t\n{}();", max_size=12),
        st.text(alphabet="#'/:.az09\f", max_size=8),
        st.text(alphabet="?:.@_-eE+019az \t\n{}();", max_size=12),
    )
    def test_an_iri_is_one_opaque_word(self, before, iri, after):
        # What the old loop did with a harmless word in the IRI's place.
        masked = reference.canonicalize_query(f"{before}<iri>{after}")
        assert canonicalize_query(f"{before}<{iri}>{after}") == masked.replace("<iri>", f"<{iri}>")


# -- a fault after a long run of separators -----------------------------------------

_SEPARATORS = [" ", "\n", " \t\r\n", "# c c\n  ", "#\n", "# " + " " * 40 + "\n"]
_FAULTS = ["^", '"a\\qb"', '"never closed', "? x", "@ x", "_: x", "\f", "\xb2", "1e+"]
_LONG_RUNS = [
    "SELECT" + separator * 5000 + fault for separator in _SEPARATORS for fault in _FAULTS
]
_SCAN_IN_CHILD = """
import json, sys, time
from repro.cache import canonicalize_query
from repro.exceptions import SPARQLParseError
from repro.sparql import tokenize
results = []
for text in json.load(sys.stdin):
    started = time.perf_counter()
    try:
        found = [type(tokenize(text)).__name__]
    except SPARQLParseError as error:
        found = [error.message, error.line, error.column]
    canonical = canonicalize_query(text)
    results.append([found, canonical, time.perf_counter() - started])
json.dump(results, sys.stdout)
"""


def test_a_fault_after_5000_separators_is_found_in_linear_time():
    # `(?:blank+|comment)*` before the token alternatives tried all 2**(n-1)
    # splits of n blanks before the master pattern could fail: 17 s at n=26.
    # Scanned in a child interpreter, so that a pattern which backtracks like
    # that again fails this test by timeout instead of hanging the suite (the
    # regex engine holds the GIL; no in-process watchdog could fire).
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
    result = subprocess.run(
        [sys.executable, "-c", _SCAN_IN_CHILD],
        input=json.dumps(_LONG_RUNS), env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    scanned = json.loads(result.stdout)
    assert len(scanned) == len(_LONG_RUNS)
    for text, (found, canonical, seconds) in zip(_LONG_RUNS, scanned):
        shown = text[:6] + "…" + text[-40:]
        assert seconds < 1.0, shown  # ~5 ms; the old pattern would not finish
        if not number_rule_differs(text):
            expected = outcome(reference.tokenize, text)
            assert isinstance(expected, tuple), shown
            assert tuple(found) == expected[1:], shown
        assert canonical == reference.canonicalize_query(text), shown


# -- import order ------------------------------------------------------------------


@pytest.mark.parametrize("first", ["repro.cache", "repro.sparql", "repro.cache.keys", "repro.sparql.lexer"])
def test_either_package_imports_first_in_a_fresh_interpreter(first):
    # The lexer takes its fragments from `repro.cache.keys` while
    # `repro.sparql` already imports `repro.cache.memos`: no cycle may arise.
    code = (
        f"import {first}; import repro.cache, repro.sparql; "
        "from repro.sparql import tokenize; from repro.cache import canonicalize_query; "
        "assert repro.cache.keys.canonicalize_query is canonicalize_query; "
        "print(len(tokenize(canonicalize_query('?a  <  5'))))"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "4"
