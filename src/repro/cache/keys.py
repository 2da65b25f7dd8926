"""Cache-key construction.

Keys embed every input that can change the cached value — most importantly
the *data version* of the underlying source (see
:attr:`repro.relational.database.Database.data_version` and
:attr:`repro.rdf.graph.Graph.version`), so stale entries are never served:
a write bumps the version, the next lookup misses, and the stale entry ages
out of the LRU.
"""

from __future__ import annotations

import re
from typing import Hashable

# The two fragments of SPARQL text, besides quoted literals, in which
# whitespace and ``#`` are not separators.  :mod:`repro.sparql.lexer` builds
# its tokens from the same two, so a key and the tokenizer cannot disagree
# about where an IRI or a comment ends.  (They live here, not in the lexer,
# because this package imports nothing from the rest of ``repro`` while
# ``repro.sparql`` imports this package.)
#
# A comment must reach its newline: were it allowed to stop short, a pattern
# that fails after one would backtrack into it and find tokens in its text.
COMMENT = r"\#[^\n]*(?![^\n])"
IRIREF = r"""<[^ \t\r\n"{}|^`\\<>]*>"""

# Blanks, then comments each followed by blanks: one way to match any run.
_SEPARATORS = rf"[ \t\r\n\f\v]*(?:{COMMENT}[ \t\r\n\f\v]*)*"
_LEADING = re.compile(_SEPARATORS)
# A run of text between separators, and the separators after it.  The quoted
# literal here is a deliberate superset of the tokenizer's: any character
# may follow a backslash, and a literal nobody closes runs to the end of the
# text.  Every literal the tokenizer accepts is kept verbatim, and text that
# will not tokenize still keys apart from every text that does.  Some
# alternative matches at every non-separator, so a chunk once begun cannot
# fail and the nested ``+`` never re-splits a run: the scan is linear.
_CHUNK = re.compile(
    rf"""((?: [^ \t\r\n\f\v\#"'<]+
           | {IRIREF} | <
           | "(?:[^"\\]|\\[\s\S])*(?:"|\\?\Z)
           | '(?:[^'\\]|\\[\s\S])*(?:'|\\?\Z)
         )+){_SEPARATORS}""",
    re.VERBOSE,
)


def canonicalize_query(text: str) -> str:
    """Normalize query text for cache keying.

    Collapses every run of whitespace and ``#`` comments to one space and
    strips it at both ends — but only *outside* quoted literals and
    ``<IRI>`` references, which are kept verbatim, so queries differing
    inside a string constant or an IRI never share a key.  Purely lexical:
    two differently written but semantically equal queries may still key
    separately, which costs a duplicate entry, never a wrong answer.
    """
    return " ".join(_CHUNK.findall(text, _LEADING.match(text).end()))


def sql_result_key(source_id: str, sql: str, data_version: Hashable) -> tuple:
    """Key of one relational wrapper sub-result.

    The SQL text already serializes the translated stars, pushed filters
    and any dependent-join IN restriction, so it is the complete "native
    query" component of the key.
    """
    return ("sql", source_id, sql, data_version)


def sparql_result_key(
    source_id: str,
    patterns: str,
    filters: str,
    bindings: Hashable,
    data_version: Hashable,
) -> tuple:
    """Key of one RDF wrapper sub-result (star + pushed filters + VALUES)."""
    return ("sparql", source_id, patterns, filters, bindings, data_version)
