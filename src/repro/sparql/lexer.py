"""Tokenizer for the SPARQL subset: one compiled master pattern.

Every token kind is a named alternative of :data:`_TOKEN`; the scanner is
``_TOKEN.match(text, pos)`` in a loop, so the regex engine does the
per-character work and a position where no alternative matches is a
:class:`SPARQLParseError`, never a silently skipped gap.  ``IRIREF`` and
``COMMENT`` come from :mod:`repro.cache.keys`, which folds query text for
cache keys with the same two: the tokenizer and the canonicalizer cannot
disagree about where an IRI or a comment ends.  Quoted literals are spelled
out in each module — the key grammar's is a deliberate superset of the one
here (see there).

No quantifier in :data:`_TOKEN` nests inside another over the same
characters, so a position where nothing matches is found in time linear in
the text, however long the run of blanks before it.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from ..cache.keys import COMMENT, IRIREF
from ..exceptions import SPARQLParseError

KEYWORDS = frozenset(
    {
        "SELECT",
        "WHERE",
        "FILTER",
        "PREFIX",
        "BASE",
        "DISTINCT",
        "REDUCED",
        "OPTIONAL",
        "UNION",
        "LIMIT",
        "OFFSET",
        "ORDER",
        "BY",
        "ASC",
        "DESC",
        "TRUE",
        "FALSE",
        "A",
    }
)


# A named tuple, not a frozen dataclass: as immutable and hashable, but built
# without a ``object.__setattr__`` per field — the scanner makes one per token.
class Token(NamedTuple):
    """A lexical token with source position for error reporting."""

    kind: str  # IRIREF | PNAME | VAR | STRING | INTEGER | DECIMAL | KEYWORD | NAME | PUNCT | LANGTAG | BNODE | EOF
    value: str
    line: int
    column: int

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.value!r}, {self.line}:{self.column})"


_UNESCAPE = {"t": "\t", "n": "\n", "r": "\r", "\\": "\\", '"': '"', "'": "'"}
_ESCAPE = re.compile(r"\\(.)")
# A literal from its opening quote up to, not including, the closing one.
_DOUBLE = r'''"(?:[^"\\]|\\[tnr\\"'])*'''
_SINGLE = r"""'(?:[^'\\]|\\[tnr\\"'])*"""
_UNCLOSED = re.compile(f"{_DOUBLE}|{_SINGLE}")
# Blanks, then comments each followed by blanks: exactly one way to match any
# run of separators.  (``(?:blank+|comment)*`` has 2**(n-1) ways to split n
# blanks and tries them all before the master pattern may fail.)
_SKIPPED = re.compile(rf"[ \t\r\n]*(?:{COMMENT}[ \t\r\n]*)*")

# Group 1 is the skipped whitespace and comments, so its end is where the
# token starts; ``lastgroup`` names the alternative that matched and holds
# the token's value.  Alternatives are tried in order: IRIREF before the
# ``<`` of PUNCT, DECIMAL before INTEGER, PNAME before NAME.  ``\w`` is
# ``str.isalnum() or "_"`` and ``[^\W\d_]`` a letter; a number takes only
# digits that ``int()`` and ``float()`` accept.
_TOKEN = re.compile(
    rf"""({_SKIPPED.pattern})
    (?: (?P<IRIREF>{IRIREF})
      | [?$](?P<VAR>\w+)
      | (?P<STRING>{_DOUBLE}"|{_SINGLE}')
      | @(?P<LANGTAG>(?:[^\W_]|-)+)
      | (?P<DECIMAL>\d+(?:\.\d+(?:[eE][+-]?\d+)?|[eE][+-]?\d+))
      | (?P<INTEGER>\d+)
      | _:(?P<BNODE>[\w.-]+)
      | (?P<PUNCT>\^\^|&&|\|\||[!<>]=?|[{{}}().;,=+\-*/])
      | (?P<PNAME>[^\W\d_][\w-]*:[\w-]*(?:\.+[\w-]+)*)   # no trailing '.'
      | (?P<NAME>[^\W\d_][\w-]*)
      | (?P<EOF>\Z)
    )""",
    re.VERBOSE,
)


def _error(message: str, text: str, offset: int) -> SPARQLParseError:
    line_start = text.rfind("\n", 0, offset) + 1
    return SPARQLParseError(
        message, line=text.count("\n", 0, offset) + 1, column=offset - line_start + 1
    )


def _reject(text: str, start: int) -> SPARQLParseError:
    """Why no token starts at *start*, positioned where the fault is."""
    char = text[start]
    if char in "?$":
        return _error("empty variable name", text, start + 1)
    if char == "@":
        return _error("empty language tag", text, start + 1)
    if text.startswith("_:", start):
        return _error("empty blank node label", text, start + 2)
    if char in "\"'":
        stop = _UNCLOSED.match(text, start).end()
        if stop == len(text):
            return _error("unterminated string literal", text, stop)
        # The body stopped at a backslash it could not pair with an escape.
        return _error(f"unknown string escape \\{text[stop + 1:stop + 2]}", text, stop + 1)
    return _error(f"unexpected character {char!r}", text, start)


def tokenize(text: str) -> list[Token]:
    """Tokenize *text*; raises :class:`SPARQLParseError` on malformed input.

    The result always ends with an ``EOF`` token.
    """
    tokens: list[Token] = []
    match = _TOKEN.match
    find = text.find
    # Lines are counted from newline offsets as the scan passes them.
    line, line_start = 1, 0
    newline = find("\n")
    pos = 0
    while True:
        found = match(text, pos)
        if found is None:
            raise _reject(text, _SKIPPED.match(text, pos).end())
        kind = found.lastgroup
        value = found[kind]
        start = found.end(1)
        pos = found.end()
        while 0 <= newline < start:
            line += 1
            line_start = newline + 1
            newline = find("\n", line_start)
        if kind == "NAME" or kind == "PNAME":
            # ``[^\W\d_]`` also admits number-like code points that are not
            # letters (``²``, ``½``); no token starts with one.
            if not value[0].isalpha():
                raise _reject(text, start)
            if kind == "NAME" and value.upper() in KEYWORDS:
                kind, value = "KEYWORD", value.upper()
        elif kind == "IRIREF":
            value = value[1:-1]
        elif kind == "STRING":
            value = value[1:-1]
            if "\\" in value:
                value = _ESCAPE.sub(lambda escape: _UNESCAPE[escape[1]], value)
        tokens.append(Token(kind, value, line, start - line_start + 1))
        if kind == "EOF":
            return tokens
