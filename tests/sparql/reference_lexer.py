"""Test-only oracle: the character-at-a-time scanners that
``repro.sparql.lexer`` and ``repro.cache.keys.canonicalize_query`` replaced.

Kept verbatim (like :mod:`repro.oracle` for the planner) so that
``test_lexer_differential.py`` can hold the compiled grammar to the same
``(kind, value, line, column)`` stream, the same error positions and the
same canonical text.  The only intended differences are asserted there:

* a number token is only what ``int()``/``float()`` can cast: the exponent
  needs a digit (``1e+`` is ``INTEGER 1``, ``e``, ``+``, not one ``DECIMAL``)
  and a digit is a decimal digit (``²`` starts no token);
* ``canonicalize_query`` copies ``<IRI>`` references verbatim, so a ``#``
  (or a quote) inside one no longer opens a comment (or a literal).

Nothing under ``src/`` may import this module.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import SPARQLParseError

# Multi-character punctuation first so the scanner is greedy.
_PUNCTUATION = (
    "^^",
    "&&",
    "||",
    "!=",
    "<=",
    ">=",
    "{",
    "}",
    "(",
    ")",
    ".",
    ";",
    ",",
    "=",
    "<",
    ">",
    "!",
    "+",
    "-",
    "*",
    "/",
)


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


@dataclass(frozen=True, slots=True)
class Token:
    """A lexical token with source position for error reporting."""

    kind: str  # IRIREF | PNAME | VAR | STRING | INTEGER | DECIMAL | KEYWORD | NAME | PUNCT | LANGTAG | EOF
    value: str
    line: int
    column: int

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.value!r}, {self.line}:{self.column})"


class Lexer:
    """Hand-rolled scanner producing :class:`Token` objects."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.column = 1

    def error(self, message: str) -> SPARQLParseError:
        return SPARQLParseError(message, line=self.line, column=self.column)

    def _advance(self, count: int = 1) -> None:
        for __ in range(count):
            if self.pos < len(self.text) and self.text[self.pos] == "\n":
                self.line += 1
                self.column = 1
            else:
                self.column += 1
            self.pos += 1

    def _peek(self, offset: int = 0) -> str:
        index = self.pos + offset
        return self.text[index] if index < len(self.text) else ""

    def _skip_whitespace_and_comments(self) -> None:
        while self.pos < len(self.text):
            char = self.text[self.pos]
            if char in " \t\r\n":
                self._advance()
            elif char == "#":
                while self.pos < len(self.text) and self.text[self.pos] != "\n":
                    self._advance()
            else:
                return

    def tokens(self) -> list[Token]:
        """Scan the whole input; always ends with an EOF token."""
        result: list[Token] = []
        while True:
            token = self._next_token()
            result.append(token)
            if token.kind == "EOF":
                return result

    def _next_token(self) -> Token:
        self._skip_whitespace_and_comments()
        if self.pos >= len(self.text):
            return Token("EOF", "", self.line, self.column)
        line, column = self.line, self.column
        char = self._peek()

        if char == "<" and self._looks_like_iri():
            return self._read_iri(line, column)
        if char in "?$":
            return self._read_variable(line, column)
        if char in "\"'":
            return self._read_string(line, column)
        if char == "@":
            return self._read_langtag(line, column)
        if char.isdigit():
            return self._read_number(line, column)
        if char == "_" and self._peek(1) == ":":
            return self._read_bnode(line, column)
        for punct in _PUNCTUATION:
            if self.text.startswith(punct, self.pos):
                self._advance(len(punct))
                return Token("PUNCT", punct, line, column)
        if char.isalpha():
            return self._read_word(line, column)
        raise self.error(f"unexpected character {char!r}")

    def _looks_like_iri(self) -> bool:
        """Disambiguate ``<`` as IRI-open vs less-than.

        An IRIREF contains no whitespace and closes with ``>`` before any
        character illegal in IRIs appears.
        """
        index = self.pos + 1
        while index < len(self.text):
            char = self.text[index]
            if char == ">":
                return True
            if char in ' \t\r\n"{}|^`\\' or char == "<":
                return False
            index += 1
        return False

    def _read_iri(self, line: int, column: int) -> Token:
        end = self.text.find(">", self.pos + 1)
        if end < 0:
            raise self.error("unterminated IRI")
        value = self.text[self.pos + 1:end]
        self._advance(end - self.pos + 1)
        return Token("IRIREF", value, line, column)

    def _read_variable(self, line: int, column: int) -> Token:
        self._advance()  # ? or $
        start = self.pos
        while self.pos < len(self.text) and (self._peek().isalnum() or self._peek() == "_"):
            self._advance()
        if self.pos == start:
            raise self.error("empty variable name")
        return Token("VAR", self.text[start:self.pos], line, column)

    def _read_string(self, line: int, column: int) -> Token:
        quote = self._peek()
        self._advance()
        parts: list[str] = []
        while True:
            if self.pos >= len(self.text):
                raise self.error("unterminated string literal")
            char = self._peek()
            if char == quote:
                self._advance()
                return Token("STRING", "".join(parts), line, column)
            if char == "\\":
                self._advance()
                escape = self._peek()
                mapping = {"t": "\t", "n": "\n", "r": "\r", "\\": "\\", '"': '"', "'": "'"}
                if escape not in mapping:
                    raise self.error(f"unknown string escape \\{escape}")
                parts.append(mapping[escape])
                self._advance()
            else:
                parts.append(char)
                self._advance()

    def _read_langtag(self, line: int, column: int) -> Token:
        self._advance()  # @
        start = self.pos
        while self.pos < len(self.text) and (self._peek().isalnum() or self._peek() == "-"):
            self._advance()
        if self.pos == start:
            raise self.error("empty language tag")
        return Token("LANGTAG", self.text[start:self.pos], line, column)

    def _read_number(self, line: int, column: int) -> Token:
        start = self.pos
        if self._peek() in "+-":
            self._advance()
        saw_dot = False
        saw_exp = False
        while self.pos < len(self.text):
            char = self._peek()
            if char.isdigit():
                self._advance()
            elif char == "." and not saw_dot and not saw_exp and self._peek(1).isdigit():
                saw_dot = True
                self._advance()
            elif char in "eE" and not saw_exp and (self._peek(1).isdigit() or self._peek(1) in "+-"):
                saw_exp = True
                self._advance()
                if self._peek() in "+-":
                    self._advance()
            else:
                break
        value = self.text[start:self.pos]
        kind = "DECIMAL" if (saw_dot or saw_exp) else "INTEGER"
        return Token(kind, value, line, column)

    def _read_bnode(self, line: int, column: int) -> Token:
        self._advance(2)  # _:
        start = self.pos
        while self.pos < len(self.text) and (self._peek().isalnum() or self._peek() in "-_."):
            self._advance()
        if self.pos == start:
            raise self.error("empty blank node label")
        return Token("BNODE", self.text[start:self.pos], line, column)

    def _read_word(self, line: int, column: int) -> Token:
        start = self.pos
        while self.pos < len(self.text) and (self._peek().isalnum() or self._peek() in "_-"):
            self._advance()
        word = self.text[start:self.pos]
        # A prefixed name: word followed by ':' (possibly empty prefix handled above).
        if self._peek() == ":":
            self._advance()
            local_start = self.pos
            while self.pos < len(self.text) and (self._peek().isalnum() or self._peek() in "_-."):
                self._advance()
            local = self.text[local_start:self.pos]
            # PN_LOCAL must not end with '.'
            while local.endswith("."):
                local = local[:-1]
                self.pos -= 1
                self.column -= 1
            return Token("PNAME", f"{word}:{local}", line, column)
        if word.upper() in KEYWORDS:
            return Token("KEYWORD", word.upper(), line, column)
        return Token("NAME", word, line, column)


def tokenize(text: str) -> list[Token]:
    """Tokenize *text*; raises :class:`SPARQLParseError` on malformed input."""
    return Lexer(text).tokens()


_WHITESPACE = " \t\r\n\f\v"


def canonicalize_query(text: str) -> str:
    """Normalize query text for cache keying.

    Collapses runs of whitespace to one space and strips ``#`` comments —
    but only *outside* quoted literals, so queries differing inside a
    string constant never share a key.  Purely lexical: two differently
    written but semantically equal queries may still key separately, which
    costs a duplicate entry, never a wrong answer.
    """
    out: list[str] = []
    quote: str | None = None
    pending_space = False
    i = 0
    n = len(text)
    while i < n:
        char = text[i]
        if quote is not None:
            out.append(char)
            if char == "\\" and i + 1 < n:
                out.append(text[i + 1])
                i += 2
                continue
            if char == quote:
                quote = None
            i += 1
            continue
        if char in _WHITESPACE:
            pending_space = True
            i += 1
            continue
        if char == "#":  # comment to end of line
            while i < n and text[i] != "\n":
                i += 1
            pending_space = True
            continue
        if pending_space and out:
            out.append(" ")
        pending_space = False
        if char in "\"'":
            quote = char
        out.append(char)
        i += 1
    return "".join(out)
