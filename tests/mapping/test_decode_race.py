"""``decode_columns`` under a racing writer of its per-binding decode table.

The table is a plain dict shared by every thread that decodes the binding.
A lookup that misses must be told apart from a memoized NULL decode
without a second lookup: between the two, another thread may insert the
value, and a decoder that then reads its first (missed) lookup as "NULL"
drops a valid row as invalid — a wrong answer, not a slow one.  The table
below loses that race on every miss, deterministically.
"""

from __future__ import annotations

from repro.cache.memos import term_decoders
from repro.mapping.translator import TranslationResult, VariableBinding
from repro.rdf import IRI, Literal
from repro.relational.sql.ast import ColumnRef, SelectStatement, TableRef

TEMPLATE = "http://ex/decode-race/{}"


class RacedTable(dict):
    """A decode table whose every miss is filled by a "racing thread" after
    the lookup and before ``get`` returns its default."""

    def __init__(self, binding: VariableBinding):
        super().__init__()
        self.binding = binding

    def get(self, value, default=None):
        if value not in self:
            self[value] = self.binding.term_for(value)
            return default
        return super().get(value, default)


def test_a_raced_miss_still_decodes_the_row():
    entity = VariableBinding("x", ColumnRef("t", "id"), TEMPLATE, "")
    label = VariableBinding("y", ColumnRef("t", "label"), None, "")
    term_decoders.put(entity, RacedTable(entity))
    try:
        translation = TranslationResult(
            statement=SelectStatement(items=[], table=TableRef("t")),
            outputs=[entity, label],
        )
        names, columns, invalid = translation.decode_columns([(1, "a"), (2, "b"), (1, "c")])
    finally:
        term_decoders.invalidate(entity)
    assert names == ("x", "y")
    assert invalid == set()
    assert columns[0] == [IRI(TEMPLATE.format(1)), IRI(TEMPLATE.format(2)), IRI(TEMPLATE.format(1))]
    assert columns[1] == [Literal("a", ""), Literal("b", ""), Literal("c", "")]
