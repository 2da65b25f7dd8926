"""Translation of star-shaped sub-queries (SSQs) into SQL.

This is Ontario's "query translation" component.  A single SSQ over one
class becomes a single-table SELECT (plus satellite joins for multi-valued
predicates).  The paper's Heuristic 1 merges *several* SSQs over the same
relational endpoint into one SQL statement — :func:`translate_stars` accepts
any number of stars and emits the merged join query.

The paper explicitly notes that Ontario's own SPARQL-to-SQL translation was
not optimized for combined stars, which *increased* execution time, and that
hand-optimized SQL halved Q2's runtime; this translator produces the
optimized form directly (one flat join over base tables).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from ..cache.memos import term_decoders, translations
from ..exceptions import TranslationError
from ..rdf.namespaces import RDF_TYPE
from ..rdf.terms import IRI, Literal, Term, Variable
from ..sparql.algebra import (
    BinaryOp,
    Expression,
    Filter,
    FunctionCall,
    TermExpr,
    UnaryOp,
    VariableExpr,
)
from ..relational.sql.ast import (
    AndExpr,
    ColumnRef,
    Comparison,
    Constant,
    InPredicate,
    IsNullPredicate,
    JoinClause,
    LikePredicate,
    NotExpr,
    OrExpr,
    SelectItem,
    SelectStatement,
    TableRef,
    WhereExpr,
    conjunction,
)
from ..relational.types import SQLValue
from .rml import ClassMapping, PredicateMapping, render_iri

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - avoids a core <-> mapping import cycle
    from ..core.decomposer import StarSubquery

#: ``decode_columns``' memo-miss marker (None is a memoized NULL decode).
_MISSING = object()

_SQL_COMPARISONS = {"=": "=", "!=": "<>", "<": "<", ">": ">", "<=": "<=", ">=": ">="}


@dataclass(frozen=True)
class VariableBinding:
    """How one SPARQL variable surfaces in the translated SQL."""

    variable: str
    column: ColumnRef
    template: str | None  # IRI template when the variable denotes an entity
    datatype: str  # XSD datatype for literal reconstruction

    def term_for(self, value: SQLValue) -> Term | None:
        if value is None:
            return None
        if self.template is not None:
            return render_iri(self.template, value)
        if isinstance(value, bool):
            return Literal("true" if value else "false", self.datatype)
        return Literal(str(value), self.datatype)

    def value_for(self, term: Term) -> SQLValue:
        """Invert :meth:`term_for`: the stored SQL value of an RDF term.

        Used by the dependent join to push bound values down as an IN list.

        Raises:
            TranslationError: when the term does not fit this binding's
                value space (wrong IRI template, non-literal, ...).
        """
        from ..exceptions import TranslationError
        from ..rdf.terms import IRI as _IRI
        from .rml import extract_value, _coerce_key

        if self.template is not None:
            if not isinstance(term, _IRI):
                raise TranslationError(
                    f"variable ?{self.variable} expects an IRI, got {term!r}"
                )
            value = extract_value(self.template, term)
            if value is None:
                raise TranslationError(
                    f"IRI {term.value} does not match template {self.template!r}"
                )
            return _coerce_key(value)
        if not isinstance(term, Literal):
            raise TranslationError(
                f"variable ?{self.variable} expects a literal, got {term!r}"
            )
        python_value = term.to_python()
        if isinstance(python_value, (int, float, bool, str)):
            return python_value
        raise TranslationError(f"cannot convert {term!r} to a SQL value")


def _term_memo(binding: VariableBinding) -> dict[SQLValue, Term | None]:
    """The ``SQL value -> Term | None`` decode table of one binding.

    Bindings are frozen value objects and terms are immutable, so the memo
    is exact; the value space is the (bounded) set of distinct column values
    per source.  The table itself is a plain dict (single dict operations
    are atomic under the GIL); the ``term_decoders`` region bounds how many
    bindings keep one.
    """
    memo = term_decoders.get(binding)
    if memo is None:
        memo = {}
        term_decoders.put(binding, memo)
    return memo


@dataclass
class TranslationResult:
    """The SQL statement plus the recipe to rebuild solution mappings.

    This is the *request* a relational plan leaf holds (its SPARQL sibling
    is :class:`repro.federation.wrappers.StarRequest`): immutable once
    built, shared through the ``translations`` memo, and rendered once.
    """

    statement: SelectStatement
    outputs: list[VariableBinding]
    pushed_filters: list[Filter] = field(default_factory=list)

    @cached_property
    def sql(self) -> str:
        """The native query text, rendered on first use and then kept: the
        sub-result key, the ``sql_blocks`` key, span arguments, plan labels
        and error messages all read this one string."""
        return self.statement.sql()

    @property
    def text(self) -> str:
        """The Figure-1 rendering of this request in plan labels."""
        return f"SQL: {self.sql}"

    @property
    def key_parts(self) -> tuple:
        """The native-query components of the sub-result key: the SQL text
        already serializes stars, pushed filters and any IN restriction."""
        return (self.sql,)

    @property
    def span_args(self) -> dict:
        return {"sql": self.sql}

    def restricted(self, variable: str, terms: list[Term]) -> "TranslationResult":
        """A copy of this translation with ``variable IN (terms)`` added.

        This is the dependent (bound) join's push-down: the already-known
        bindings of the join variable restrict the sub-query shipped to the
        source.  Terms outside the variable's value space are dropped (they
        could never join anyway).
        """
        from ..exceptions import TranslationError

        binding = next((b for b in self.outputs if b.variable == variable), None)
        if binding is None:
            raise TranslationError(f"translation does not bind ?{variable}")
        values = []
        for term in terms:
            try:
                values.append(binding.value_for(term))
            except TranslationError:
                continue
        if not values:
            # Nothing can join: an always-false restriction.
            restriction: WhereExpr = Comparison(
                "=", Constant(0), Constant(1)
            )
        else:
            restriction = InPredicate(binding.column, tuple(values))
        statement = SelectStatement(
            items=self.statement.items,
            table=self.statement.table,
            joins=list(self.statement.joins),
            where=conjunction(
                ([self.statement.where] if self.statement.where is not None else [])
                + [restriction]
            ),
            distinct=self.statement.distinct,
            order_by=list(self.statement.order_by),
            limit=self.statement.limit,
            offset=self.statement.offset,
        )
        return TranslationResult(
            statement=statement,
            outputs=self.outputs,
            pushed_filters=list(self.pushed_filters),
        )

    def decode_columns(
        self, rows: list[tuple]
    ) -> tuple[tuple[str, ...], list[list[Term | None]], set[int]]:
        """Decode a whole SQL result into SPARQL term columns.

        Returns ``(names, columns, invalid)`` where ``invalid`` holds the
        indices of rows with a NULL binding (cannot happen for correctly
        generated statements, which add IS NOT NULL guards).  Term decoding
        is memoized per binding — terms are frozen value objects, so a
        memoized term is indistinguishable from a fresh one.  A miss is
        told apart from a memoized None by a sentinel, never by a second
        lookup another thread may have raced.
        """
        names = tuple(binding.variable for binding in self.outputs)
        columns: list[list[Term | None]] = []
        invalid: set[int] = set()
        for position, binding in enumerate(self.outputs):
            memo = _term_memo(binding)
            memo_get = memo.get
            term_for = binding.term_for
            column: list[Term | None] = []
            append = column.append
            for row in rows:
                value = row[position]
                term = memo_get(value, _MISSING)
                if term is _MISSING:
                    term = memo[value] = term_for(value)
                append(term)
            if None in column:
                for index, term in enumerate(column):
                    if term is None:
                        invalid.add(index)
            columns.append(column)
        return names, columns, invalid


class _StarContext:
    """Mutable translation state of one star."""

    def __init__(self, ssq: StarSubquery, mapping: ClassMapping, alias: str):
        self.ssq = ssq
        self.mapping = mapping
        self.alias = alias
        self.satellite_count = 0

    def subject_column(self) -> ColumnRef:
        return ColumnRef(self.alias, self.mapping.subject_column)

    def next_satellite_alias(self) -> str:
        self.satellite_count += 1
        return f"{self.alias}s{self.satellite_count}"


class _Translator:
    def __init__(self):
        self.bindings: dict[str, VariableBinding] = {}
        self.joins: list[JoinClause] = []
        self.where: list[WhereExpr] = []
        self.from_table: TableRef | None = None

    # -- star translation --------------------------------------------------

    def add_star(self, context: _StarContext, join_to_existing: bool) -> None:
        mapping = context.mapping
        base_ref = TableRef(mapping.table, context.alias)

        join_condition: tuple[ColumnRef, ColumnRef] | None = None
        subject = context.ssq.subject
        if isinstance(subject, Variable):
            existing = self.bindings.get(subject.name)
            if existing is not None:
                if existing.template != mapping.subject_template:
                    raise TranslationError(
                        f"variable ?{subject.name} spans incompatible IRI templates "
                        f"({existing.template!r} vs {mapping.subject_template!r})"
                    )
                join_condition = (existing.column, context.subject_column())
            self._bind(
                subject.name,
                context.subject_column(),
                mapping.subject_template,
                datatype="",
            )
        # Pre-compute object bindings to find a join column if the subject
        # did not provide one.
        pending_conditions: list[WhereExpr] = []
        for pattern in context.ssq.patterns:
            if pattern.predicate == RDF_TYPE:
                type_object = pattern.object
                if isinstance(type_object, IRI) and type_object != mapping.class_iri:
                    raise TranslationError(
                        f"star typed as {type_object.value} but mapped class is "
                        f"{mapping.class_iri.value}"
                    )
                if isinstance(type_object, Variable):
                    raise TranslationError("variable rdf:type objects are not supported")
                continue
            if not isinstance(pattern.predicate, IRI):
                raise TranslationError(f"variable predicate in {pattern.n3()}")
            predicate_mapping = mapping.predicate_mapping(pattern.predicate)
            condition = self._add_pattern(context, pattern, predicate_mapping)
            if condition is not None:
                if join_to_existing and join_condition is None and isinstance(condition, tuple):
                    join_condition = condition
                elif isinstance(condition, tuple):
                    pending_conditions.append(Comparison("=", condition[0], condition[1]))
                else:
                    pending_conditions.append(condition)

        if not isinstance(subject, Variable):
            if not isinstance(subject, IRI):
                raise TranslationError("blank-node subjects are not supported")
            key = mapping.subject_key(subject)
            pending_conditions.append(
                Comparison("=", context.subject_column(), Constant(key))
            )

        if self.from_table is None:
            self.from_table = base_ref
        else:
            if join_condition is None:
                raise TranslationError(
                    "merged stars must share a variable that maps to base-table columns"
                )
            left, right = join_condition
            self.joins.append(JoinClause(base_ref, left, right))
            join_condition = None
        if join_condition is not None:
            # Subject var was shared: emit the equality as a join-on condition
            # replacement (the base table is FROM, so use WHERE).
            left, right = join_condition
            pending_conditions.append(Comparison("=", left, right))
        self.where.extend(pending_conditions)

    def _add_pattern(
        self,
        context: _StarContext,
        pattern,
        predicate_mapping: PredicateMapping,
    ):
        """Translate one (subject, predicate, object) of a star.

        Returns an optional condition: either a (existing_col, new_col) tuple
        usable as a join condition, or a WhereExpr, or None.
        """
        if predicate_mapping.kind in ("column", "link"):
            column = ColumnRef(context.alias, predicate_mapping.column)
        else:  # multivalued: join the satellite table
            satellite_alias = context.next_satellite_alias()
            self.joins.append(
                JoinClause(
                    TableRef(predicate_mapping.table, satellite_alias),
                    ColumnRef(context.alias, context.mapping.subject_column),
                    ColumnRef(satellite_alias, predicate_mapping.key_column),
                )
            )
            column = ColumnRef(satellite_alias, predicate_mapping.value_column)

        obj = pattern.object
        if isinstance(obj, Variable):
            existing = self.bindings.get(obj.name)
            template = predicate_mapping.object_template
            if existing is not None:
                if existing.template != template:
                    raise TranslationError(
                        f"variable ?{obj.name} spans incompatible value spaces"
                    )
                if predicate_mapping.kind in ("column", "link"):
                    self.where.append(IsNullPredicate(column, negated=True))
                return (existing.column, column)
            self._bind(obj.name, column, template, predicate_mapping.datatype)
            if predicate_mapping.kind in ("column", "link"):
                # SPARQL requires the property to be present: exclude NULLs.
                self.where.append(IsNullPredicate(column, negated=True))
            return None
        # Ground object: constant equality.
        value = predicate_mapping.value_for_term(obj)
        return Comparison("=", column, Constant(value))

    def _bind(self, name: str, column: ColumnRef, template: str | None, datatype: str) -> None:
        self.bindings[name] = VariableBinding(name, column, template, datatype)

    # -- filters -------------------------------------------------------------

    def translate_filter(self, filter_: Filter) -> WhereExpr:
        return self._translate_expression(filter_.expression)

    def _translate_expression(self, expression: Expression) -> WhereExpr:
        if isinstance(expression, BinaryOp):
            operator = expression.operator
            if operator in ("&&", "||"):
                left = self._translate_expression(expression.left)
                right = self._translate_expression(expression.right)
                if operator == "&&":
                    return AndExpr((left, right))
                return OrExpr((left, right))
            if operator in _SQL_COMPARISONS:
                return self._translate_comparison(expression)
            raise TranslationError(f"operator {operator!r} is not translatable to SQL")
        if isinstance(expression, UnaryOp) and expression.operator == "!":
            return NotExpr(self._translate_expression(expression.operand))
        if isinstance(expression, FunctionCall):
            return self._translate_function(expression)
        raise TranslationError(f"expression {expression!r} is not translatable to SQL")

    def _translate_comparison(self, expression: BinaryOp) -> WhereExpr:
        left = self._translate_operand(expression.left)
        right = self._translate_operand(expression.right)
        if isinstance(left, Constant) and isinstance(right, Constant):
            raise TranslationError("constant-only comparisons are not pushed down")
        return Comparison(_SQL_COMPARISONS[expression.operator], left, right)

    def _translate_operand(self, expression: Expression):
        if isinstance(expression, VariableExpr):
            return self._column_of(expression.variable)
        if isinstance(expression, TermExpr):
            term = expression.term
            if isinstance(term, Literal):
                python_value = term.to_python()
                if isinstance(python_value, (int, float, bool, str)):
                    return Constant(python_value)
            raise TranslationError(f"term {term!r} is not translatable to SQL")
        raise TranslationError(f"operand {expression!r} is not translatable to SQL")

    def _column_of(self, variable: Variable) -> ColumnRef:
        binding = self.bindings.get(variable.name)
        if binding is None:
            raise TranslationError(f"filter references unbound variable ?{variable.name}")
        if binding.template is not None:
            raise TranslationError(
                f"filters over entity variables (?{variable.name}) are not pushed down"
            )
        return binding.column

    def _translate_function(self, expression: FunctionCall) -> WhereExpr:
        name = expression.name
        if name in ("CONTAINS", "STRSTARTS", "STRENDS"):
            if len(expression.args) != 2:
                raise TranslationError(f"{name} expects two arguments")
            target, needle = expression.args
            if not isinstance(target, VariableExpr) or not isinstance(needle, TermExpr):
                raise TranslationError(f"{name} must be variable-vs-constant to push down")
            column = self._column_of(target.variable)
            if not isinstance(needle.term, Literal):
                raise TranslationError(f"{name} needs a literal pattern")
            raw = needle.term.lexical
            escaped = raw.replace("%", r"\%").replace("_", r"\_")
            if escaped != raw:
                raise TranslationError("pattern contains LIKE wildcards; not pushed down")
            if name == "CONTAINS":
                pattern = f"%{raw}%"
            elif name == "STRSTARTS":
                pattern = f"{raw}%"
            else:
                pattern = f"%{raw}"
            return LikePredicate(column, pattern)
        raise TranslationError(f"function {name} is not translatable to SQL")


def _mapping_key(mapping: ClassMapping) -> tuple:
    return (
        mapping.source_id,
        mapping.class_iri.value,
        mapping.table,
        mapping.subject_column,
        mapping.subject_template,
        tuple(
            sorted(
                (predicate.value, repr(predicate_mapping))
                for predicate, predicate_mapping in mapping.predicates.items()
            )
        ),
    )


def _translation_key(
    stars: list[tuple[StarSubquery, ClassMapping]],
    pushed_filters: list[Filter] | None,
    distinct: bool,
) -> tuple:
    """The structural memo key of one translation: the N3 serialization of
    every pattern and filter plus the full mapping layout."""
    return (
        tuple(
            (
                tuple(pattern.n3() for pattern in star.patterns),
                _mapping_key(mapping),
            )
            for star, mapping in stars
        ),
        tuple(filter_.n3() for filter_ in pushed_filters or []),
        distinct,
    )


def translate_stars(
    stars: list[tuple[StarSubquery, ClassMapping]],
    pushed_filters: list[Filter] | None = None,
    distinct: bool = False,
) -> TranslationResult:
    """Translate one or more stars (same source) into a single SELECT.

    Args:
        stars: (SSQ, class mapping) pairs; stars after the first must share
            a variable with the part already translated (Heuristic 1's
            star-join), otherwise :class:`TranslationError` is raised.
        pushed_filters: SPARQL filters to translate into the WHERE clause;
            untranslatable filters raise :class:`TranslationError` (callers
            decide placement — that is Heuristic 2's job).
        distinct: emit SELECT DISTINCT.
    """
    if not stars:
        raise TranslationError("translate_stars needs at least one star")
    # Memoized structurally (see _translation_key): equal keys mean
    # structurally identical inputs, even across re-parsed copies of the
    # same query.  Entries are shared read-only: every consumer (including
    # ``TranslationResult.restricted``) copies before modifying.
    key = _translation_key(stars, pushed_filters, distinct)
    result = translations.get(key)
    if result is None:
        result = _translate_stars(stars, pushed_filters, distinct)
        translations.put(key, result)
    return result


def _translate_stars(
    stars: list[tuple[StarSubquery, ClassMapping]],
    pushed_filters: list[Filter] | None,
    distinct: bool,
) -> TranslationResult:
    translator = _Translator()
    for position, (ssq, mapping) in enumerate(stars):
        context = _StarContext(ssq, mapping, alias=f"t{position}")
        translator.add_star(context, join_to_existing=position > 0)
    for filter_ in pushed_filters or []:
        translator.where.append(translator.translate_filter(filter_))

    outputs = [translator.bindings[name] for name in sorted(translator.bindings)]
    items = [
        SelectItem(binding.column, alias=f"v_{binding.variable}") for binding in outputs
    ]
    statement = SelectStatement(
        items=items,
        table=translator.from_table,
        joins=translator.joins,
        where=conjunction(translator.where),
        distinct=distinct,
    )
    return TranslationResult(
        statement=statement,
        outputs=outputs,
        pushed_filters=list(pushed_filters or []),
    )


def stars_variable_columns(
    stars: list[tuple[StarSubquery, ClassMapping]]
) -> dict[str, tuple[str, str]]:
    """Map each variable of the stars to its backing ``(table, column)``.

    The physical-design heuristics use this to ask the catalog whether the
    join/filter attributes are indexed.
    """
    translator = _Translator()
    alias_tables: dict[str, str] = {}
    for position, (ssq, mapping) in enumerate(stars):
        alias = f"t{position}"
        alias_tables[alias] = mapping.table
        context = _StarContext(ssq, mapping, alias=alias)
        translator.add_star(context, join_to_existing=position > 0)
    for join in translator.joins:
        alias_tables.setdefault(join.table.binding, join.table.name)
    return {
        name: (alias_tables[binding.column.table], binding.column.column)
        for name, binding in translator.bindings.items()
    }


def can_translate_filter(
    filter_: Filter, stars: list[tuple[StarSubquery, ClassMapping]]
) -> bool:
    """True when *filter_* would push down onto the given stars."""
    try:
        translate_stars(stars, pushed_filters=[filter_])
    except TranslationError:
        return False
    return True


def filter_columns(
    filter_: Filter, stars: list[tuple[StarSubquery, ClassMapping]]
) -> list[tuple[str, str]]:
    """The ``(table, column)`` pairs a filter touches once translated.

    Used by Heuristic 2 to check whether the filtered attributes are
    indexed.  Raises :class:`TranslationError` for untranslatable filters.
    """
    translator = _Translator()
    for position, (ssq, mapping) in enumerate(stars):
        context = _StarContext(ssq, mapping, alias=f"t{position}")
        translator.add_star(context, join_to_existing=position > 0)
    alias_tables = {f"t{position}": mapping.table for position, (__, mapping) in enumerate(stars)}
    # Satellite aliases resolve through the join list.
    for join in translator.joins:
        alias_tables.setdefault(join.table.binding, join.table.name)
    expression = translator.translate_filter(filter_)
    columns: list[tuple[str, str]] = []

    def walk(node: WhereExpr) -> None:
        if isinstance(node, Comparison):
            for operand in (node.left, node.right):
                if isinstance(operand, ColumnRef):
                    columns.append((alias_tables.get(operand.table, operand.table), operand.column))
        elif isinstance(node, (LikePredicate, InPredicate, IsNullPredicate)):
            column = node.column
            columns.append((alias_tables.get(column.table, column.table), column.column))
        elif isinstance(node, NotExpr):
            walk(node.operand)
        elif isinstance(node, (AndExpr, OrExpr)):
            for operand in node.operands:
                walk(operand)

    walk(expression)
    return columns
