"""Evaluation of SPARQL filter expressions over solution mappings.

A *solution mapping* is a ``dict[str, Term]`` from variable name to RDF term.
Evaluation follows SPARQL's three-valued logic: type errors propagate as
:class:`ExpressionError` and make the enclosing FILTER reject the solution
(unless absorbed by ``||`` / ``!`` semantics like the spec prescribes).
"""

from __future__ import annotations

import re
from typing import Mapping

from ..cache.memos import compiled_holds
from ..exceptions import ExpressionError
from ..rdf.terms import (
    BNode,
    IRI,
    Literal,
    Term,
    XSD_BOOLEAN,
    XSD_STRING,
)
from .algebra import (
    BinaryOp,
    Expression,
    FunctionCall,
    TermExpr,
    UnaryOp,
    VariableExpr,
)

Solution = Mapping[str, Term]


def evaluate(expression: Expression, solution: Solution) -> Term | bool | int | float | str:
    """Evaluate *expression* under *solution*.

    Returns either a Python value (for operators) or an RDF term (for
    constants / variables), letting callers coerce as needed.
    """
    if isinstance(expression, TermExpr):
        return expression.term
    if isinstance(expression, VariableExpr):
        name = expression.variable.name
        if name not in solution:
            raise ExpressionError(f"unbound variable ?{name}")
        return solution[name]
    if isinstance(expression, UnaryOp):
        return _evaluate_unary(expression, solution)
    if isinstance(expression, BinaryOp):
        return _evaluate_binary(expression, solution)
    if isinstance(expression, FunctionCall):
        return _evaluate_function(expression, solution)
    raise ExpressionError(f"unknown expression node {expression!r}")


def effective_boolean_value(value: Term | bool | int | float | str) -> bool:
    """SPARQL EBV: booleans, numbers and strings coerce; IRIs are errors."""
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return value != 0
    if isinstance(value, str):
        return bool(value)
    if isinstance(value, Literal):
        if value.datatype == XSD_BOOLEAN:
            return value.lexical.strip().lower() in ("true", "1")
        if value.is_numeric:
            python_value = value.to_python()
            if isinstance(python_value, (int, float)):
                return python_value != 0
            raise ExpressionError(f"invalid numeric literal {value.lexical!r}")
        return bool(value.lexical)
    raise ExpressionError(f"no effective boolean value for {value!r}")


def holds(expression: Expression, solution: Solution) -> bool:
    """Return True when the FILTER expression accepts *solution*.

    Evaluation errors reject the solution, mirroring SPARQL semantics where
    an error in a FILTER removes the row.
    """
    try:
        return effective_boolean_value(evaluate(expression, solution))
    except ExpressionError:
        return False


# -- compiled filter predicates ---------------------------------------------

_FLIPPED = {"=": "=", "!=": "!=", "<": ">", ">": "<", "<=": ">=", ">=": "<="}


def compile_holds(expression: Expression):
    """A compiled ``solution -> bool`` equivalent of ``holds(expression, .)``.

    The common FILTER shape ``?var OP constant`` (either operand order) is
    compiled into a direct closure — constant side coerced once, comparison
    operator bound at compile time — decision-identical to the interpreter
    including its error semantics (unbound variable, mixed-type order, and
    TypeError all reject the row).  Every other shape falls back to the
    interpreter unchanged.

    Memoized structurally in the ``compiled_holds`` region: algebra nodes
    are frozen dataclasses, so equal expressions from different parses
    share one entry.
    """
    fn = compiled_holds.get(expression)
    if fn is None:
        fn = _compile_holds(expression)
        compiled_holds.put(expression, fn)
    return fn


def _compile_holds(expression: Expression):
    if isinstance(expression, BinaryOp) and expression.operator in _FLIPPED:
        left, right = expression.left, expression.right
        operator = expression.operator
        if isinstance(left, TermExpr) and isinstance(right, VariableExpr):
            # constant OP ?var  ==  ?var flipped-OP constant (the mixed-type
            # and error rules of _compare are symmetric in its operands).
            left, right = right, left
            operator = _FLIPPED[operator]
        if isinstance(left, VariableExpr) and isinstance(right, TermExpr):
            return _compile_comparison(left.variable.name, operator, right.term)

    def interpreted(solution: Solution) -> bool:
        return holds(expression, solution)

    return interpreted


def _compile_comparison(name: str, operator: str, term: Term):
    import operator as _operator

    compare = {
        "=": _operator.eq,
        "!=": _operator.ne,
        "<": _operator.lt,
        ">": _operator.gt,
        "<=": _operator.le,
        ">=": _operator.ge,
    }[operator]
    right_value = _to_python(term)
    right_is_number = isinstance(right_value, (int, float)) and not isinstance(
        right_value, bool
    )
    # Mixed number/non-number operands: =/!= decide directly, orderings are
    # type errors and reject the row (holds-of-ExpressionError semantics).
    equality = operator in ("=", "!=")
    mixed_result = operator == "!="

    def compiled(solution: Solution) -> bool:
        value = solution.get(name)
        if value is None:
            # Unbound variable: the interpreter raises and holds() rejects.
            return False
        left_value = _to_python(value)
        left_is_number = isinstance(left_value, (int, float)) and not isinstance(
            left_value, bool
        )
        if left_is_number != right_is_number:
            return mixed_result if equality else False
        try:
            return compare(left_value, right_value) is True
        except TypeError:
            return False

    return compiled


# -- helpers ----------------------------------------------------------------


def _to_python(value: Term | bool | int | float | str) -> bool | int | float | str:
    if isinstance(value, Literal):
        return value.to_python()
    if isinstance(value, IRI):
        return value.value
    if isinstance(value, BNode):
        return value.label
    return value


def _numeric(value: Term | bool | int | float | str) -> int | float:
    python_value = _to_python(value)
    if isinstance(python_value, bool):
        raise ExpressionError("boolean used in numeric context")
    if isinstance(python_value, (int, float)):
        return python_value
    raise ExpressionError(f"not a number: {python_value!r}")


def _string(value: Term | bool | int | float | str) -> str:
    if isinstance(value, Literal):
        return value.lexical
    if isinstance(value, IRI):
        return value.value
    if isinstance(value, str):
        return value
    raise ExpressionError(f"not a string: {value!r}")


def _evaluate_unary(expression: UnaryOp, solution: Solution):
    if expression.operator == "!":
        # !E is an error only if E is an error; evaluate eagerly.
        return not effective_boolean_value(evaluate(expression.operand, solution))
    if expression.operator == "-":
        return -_numeric(evaluate(expression.operand, solution))
    raise ExpressionError(f"unknown unary operator {expression.operator!r}")


def _compare(operator: str, left, right) -> bool:
    left_value = _to_python(left)
    right_value = _to_python(right)
    left_is_number = isinstance(left_value, (int, float)) and not isinstance(left_value, bool)
    right_is_number = isinstance(right_value, (int, float)) and not isinstance(right_value, bool)
    if left_is_number != right_is_number:
        if operator == "=":
            return False
        if operator == "!=":
            return True
        raise ExpressionError("cannot order a number against a non-number")
    if operator == "=":
        return left_value == right_value
    if operator == "!=":
        return left_value != right_value
    try:
        if operator == "<":
            return left_value < right_value
        if operator == ">":
            return left_value > right_value
        if operator == "<=":
            return left_value <= right_value
        if operator == ">=":
            return left_value >= right_value
    except TypeError as exc:
        raise ExpressionError(str(exc)) from exc
    raise ExpressionError(f"unknown comparison {operator!r}")


def _evaluate_binary(expression: BinaryOp, solution: Solution):
    operator = expression.operator
    if operator == "&&":
        # SPARQL logical-and: false dominates errors.
        try:
            left = effective_boolean_value(evaluate(expression.left, solution))
        except ExpressionError:
            right = effective_boolean_value(evaluate(expression.right, solution))
            if right is False:
                return False
            raise
        if not left:
            return False
        return effective_boolean_value(evaluate(expression.right, solution))
    if operator == "||":
        # SPARQL logical-or: true dominates errors.
        try:
            left = effective_boolean_value(evaluate(expression.left, solution))
        except ExpressionError:
            right = effective_boolean_value(evaluate(expression.right, solution))
            if right is True:
                return True
            raise
        if left:
            return True
        return effective_boolean_value(evaluate(expression.right, solution))

    left = evaluate(expression.left, solution)
    right = evaluate(expression.right, solution)
    if operator in ("=", "!=", "<", ">", "<=", ">="):
        return _compare(operator, left, right)
    if operator in ("+", "-", "*", "/"):
        left_number = _numeric(left)
        right_number = _numeric(right)
        if operator == "+":
            return left_number + right_number
        if operator == "-":
            return left_number - right_number
        if operator == "*":
            return left_number * right_number
        if right_number == 0:
            raise ExpressionError("division by zero")
        return left_number / right_number
    raise ExpressionError(f"unknown binary operator {operator!r}")


def _evaluate_function(expression: FunctionCall, solution: Solution):
    name = expression.name

    if name == "BOUND":
        if len(expression.args) != 1 or not isinstance(expression.args[0], VariableExpr):
            raise ExpressionError("BOUND expects a single variable")
        return expression.args[0].variable.name in solution

    args = [evaluate(arg, solution) for arg in expression.args]

    def arity(expected: int) -> None:
        if len(args) != expected:
            raise ExpressionError(f"{name} expects {expected} argument(s), got {len(args)}")

    if name == "REGEX":
        if len(args) not in (2, 3):
            raise ExpressionError("REGEX expects 2 or 3 arguments")
        flags = 0
        if len(args) == 3 and "i" in _string(args[2]):
            flags |= re.IGNORECASE
        try:
            return re.search(_string(args[1]), _string(args[0]), flags) is not None
        except re.error as exc:
            raise ExpressionError(f"invalid regular expression: {exc}") from exc
    if name == "CONTAINS":
        arity(2)
        return _string(args[1]) in _string(args[0])
    if name == "STRSTARTS":
        arity(2)
        return _string(args[0]).startswith(_string(args[1]))
    if name == "STRENDS":
        arity(2)
        return _string(args[0]).endswith(_string(args[1]))
    if name == "LCASE":
        arity(1)
        return Literal(_string(args[0]).lower())
    if name == "UCASE":
        arity(1)
        return Literal(_string(args[0]).upper())
    if name == "STR":
        arity(1)
        return Literal(_string(args[0]))
    if name == "STRLEN":
        arity(1)
        return len(_string(args[0]))
    if name == "ABS":
        arity(1)
        return abs(_numeric(args[0]))
    if name == "LANG":
        arity(1)
        if isinstance(args[0], Literal):
            return Literal(args[0].language or "")
        raise ExpressionError("LANG expects a literal")
    if name == "DATATYPE":
        arity(1)
        if isinstance(args[0], Literal):
            return IRI(args[0].datatype or XSD_STRING)
        raise ExpressionError("DATATYPE expects a literal")
    if name in ("ISIRI", "ISURI"):
        arity(1)
        return isinstance(args[0], IRI)
    if name == "ISLITERAL":
        arity(1)
        return isinstance(args[0], Literal)
    if name == "ISBLANK":
        arity(1)
        return isinstance(args[0], BNode)
    if name == "ISNUMERIC":
        arity(1)
        return isinstance(args[0], Literal) and args[0].is_numeric
    raise ExpressionError(f"unsupported function {name}")
