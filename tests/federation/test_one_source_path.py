"""Structural guard: one source path per source kind.

A wrapper queries its source in exactly one place, ``_fetch``, which builds
the block that ``_charge`` then walks for every run — cold or cached, row
plane or batch plane.  A row-only twin (a lazy ``_rows`` / ``_cold_rows``
stream that queries the source itself and charges as it goes) would be a
second definition of the same source's timeline to keep in step with the
first.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

WRAPPERS = Path(repro.__file__).parent / "federation" / "wrappers.py"
ROW_ONLY = {"_rows", "_cold_rows"}
#: ``Database.query`` / ``execute_priced`` (SQL) and the BGP matchers (SPARQL).
SOURCE_CALLS = {"query", "execute_priced", "evaluate_bgp", "evaluate_bgp_columns"}


def called(call: ast.Call) -> str:
    function = call.func
    if isinstance(function, ast.Name):
        return function.id
    return function.attr if isinstance(function, ast.Attribute) else ""


def functions(tree: ast.Module):
    """``(owner, function)`` for module functions and class methods."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield "", node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield node.name, item


def violations(tree: ast.Module) -> list[str]:
    found = []
    for owner, function in functions(tree):
        name = f"{owner}.{function.name}" if owner else function.name
        if owner and function.name in ROW_ONLY:
            found.append(f"{owner} defines {function.name}")
        if function.name == "_fetch":
            continue
        for node in ast.walk(function):
            if isinstance(node, ast.Call) and called(node) in SOURCE_CALLS:
                found.append(f"{name} calls {called(node)}")
    return found


def test_wrappers_query_sources_only_in_fetch():
    tree = ast.parse(WRAPPERS.read_text())
    assert violations(tree) == []
    fetchers = {owner for owner, function in functions(tree) if function.name == "_fetch"}
    assert fetchers == {"SQLWrapper", "SPARQLWrapper"}


def test_the_guard_fires_on_a_cold_row_twin():
    # The SQL wrapper's row-plane cold path as it was before it was deleted.
    tree = ast.parse(
        "class SQLWrapper(_Wrapper):\n"
        "    def _cold_rows(self, context, record, translation):\n"
        "        source_id = self.source_id\n"
        "        meter = OperationMeter()\n"
        "        result = self.source.database.query(translation.statement, meter)\n"
        "        priced_so_far = 0.0\n"
        "        for row in result:\n"
        "            total_price = context.cost_model.price_rdb_operations(meter.counts)\n"
        "            context.charge_source(source_id, total_price - priced_so_far)\n"
        "            priced_so_far = total_price\n"
        "            context.charge_message(source_id)\n"
        "            solution = translation.solution_for(row)\n"
        "            if solution is not None:\n"
        "                yield solution\n"
        "    def _fetch(self, context, translation):\n"
        "        plan = self.source.database.plan(translation.statement)\n"
        "        return execute_priced(plan, context.cost_model)\n"
        "def helper(graph, patterns):\n"
        "    return list(evaluate_bgp(graph, patterns))\n"
    )
    assert violations(tree) == [
        "SQLWrapper defines _cold_rows",
        "SQLWrapper._cold_rows calls query",
        "helper calls evaluate_bgp",
    ]
