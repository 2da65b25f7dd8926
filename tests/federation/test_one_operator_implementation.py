"""Structural guard: one implementation per cold operator.

An operator's semantics and charges live in its kernel.  The base
``FedOperator.execute_batch`` drives that kernel over handles seen as
``RowView``s, so an operator needs no columnar loop of its own.  Only the
operators every benchmark plan is built from keep one: a second definition
of the same charge sequence, held to the kernel by ``test_kernels.py``.
Any other ``execute_batch`` would be a twin nothing measures.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

OPERATORS = Path(repro.__file__).parent / "federation" / "operators.py"
#: The bridge, and the four columnar loops on the benchmark's path.
COLUMNAR = {"FedOperator", "ServiceNode", "EngineFilter", "SymmetricHashJoin", "Project"}


def columnar_classes(tree: ast.Module) -> set[str]:
    """Names of the classes that define ``execute_batch``."""
    return {
        node.name
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        and any(
            isinstance(item, ast.FunctionDef) and item.name == "execute_batch"
            for item in node.body
        )
    }


def violations(tree: ast.Module) -> list[str]:
    return sorted(f"{name} defines execute_batch" for name in columnar_classes(tree) - COLUMNAR)


def test_only_the_hot_path_operators_define_execute_batch():
    tree = ast.parse(OPERATORS.read_text())
    assert violations(tree) == []
    assert columnar_classes(tree) == COLUMNAR


def test_the_guard_fires_on_a_columnar_left_join():
    # LeftJoin's columnar loop as it was before it was deleted.
    tree = ast.parse(
        "class LeftJoin(_Binary):\n"
        "    kernel_type = _LeftJoinKernel\n"
        "    def execute_batch(self, context):\n"
        "        cost = context.cost_model\n"
        "        positions_for = _positions_cache(self.join_variables)\n"
        "        clock_sleep = context.clock.sleep\n"
        "        emitter = _BatchEmitter(context)\n"
        "        table = {}\n"
        "        for batch, idx in self.right.execute_batch(context):\n"
        "            if cost.engine_hash_insert > 0:\n"
        "                clock_sleep(cost.engine_hash_insert)\n"
        "            columns = batch.columns\n"
        "            key = tuple(\n"
        "                None if position < 0 else columns[position][idx]\n"
        "                for position in positions_for(batch)\n"
        "            )\n"
        "            table.setdefault(key, []).append((batch, idx))\n"
        "        for batch, idx in self.left.execute_batch(context):\n"
        "            yield (batch, idx)\n"
        "class Project(_Unary):\n"
        "    def execute_batch(self, context):\n"
        "        return self.child.execute_batch(context)\n"
    )
    assert violations(tree) == ["LeftJoin defines execute_batch"]
