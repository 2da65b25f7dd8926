"""Structural guard: ``runtime/nodes.py`` drives kernels, it does not compute.

Every operator's semantics and charge sequence live in its kernel in
``federation/operators.py``; a push node decides when subtrees start, pause
and stop, and forwards what the kernel releases.  A node that charges,
merges, extracts keys, evaluates filters or sorts has grown a second copy
of an operator — the state this guard exists to keep from coming back.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro.runtime.nodes as nodes_module

#: Charging, merging, filter evaluation, DISTINCT identity and sorting.
FORBIDDEN = {
    "charge_engine",
    "cost_model",
    "ChargeBatch",
    "_merge",
    "compile_holds",
    "solution_identity",
    "sort_solutions",
}


def operator_logic_references(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, name) of every forbidden name, attribute or import in *tree*."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name.rsplit(".", 1)[-1]
        else:
            continue
        if name in FORBIDDEN:
            found.append((node.lineno, name))
    return sorted(found)


def test_nodes_reference_no_operator_logic():
    tree = ast.parse(Path(nodes_module.__file__).read_text())
    assert operator_logic_references(tree) == [], (
        "runtime/nodes.py must only drive kernels; move the logic into the "
        "operator's kernel in federation/operators.py"
    )


#: ``JoinNode.push`` as it stood before the kernels (PR 15), with its import.
PRE_KERNEL_JOIN_NODE = '''
from ..federation.operators import _merge

class JoinNode(Node):
    def push(self, slot, solution):
        key = self.key_of(solution)
        if key is None:
            return
        self.charges.add(self.insert_probe)
        self.tables[slot].setdefault(key, []).append(solution)
        for candidate in self.tables[1 - slot].get(key, ()):
            if slot == 0:
                merged = _merge(solution, candidate)
            else:
                merged = _merge(candidate, solution)
            if merged is not None:
                self.charges.add(self.output_cost)
                self.charges.flush()
                self.parent.push(self.slot, merged)

class ProjectNode(Node):
    def push(self, slot, solution):
        self.context.charge_engine(self.context.cost_model.engine_project_row)
'''


def test_the_guard_fires_on_the_pre_kernel_nodes():
    found = operator_logic_references(ast.parse(PRE_KERNEL_JOIN_NODE))
    assert found == [
        (2, "_merge"),
        (13, "_merge"),
        (15, "_merge"),
        (23, "charge_engine"),
        (23, "cost_model"),
    ]
