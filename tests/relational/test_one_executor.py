"""Structural guard: each relational operator has one row-producing definition.

Every ``PlanNode`` subclass under ``repro/relational/`` defines ``run`` (its
counted kernel) and none defines ``execute``: the base class replays
``run``'s counts into a meter, so a per-node ``execute`` would be a second,
streaming definition of the same operator to keep in step with the first.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

RELATIONAL = Path(repro.__file__).parent / "relational"
OPERATORS = {
    "SeqScan", "IndexScan", "FilterNode", "HashJoin", "IndexNestedLoopJoin",
    "ProjectNode", "DistinctNode", "SortNode", "LimitNode", "AggregateNode", "CountNode",
}


def plan_nodes(tree: ast.Module) -> dict[str, set[str]]:
    """``PlanNode`` subclasses of a module (directly or through a class of the
    same module) and the names of the methods each defines."""
    bases: dict[str, set[str]] = {}
    methods: dict[str, set[str]] = {}
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            bases[node.name] = {
                base.id if isinstance(base, ast.Name) else getattr(base, "attr", "")
                for base in node.bases
            }
            methods[node.name] = {
                item.name
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            }

    def derives(name: str) -> bool:
        return any(base == "PlanNode" or (base in bases and derives(base)) for base in bases[name])

    return {name: methods[name] for name in bases if derives(name)}


def violations(tree: ast.Module) -> list[str]:
    found = []
    for name, defined in sorted(plan_nodes(tree).items()):
        if "execute" in defined:
            found.append(f"{name} defines execute")
        if "run" not in defined:
            found.append(f"{name} does not define run")
    return found


def test_every_operator_defines_run_and_no_operator_defines_execute():
    operators: set[str] = set()
    problems = []
    for path in sorted(RELATIONAL.rglob("*.py")):
        tree = ast.parse(path.read_text())
        operators |= set(plan_nodes(tree))
        problems.extend(f"{path.name}: {problem}" for problem in violations(tree))
    assert problems == []
    assert operators == OPERATORS


def test_the_guard_fires_on_a_streaming_twin():
    # The sequential scan as it was written before it had a counted kernel.
    tree = ast.parse(
        "class PlanNode:\n"
        "    def execute(self, meter): raise NotImplementedError\n"
        "@dataclass\n"
        "class SeqScan(PlanNode):\n"
        "    def execute(self, meter):\n"
        "        for __, row in self.storage.scan():\n"
        "            meter.count('rows_scanned')\n"
        "            yield row\n"
        "class Scan(SeqScan):\n"
        "    def run(self): ...\n"
        "class Unrelated:\n"
        "    def execute(self): ...\n"
    )
    assert violations(tree) == [
        "SeqScan defines execute",
        "SeqScan does not define run",
    ]
