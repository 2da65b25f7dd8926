"""Structural guard: module-level caches live in ``repro.cache`` only.

A memo declared as a bare module-level ``dict`` is unbounded or hand-evicted,
unlocked, and invisible to ``memo_stats()``.  New memos go through
``repro/cache/memos.py`` (an ``LRUCache`` region with a capacity constant).
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import repro

SOURCE_ROOT = Path(repro.__file__).parent
CACHE_PACKAGE = SOURCE_ROOT / "cache"
SUSPECT_NAME = re.compile(r"(?i)memo|cache")
MAPPING_TYPES = {"dict", "OrderedDict", "WeakKeyDictionary", "defaultdict"}


def is_mapping_instance(value: ast.expr) -> bool:
    if isinstance(value, (ast.Dict, ast.DictComp)):
        return True
    if isinstance(value, ast.Call):
        function = value.func
        name = function.attr if isinstance(function, ast.Attribute) else getattr(function, "id", "")
        return name in MAPPING_TYPES
    return False


def module_level_mapping_caches(tree: ast.Module) -> list[tuple[int, str]]:
    found = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        if not is_mapping_instance(value):
            continue
        for target in targets:
            if isinstance(target, ast.Name) and SUSPECT_NAME.search(target.id):
                found.append((node.lineno, target.id))
    return found


def test_no_module_level_mapping_cache_outside_the_cache_package():
    offenders = []
    for path in sorted(SOURCE_ROOT.rglob("*.py")):
        if CACHE_PACKAGE in path.parents:
            continue
        for lineno, name in module_level_mapping_caches(ast.parse(path.read_text())):
            offenders.append(f"{path.relative_to(SOURCE_ROOT)}:{lineno} {name}")
    assert offenders == [], (
        "module-level dict caches must be LRUCache regions declared in "
        f"repro/cache/memos.py: {offenders}"
    )


def test_the_guard_sees_what_it_is_meant_to_see():
    tree = ast.parse(
        "from collections import OrderedDict\n"
        "import weakref\n"
        "_JOIN_STREAM_MEMO: dict = {}\n"
        "_translation_memo = OrderedDict()\n"
        "_SQL_BLOCK_CACHE = weakref.WeakKeyDictionary()\n"
        "POLICY_CHOICES = {'aware': 1}\n"
        "def f():\n"
        "    local_cache = {}\n"
    )
    assert module_level_mapping_caches(tree) == [
        (3, "_JOIN_STREAM_MEMO"),
        (4, "_translation_memo"),
        (5, "_SQL_BLOCK_CACHE"),
    ]
