"""Structural guard: module-level caches live in ``repro.cache`` only.

A memo declared as a bare module-level ``dict`` is unbounded or hand-evicted,
unlocked, and invisible to ``memo_stats()``.  New memos go through
``repro/cache/memos.py`` (an ``LRUCache`` region with a capacity constant).

The guard is by *shape*, not by name: a module-level mapping or set that
starts empty has no purpose other than to be filled at run time, whatever
it is called (``_NAME_TUPLES`` hid from a name-based guard for three PRs).
A mapping whose name says memo/cache is caught even when it starts filled.

``functools.lru_cache`` / ``functools.cache`` are memos too: bounded and
locked, but invisible to ``memo_stats()`` and left filled by
``clear_memos()``.  Only ``repro/datasets/`` may use them — it caches whole
benchmark lakes, not engine state.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import repro

SOURCE_ROOT = Path(repro.__file__).parent
CACHE_PACKAGE = SOURCE_ROOT / "cache"
FUNCTION_MEMO_PACKAGES = (CACHE_PACKAGE, SOURCE_ROOT / "datasets")
FUNCTOOLS_MEMOS = {"lru_cache", "cache"}
SUSPECT_NAME = re.compile(r"(?i)memo|cache")
MAPPING_TYPES = {
    "dict",
    "OrderedDict",
    "WeakKeyDictionary",
    "WeakValueDictionary",
    "defaultdict",
    "Counter",
}
SET_TYPES = {"set", "WeakSet"}


def constructed_type(value: ast.expr) -> str:
    if not isinstance(value, ast.Call):
        return ""
    function = value.func
    return function.attr if isinstance(function, ast.Attribute) else getattr(function, "id", "")


def is_mapping_instance(value: ast.expr) -> bool:
    if isinstance(value, (ast.Dict, ast.DictComp)):
        return True
    return constructed_type(value) in MAPPING_TYPES


def is_empty_mutable_container(value: ast.expr) -> bool:
    """``{}``, ``dict()``, ``set()``, ``defaultdict(list)`` and their kin."""
    if isinstance(value, ast.Dict):
        return not value.keys
    name = constructed_type(value)
    if name not in MAPPING_TYPES | SET_TYPES or value.keywords:
        return False
    # defaultdict's first positional argument is the factory, not content.
    return len(value.args) <= (1 if name == "defaultdict" else 0)


def module_level_mapping_caches(tree: ast.Module) -> list[tuple[int, str]]:
    found = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        empty = is_empty_mutable_container(value)
        if not (empty or is_mapping_instance(value)):
            continue
        for target in targets:
            if isinstance(target, ast.Name) and (
                empty or SUSPECT_NAME.search(target.id)
            ):
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
        "module-level mutable tables must be LRUCache regions declared in "
        f"repro/cache/memos.py, or per-execution state: {offenders}"
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
        "_NAME_TUPLES: dict = {}\n"
        "_SEEN_SHAPES = set()\n"
        "_BY_SHAPE = defaultdict(list)\n"
        "_PLAN_CACHE = {'warm': 1}\n"
        "KEYWORDS = {'select', 'where'}\n"
        "EMPTY = ()\n"
    )
    assert module_level_mapping_caches(tree) == [
        (3, "_JOIN_STREAM_MEMO"),
        (4, "_translation_memo"),
        (5, "_SQL_BLOCK_CACHE"),
        (9, "_NAME_TUPLES"),
        (10, "_SEEN_SHAPES"),
        (11, "_BY_SHAPE"),
        (12, "_PLAN_CACHE"),
    ]


def functools_memos(tree: ast.Module) -> list[tuple[int, str]]:
    """Every import or attribute use of ``functools.lru_cache`` / ``.cache``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found.extend(
                (node.lineno, alias.name)
                for alias in node.names
                if alias.name in FUNCTOOLS_MEMOS
            )
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in FUNCTOOLS_MEMOS
            and isinstance(node.value, ast.Name)
            and node.value.id == "functools"
        ):
            found.append((node.lineno, f"functools.{node.attr}"))
    return sorted(found)


def test_no_functools_memo_outside_the_cache_and_dataset_packages():
    offenders = []
    for path in sorted(SOURCE_ROOT.rglob("*.py")):
        if any(package in path.parents for package in FUNCTION_MEMO_PACKAGES):
            continue
        for lineno, name in functools_memos(ast.parse(path.read_text())):
            offenders.append(f"{path.relative_to(SOURCE_ROOT)}:{lineno} {name}")
    assert offenders == [], (
        "engine memos must be LRUCache regions declared in repro/cache/memos.py: "
        f"{offenders}"
    )


def test_the_functools_guard_fires_on_the_old_predicate_memos():
    # The relational executor's two memos before they became a region.
    tree = ast.parse(
        "from functools import lru_cache\n"
        "@lru_cache(maxsize=512)\n"
        "def like_to_regex(pattern): ...\n"
        "def _compile_predicate(header, predicate): ...\n"
        "_compile_predicate_memo = lru_cache(maxsize=2048)(_compile_predicate)\n"
        "import functools\n"
        "@functools.cache\n"
        "def f(): ...\n"
        "from functools import cached_property, partial\n"
        "cache = {}.get\n"
    )
    assert functools_memos(tree) == [(1, "lru_cache"), (7, "functools.cache")]
