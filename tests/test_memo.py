"""Derived data is memoised in one place per key: ``exprs.evaluate`` for
named groups and ``PermGroup._cached`` for data derived from a group.
A functools cache, or a module value rebound under ``global``, would be
a second memo that outlives both.  Only data that is read again is
memoised: the class table, the cores and the derived series, not
closures or the Fitting subgroup."""

import ast

from regula.exprs import group_from_text
from regula.perm_core import PermGroup
from regula.radicals import fitting, structure_summary
from sources import package_trees

FUNCTOOLS_CACHES = {"lru_cache", "cache", "cached_property"}


def functools_caches(tree):
    """(line, name) of every functools cache imported or used in the tree."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [(node.lineno, a.name) for a in node.names if a.name in FUNCTOOLS_CACHES]
        elif (isinstance(node, ast.Attribute) and node.attr in FUNCTOOLS_CACHES
              and isinstance(node.value, ast.Name) and node.value.id == "functools"):
            found.append((node.lineno, node.attr))
    return found


class TestOneMemo:
    def test_detects_both_spellings(self):
        tree = ast.parse("from functools import lru_cache\n"
                         "import functools\n"
                         "@functools.cached_property\n"
                         "def f(): pass\n")
        assert functools_caches(tree) == [(1, "lru_cache"), (3, "cached_property")]

    def test_no_functools_caches(self):
        for name, tree in package_trees():
            assert functools_caches(tree) == [], name


def global_statements(tree):
    """(line, names) of every ``global`` statement in the tree."""
    return [(node.lineno, node.names) for node in ast.walk(tree) if isinstance(node, ast.Global)]


class TestNoModuleState:
    def test_detects_global_statements(self):
        tree = ast.parse("_T = ()\n"
                         "def f(n):\n"
                         "    global _T, _U\n"
                         "    _T = tuple(range(n))\n")
        assert global_statements(tree) == [(3, ["_T", "_U"])]

    def test_no_global_statements(self):
        for name, tree in package_trees():
            assert global_statements(tree) == [], name


class TestMemoKeys:
    def test_only_tables_cores_and_derived_series(self):
        # a fresh group, so no other test has touched its memo
        G = PermGroup(group_from_text("x(S(4), PSL2(7))").generators)
        structure_summary(G)
        fitting(G)
        keys = set(G._cache)
        assert {"class_table", "derived_series"} <= keys
        others = keys - {"class_table", "derived_series"}
        assert others and all(isinstance(k, tuple) and k[0] == "core" for k in others), keys
