"""One cap per resource: each bound is a module constant read when a
call runs (``perm_core.ELEMENT_CAP``, ``perm_core.DEGREE_CAP``, the input
bounds of ``numtheory``), and no function takes a cap of its own."""

import ast

import pytest

from regula import CapExceeded, PermGroup, exprs, perm_core
from regula.constructors import cyclic, direct_product
from regula.exprs import group_from_text
from sources import package_trees


def cap_parameters(tree):
    """(line, function, parameter) of every parameter that names a cap."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            for arg in a.posonlyargs + a.args + a.kwonlyargs:
                name = arg.arg
                if name == "cap" or name.endswith("_cap") or name.startswith("max_"):
                    found.append((node.lineno, node.name, name))
    return found


class TestOneCap:
    def test_detects_cap_parameters(self):
        tree = ast.parse("def f(G, cap=None): pass\n"
                         "def g(self, N, *, index_cap=10): pass\n"
                         "def h(r, b, max_bits=256): pass\n"
                         "def k(capacity): pass\n")
        assert cap_parameters(tree) == [(1, "f", "cap"), (2, "g", "index_cap"),
                                        (3, "h", "max_bits")]

    def test_no_cap_parameters(self):
        for name, tree in package_trees():
            assert cap_parameters(tree) == [], name


class TestDegreeCapAtTheCall:
    def test_constructor_checks_read_the_cap(self, monkeypatch):
        # a constructor checks the cap as it stands, as PermGroup does; the
        # product of two trivial groups has a large degree and no chain
        monkeypatch.setattr(perm_core, "DEGREE_CAP", 3000)
        trivial = PermGroup([], degree=1500)
        assert direct_product(trivial, trivial).degree == 3000
        monkeypatch.setattr(perm_core, "DEGREE_CAP", 100)
        with pytest.raises(CapExceeded, match=r"^cyclic degree 150 outside \[1, 100\]$"):
            cyclic(150)

    def test_memo_keyed_by_the_degree_cap(self, monkeypatch):
        # a group memoised under a larger degree cap is refused under a
        # smaller one, as the uncached constructor refuses it
        monkeypatch.setattr(exprs, "_memo", {})
        assert group_from_text("AGL1(257)").degree == 257
        monkeypatch.setattr(perm_core, "DEGREE_CAP", 100)
        with pytest.raises(CapExceeded, match="^field size 257 is beyond desk scale$"):
            group_from_text("AGL1(257)")
