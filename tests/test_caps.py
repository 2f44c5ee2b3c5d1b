"""One cap per resource: each bound is a module constant read when a
call runs (``perm_core.ELEMENT_CAP``, ``perm_core.DEGREE_CAP``, the input
bounds of ``numtheory``), and no function takes a cap of its own."""

import ast
import os

import regula


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
        package = os.path.dirname(regula.__file__)
        modules = sorted(f for f in os.listdir(package) if f.endswith(".py"))
        assert "numtheory.py" in modules
        for name in modules:
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), filename=name)
            assert cap_parameters(tree) == [], name
