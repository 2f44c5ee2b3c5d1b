"""Source readers for the AST guards: each module of a folder parsed once,
and each node of a tree paired with the function it sits in."""

import ast
import os

import regula

PACKAGE = os.path.dirname(regula.__file__)
TESTS = os.path.dirname(os.path.abspath(__file__))
TOOLS = os.path.join(os.path.dirname(TESTS), "tools")


def source_trees(folder):
    """(file name, syntax tree) of each ``.py`` module in ``folder``, by name."""
    modules = sorted(f for f in os.listdir(folder) if f.endswith(".py"))
    for name in modules:
        with open(os.path.join(folder, name), encoding="utf-8") as fh:
            yield name, ast.parse(fh.read(), filename=name)


def package_trees():
    trees = list(source_trees(PACKAGE))
    assert {"numtheory.py", "perm_core.py"} <= set(dict(trees))
    return trees


def in_functions(node, function=None):
    """(node, function) for each node below ``node`` in source order, with
    the name of the innermost function around it, None outside any; a
    function's own definition is not yielded."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from in_functions(child, child.name)
        else:
            yield child, function
            yield from in_functions(child, function)
