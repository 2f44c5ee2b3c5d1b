"""One check per precondition, and exact comparisons.

Every entry point that needs a prime p refuses any other p through
``numtheory.check_prime``, with the one message "{p} is not prime", so no
other ``raise`` says it.  The bounds suite compares each row with ``>=``
and no module keeps a tolerance constant (a name ending in ``_SLACK``).
"""

import ast
import os

import pytest

import regula
from regula import RegulaError
from regula.classes import conjugacy_classes, fused_counts
from regula.cli import build_parser
from regula.constructors import alternating, cyclic, symmetric
from regula.ffield import make_field
from regula.numtheory import lewis_riedl_p_part, part_split


def prime_refusals(tree):
    """(line, function) of every raise whose message says "is not prime"."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Raise) and child.exc is not None and any(
                    isinstance(c, ast.Constant) and isinstance(c.value, str)
                    and "is not prime" in c.value for c in ast.walk(child.exc)):
                found.append((child.lineno, function))
            visit(child, function)

    visit(tree, None)
    return found


def slack_names(tree):
    """(line, name) of every name bound anywhere that ends in ``_SLACK``."""
    return [(node.lineno, node.id) for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
            and node.id.endswith("_SLACK")]


def package_trees():
    package = os.path.dirname(regula.__file__)
    modules = sorted(f for f in os.listdir(package) if f.endswith(".py"))
    assert "numtheory.py" in modules
    for name in modules:
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            yield name, ast.parse(fh.read(), filename=name)


class TestOnePrimeGuard:
    def test_detects_prime_refusals(self):
        tree = ast.parse("def check_prime(p):\n"
                         "    if not is_prime(p):\n"
                         "        raise RegulaError(f'{p} is not prime')\n"
                         "class T:\n"
                         "    def counts(self, p):\n"
                         "        if p < 2:\n"
                         "            raise ValueError('%d is not prime' % p)\n"
                         "        raise RegulaError('needs a prime p')\n")
        assert prime_refusals(tree) == [(3, "check_prime"), (7, "counts")]

    def test_only_check_prime_refuses(self):
        found = [(name, function) for name, tree in package_trees()
                 for _, function in prime_refusals(tree)]
        assert found == [("numtheory.py", "check_prime")]

    def test_detects_slack_names(self):
        tree = ast.parse("ROW_SLACK = 1e-9\n"
                         "slack = 0\n"
                         "def f():\n"
                         "    LOCAL_SLACK: float = 0.5\n")
        assert slack_names(tree) == [(1, "ROW_SLACK"), (4, "LOCAL_SLACK")]

    def test_no_slack_constants(self):
        for name, tree in package_trees():
            assert slack_names(tree) == [], name


def _classes_command(p):
    args = build_parser().parse_args(["classes", "C(6)", "--p", str(p)])
    return args.func(args)


# every entry point that takes a prime p; without its check,
# p_power_class_count(1) would never return
ENTRY_POINTS = {
    "ClassTable.counts": lambda p: conjugacy_classes(cyclic(6)).counts(p),
    "ClassTable.singular_element_total":
        lambda p: conjugacy_classes(cyclic(6)).singular_element_total(p),
    "ClassTable.p_power_class_count":
        lambda p: conjugacy_classes(cyclic(6)).p_power_class_count(p),
    "classes.fused_counts": lambda p: fused_counts(symmetric(4), alternating(4), p),
    "numtheory.part_split": lambda p: part_split(12, p),
    "numtheory.lewis_riedl_p_part": lambda p: lewis_riedl_p_part(13, 1, p),
    "ffield.make_field": lambda p: make_field(p, 2),
    "cli._cmd_classes": _classes_command,
}


@pytest.mark.parametrize("p", (0, 1, 4, -3))
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_refuses_a_p_that_is_not_prime(entry, p):
    with pytest.raises(RegulaError) as exc:
        ENTRY_POINTS[entry](p)
    assert exc.type is RegulaError
    assert str(exc.value) == f"{p} is not prime"
