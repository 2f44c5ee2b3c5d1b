"""One check per precondition, exact comparisons and one element format.

Every entry point that needs a prime p refuses any other p through
``numtheory.check_prime``, with the one message "{p} is not prime", so no
other ``raise`` says it.  The bounds suite compares each row with ``>=``
and no module keeps a tolerance constant (a name ending in ``_SLACK``).
A ``Permutation`` is its image tuple, so neither the package nor the
build script reads ``.images``, and the second generator list, the
tuple-only membership test, the second enumeration entry and the
class-data wrappers of a table's methods are gone from the source, tools
and tests.
Every integer argument of ``numtheory``, ``make_field``'s k and a
group's degree pass ``numtheory.check_int``, the one raise that says
"is not an integer".  ``Permutation`` keeps no alias of a tuple
operation (``__call__`` for ``g[x]``, ``degree`` for ``len(g)``), and
``perm_core._element`` alone checks an element's length against a group.
The test oracles import only the standard library, so no package code
computes a reference value.
"""

import ast
import sys

import pytest

from regula import PermGroup, RegulaError
from regula.classes import conjugacy_classes, fused_counts
from regula.cli import build_parser
from regula.constructors import alternating, cyclic, symmetric
from regula.ffield import make_field
from regula.numtheory import (
    coxeter_number,
    factorize,
    is_p_power,
    landau_quantity,
    lewis_riedl_p_part,
    min_centralizer_bound_linear,
    part_split,
    prime_factors,
    prime_family,
    psl2_candidate_scan,
    regular_class_bound_linear,
    regular_class_bound_rank1,
    regular_proportion_bound,
    singular_proportion_bound_cross,
    singular_proportion_bound_defining,
    zsigmondy_primes,
)
from sources import TESTS, TOOLS, in_functions, package_trees, source_trees


def refusals(tree, message):
    """(line, function) of every raise whose message says ``message``."""
    return [(node.lineno, function) for node, function in in_functions(tree)
            if isinstance(node, ast.Raise) and node.exc is not None and any(
                isinstance(c, ast.Constant) and isinstance(c.value, str)
                and message in c.value for c in ast.walk(node.exc))]


def slack_names(tree):
    """(line, name) of every name bound anywhere that ends in ``_SLACK``."""
    return [(node.lineno, node.id) for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
            and node.id.endswith("_SLACK")]


# the removed generator list, membership test, enumeration entry and
# class-data wrappers, spelled in two pieces so that the names occur
# nowhere in the tree, this file included
REMOVED_NAMES = ("_gen" "_tuples", "_contains" "_tuple", "_raw" "_elements",
                 "class" "_counts", "singular" "_element_count")


def images_reads(tree):
    """(line, function) of every ``.images`` attribute in the tree."""
    return [(node.lineno, function) for node, function in in_functions(tree)
            if isinstance(node, ast.Attribute) and node.attr == "images"]


def removed_names(tree):
    """(line, name) of every identifier in ``REMOVED_NAMES``: a name, an
    attribute, a definition, an argument or an import alias."""
    return [(node.lineno, value) for node in ast.walk(tree)
            for field in ("id", "attr", "name", "arg", "asname")
            if (value := getattr(node, field, None)) in REMOVED_NAMES]


def group_degree_checks(tree):
    """Name of each function around a raise whose message says "group degree"."""
    return [fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
            for node in ast.walk(fn) if isinstance(node, ast.Raise) and node.exc is not None
            and "group degree" in ast.unparse(node.exc)]


def class_names(tree, cls):
    """(line, name) of every name the body of class ``cls`` binds: a method,
    a property or an assignment."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == cls:
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    found.append((stmt.lineno, stmt.name))
                elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                    found += [(t.lineno, t.id) for t in targets if isinstance(t, ast.Name)]
    return found


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
        assert refusals(tree, "is not prime") == [(3, "check_prime"), (7, "counts")]

    def test_only_check_prime_refuses(self):
        found = [(name, function) for name, tree in package_trees()
                 for _, function in refusals(tree, "is not prime")]
        assert found == [("numtheory.py", "check_prime")]

    def test_only_check_int_refuses(self):
        found = [(name, function) for name, tree in package_trees()
                 for _, function in refusals(tree, "is not an integer")]
        assert found == [("numtheory.py", "check_int")]

    def test_detects_slack_names(self):
        tree = ast.parse("ROW_SLACK = 1e-9\n"
                         "slack = 0\n"
                         "def f():\n"
                         "    LOCAL_SLACK: float = 0.5\n")
        assert slack_names(tree) == [(1, "ROW_SLACK"), (4, "LOCAL_SLACK")]

    def test_no_slack_constants(self):
        for name, tree in package_trees():
            assert slack_names(tree) == [], name


class TestOneElementFormat:
    def test_detects_images_reads(self):
        tree = ast.parse("class Permutation(tuple):\n"
                         "    @property\n"
                         "    def images(self):\n"
                         "        return self\n"
                         "def shift(perm):\n"
                         "    return [j + 1 for j in perm.images]\n"
                         "gens = [g.images for g in G.generators]\n")
        assert images_reads(tree) == [(6, "shift"), (7, None)]

    def test_no_images_reads(self):
        assert "build_atlas_data.py" in dict(source_trees(TOOLS))
        for name, tree in package_trees() + list(source_trees(TOOLS)):
            assert images_reads(tree) == [], name

    def test_detects_removed_names(self):
        gens, contains = REMOVED_NAMES[:2]
        tree = ast.parse(f"def {contains}(self, t):\n"
                         f"    return [u for u in self.{gens}]\n"
                         f"from regula.perm_core import {gens}\n"
                         f"{contains} = None\n"
                         f"generators = contains_tuples = None\n")
        assert sorted(removed_names(tree)) == [(1, contains), (2, gens), (3, gens), (4, contains)]

    def test_no_removed_names(self):
        trees = package_trees() + list(source_trees(TOOLS)) + list(source_trees(TESTS))
        assert "test_guards.py" in dict(trees)
        for name, tree in trees:
            assert removed_names(tree) == [], name


class TestOneWayIn:
    def test_detects_class_names(self):
        tree = ast.parse("class Permutation(tuple):\n"
                         "    __slots__ = ()\n"
                         "    def __call__(self, x):\n"
                         "        return self[x]\n"
                         "    @property\n"
                         "    def degree(self):\n"
                         "        return len(self)\n"
                         "    size: int = 0\n"
                         "class Other:\n"
                         "    def degree(self):\n"
                         "        return 0\n")
        assert class_names(tree, "Permutation") == [
            (2, "__slots__"), (3, "__call__"), (6, "degree"), (8, "size")]

    def test_permutation_keeps_no_alias(self):
        tree = dict(package_trees())["perm_core.py"]
        names = {name for _, name in class_names(tree, "Permutation")}
        assert "cycle_string" in names
        assert names.isdisjoint({"__call__", "degree"})

    def test_detects_length_checks(self):
        tree = ast.parse("def _element(g, degree):\n"
                         "    if len(g) != degree:\n"
                         "        raise DegreeMismatch(f'group degree {degree}')\n"
                         "def contains(self, g):\n"
                         "    if len(g) != self.degree:\n"
                         "        raise DegreeMismatch('wrong group degree')\n")
        assert group_degree_checks(tree) == ["_element", "contains"]

    def test_only_element_checks_a_length(self):
        found = [(name, function) for name, tree in package_trees()
                 for function in group_degree_checks(tree)]
        assert found == [("perm_core.py", "_element")]


def outside_imports(tree):
    """(line, module) of every import of a module outside the standard
    library, a relative import included."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            found.append((node.lineno, "." * node.level + (node.module or "")))
    return [(line, name) for line, name in found
            if name.split(".")[0] not in sys.stdlib_module_names]


class TestIndependentOracles:
    def test_detects_outside_imports(self):
        tree = ast.parse("import hashlib, regula.perm_core\n"
                         "from math import lcm\n"
                         "from regula import Permutation\n"
                         "def f():\n"
                         "    import sources\n"
                         "    from . import oracles\n")
        assert sorted(outside_imports(tree)) == [
            (1, "regula.perm_core"), (3, "regula"), (5, "sources"), (6, ".")]

    def test_oracles_import_only_the_standard_library(self):
        # not regula, and not another test module that imports it
        assert outside_imports(dict(source_trees(TESTS))["oracles.py"]) == []


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


# 2.0 and 7.5 are not ints; the CLI's --p is type=int, so argparse
# refuses them before _cmd_classes with its own message
@pytest.mark.parametrize("entry, p", [(entry, p) for entry in sorted(ENTRY_POINTS)
                                      for p in (0, 1, 4, -3, 2.0, 7.5)
                                      if isinstance(p, int) or entry != "cli._cmd_classes"])
def test_refuses_a_p_that_is_not_prime(entry, p):
    with pytest.raises(RegulaError) as exc:
        ENTRY_POINTS[entry](p)
    assert exc.type is RegulaError
    assert str(exc.value) == f"{p} is not prime"


# every integer argument of a public numtheory function, make_field's k and
# a group's degree, each given 2.5: (the argument's name, the call)
INT_ENTRY_POINTS = {
    "numtheory.factorize(n)": ("n", factorize),
    "numtheory.prime_factors(n)": ("n", prime_factors),
    "numtheory.is_p_power(n)": ("n", lambda x: is_p_power(x, 2)),
    "numtheory.part_split(n)": ("n", lambda x: part_split(x, 2)),
    "numtheory.landau_quantity(r)": ("r", lambda x: landau_quantity(x, 2, 3)),
    "numtheory.landau_quantity(a)": ("a", lambda x: landau_quantity(3, x, 2)),
    "numtheory.lewis_riedl_p_part(r)": ("r", lambda x: lewis_riedl_p_part(x, 1, 2)),
    "numtheory.lewis_riedl_p_part(c)": ("c", lambda x: lewis_riedl_p_part(3, x, 2)),
    "numtheory.zsigmondy_primes(r)": ("r", lambda x: zsigmondy_primes(x, 2)),
    "numtheory.zsigmondy_primes(b)": ("b", lambda x: zsigmondy_primes(2, x)),
    "numtheory.prime_family(bound)": ("bound", lambda x: prime_family("fermat", x)),
    "numtheory.coxeter_number(rank)": ("rank", lambda x: coxeter_number("A", x)),
    "numtheory.psl2_candidate_scan(bound)": ("bound", psl2_candidate_scan),
    "numtheory.regular_class_bound_linear(n)": ("n", lambda x: regular_class_bound_linear(x, 3)),
    "numtheory.regular_class_bound_linear(q)": ("q", lambda x: regular_class_bound_linear(2, x)),
    "numtheory.regular_class_bound_rank1(q)": ("q", lambda x: regular_class_bound_rank1(x, 1)),
    "numtheory.regular_class_bound_rank1(f)": ("f", lambda x: regular_class_bound_rank1(4, x)),
    "numtheory.min_centralizer_bound_linear(n)": ("n", lambda x: min_centralizer_bound_linear(x, 3)),
    "numtheory.min_centralizer_bound_linear(q)": ("q", lambda x: min_centralizer_bound_linear(2, x)),
    "numtheory.singular_proportion_bound_defining(q)": ("q", singular_proportion_bound_defining),
    "numtheory.singular_proportion_bound_cross(h)":
        ("h", lambda x: singular_proportion_bound_cross(x, 2)),
    "numtheory.singular_proportion_bound_cross(p)":
        ("p", lambda x: singular_proportion_bound_cross(3, x)),
    "numtheory.regular_proportion_bound(m)": ("m", regular_proportion_bound),
    "ffield.make_field(k)": ("k", lambda x: make_field(2, x)),
    "PermGroup(degree)": ("degree", lambda x: PermGroup([], degree=x)),
}


@pytest.mark.parametrize("entry", sorted(INT_ENTRY_POINTS))
def test_refuses_an_argument_that_is_not_an_int(entry):
    name, call = INT_ENTRY_POINTS[entry]
    with pytest.raises(RegulaError) as exc:
        call(2.5)
    assert exc.type is RegulaError
    assert str(exc.value) == f"{name} 2.5 is not an integer"
