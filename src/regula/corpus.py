"""The fixed corpus of groups and normal pairs the suites run over.

Groups are addressed by expression text and shared through the
expression memo (``exprs.evaluate``), so each group is built and
certified once per process; its class table, cores and closures are
memoised on the group itself (``PermGroup._cached``) and so are computed
once no matter how many suites touch it.  Those are the only two memos.
"""

from __future__ import annotations

from .errors import RegulaError
from .exprs import group_from_text
from .perm_core import PermGroup, Permutation

# every corpus group, by expression; ordering is the report ordering
CORPUS_EXPRS = (
    "C(6)", "C(8)", "C(12)",
    "S(3)", "S(4)", "S(5)", "S(6)", "S(7)",
    "A(4)", "A(5)", "A(6)",
    "D(4)", "D(6)",
    "wr(C(2), C(2))", "wr(C(4), C(2))", "wr(C(2), S(3))",
    "SYL2(2)", "SYL2(3)",
    "AGL1(4)", "AGL1(5)", "AGL1(17)", "AGL1(257)", "AGammaL1(4)",
    "GLQ(l=1, q=3)", "GLQ(l=1, q=5)", "GLQ(l=2, q=3)",
    "PSL2(4)", "PSL2(5)", "PSL2(7)", "PSL2(8)", "PSL2(9)",
    "PSL2(11)", "PSL2(13)", "PSL2(16)",
    "PGL2(7)", "PGL2(9)", "PGL2(11)",
    "PGammaL2(8)", "PGammaL2(9)",
    "PSL3(3)",
    "M10",
    "x(A(5), A(5))", "x(S(5), AGL1(5))", "x(A(5), C(5))",
    "M11", "M12", "M12.2",
    "L34", "L34.2_1", "L34.2_2", "L34.2_3", "L34.2^2",
    "U33", "U33.2", "Sz8",
)

# (G, N) with N normal in G, both corpus members or derived subgroups;
# entries are (G expression, N expression or a seed permutation whose
# normal closure in G is N)
NORMAL_PAIR_SPECS = (
    ("S(4)", "A(4)"),
    ("S(4)", ("closure", "(1,2)(3,4)")),
    ("A(4)", ("closure", "(1,2)(3,4)")),
    ("S(5)", "A(5)"),
    ("S(6)", "A(6)"),
    ("S(7)", "A(7)"),
    ("C(6)", ("closure", "(1,4)(2,5)(3,6)")),
    ("C(6)", ("closure", "(1,3,5)(2,4,6)")),
    ("C(12)", ("closure", "(1,4,7,10)(2,5,8,11)(3,6,9,12)")),
    ("D(4)", ("closure", "(1,2,3,4)")),
    ("PGL2(7)", "PSL2(7)"),
    ("PGL2(9)", "PSL2(9)"),
    ("PGL2(11)", "PSL2(11)"),
    ("PGammaL2(9)", "PSL2(9)"),
    ("PGammaL2(8)", "PSL2(8)"),
    ("AGL1(5)", ("closure", "(1,2,3,4,5)")),
    ("GLQ(l=1, q=3)", ("closure-first-translation", None)),
    ("x(A(5), A(5))", ("left-factor", "A(5)")),
    ("x(S(5), AGL1(5))", "x(A(5), C(5))"),
    ("M12.2", ("closure-nontrivial", None)),
    ("U33.2", ("closure-nontrivial", None)),
    ("L34.2_1", ("closure-nontrivial", None)),
)


def corpus_group(expr_text: str) -> PermGroup:
    return group_from_text(expr_text)


def corpus_groups():
    """(expression, group) for every corpus member, in report order."""
    return [(e, corpus_group(e)) for e in CORPUS_EXPRS]


def _first_translation_closure(G: PermGroup) -> PermGroup:
    # seed with a generator of odd prime order (the translation part)
    for g in G.generators:
        o = g.order()
        if o % 2 == 1 and o > 1:
            return G.normal_closure([g])
    raise RegulaError("no odd-order generator found")


def _minimal_socle_closure(G: PermGroup) -> PermGroup:
    # smallest proper normal closure of a class representative: for the
    # almost simple corpus entries this is the simple socle
    from .classes import conjugacy_classes
    from .radicals import _closure_of_rep

    best = None
    for cls in conjugacy_classes(G).classes:
        if cls.element_order == 1:
            continue
        N = _closure_of_rep(G, cls.representative)
        if N.order < G.order and (best is None or N.order < best.order):
            best = N
    if best is None:
        raise RegulaError("group is simple; no proper closure")
    return best


def _left_factor(G: PermGroup, inner_expr: str) -> PermGroup:
    inner = corpus_group(inner_expr)
    gens = []
    for g in inner.generators:
        gens.append(Permutation(tuple(g.images) + tuple(range(inner.degree, G.degree))))
    return PermGroup(gens, degree=G.degree)


def normal_pairs():
    """(G expression, N description, G, N) for each corpus normal pair."""
    out = []
    for gexpr, nspec in NORMAL_PAIR_SPECS:
        G = corpus_group(gexpr)
        if isinstance(nspec, str):
            N = corpus_group(nspec)
            ndesc = nspec
        else:
            kind, arg = nspec
            if kind == "closure":
                N = G.normal_closure([Permutation.parse(arg, G.degree)])
                ndesc = f"<<{arg}>>"
            elif kind == "closure-first-translation":
                N = _first_translation_closure(G)
                ndesc = "<<translations>>"
            elif kind == "closure-nontrivial":
                N = _minimal_socle_closure(G)
                ndesc = "<<socle>>"
            elif kind == "left-factor":
                N = _left_factor(G, arg)
                ndesc = f"{arg} x 1"
            else:
                raise RegulaError(f"unknown pair spec {kind!r}")
        out.append((gexpr, ndesc, G, N))
    return out
