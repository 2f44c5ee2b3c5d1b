"""The fixed corpus of groups and normal pairs the suites run over.

Groups are addressed by expression text and shared through the
expression memo (``exprs.evaluate``), so each group is built and
certified once per process; its class table, cores and derived series
are memoised on the group itself (``PermGroup._cached``) and so are
computed once no matter how many suites touch it.  Those are the only
two memos.
"""

from __future__ import annotations

from .exprs import group_from_text
from .perm_core import Permutation

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

# (G expression, label, N): N normal in G is a corpus expression, a seed
# permutation in cycle notation whose normal closure in G is N, or
# "derived" for the commutator subgroup G' (the simple socle of the
# almost simple entries); the label names N in claim ids
NORMAL_PAIR_SPECS = (
    ("S(4)", "A(4)", "A(4)"),
    ("S(4)", "<<(1,2)(3,4)>>", "(1,2)(3,4)"),
    ("A(4)", "<<(1,2)(3,4)>>", "(1,2)(3,4)"),
    ("S(5)", "A(5)", "A(5)"),
    ("S(6)", "A(6)", "A(6)"),
    ("S(7)", "A(7)", "A(7)"),
    ("C(6)", "<<(1,4)(2,5)(3,6)>>", "(1,4)(2,5)(3,6)"),
    ("C(6)", "<<(1,3,5)(2,4,6)>>", "(1,3,5)(2,4,6)"),
    ("C(12)", "<<(1,4,7,10)(2,5,8,11)(3,6,9,12)>>", "(1,4,7,10)(2,5,8,11)(3,6,9,12)"),
    ("D(4)", "<<(1,2,3,4)>>", "(1,2,3,4)"),
    ("PGL2(7)", "PSL2(7)", "PSL2(7)"),
    ("PGL2(9)", "PSL2(9)", "PSL2(9)"),
    ("PGL2(11)", "PSL2(11)", "PSL2(11)"),
    ("PGammaL2(9)", "PSL2(9)", "PSL2(9)"),
    ("PGammaL2(8)", "PSL2(8)", "PSL2(8)"),
    ("AGL1(5)", "<<(1,2,3,4,5)>>", "(1,2,3,4,5)"),
    ("GLQ(l=1, q=3)", "<<translations>>", "(1,4,7)(2,5,8)(3,6,9)"),
    ("x(A(5), A(5))", "A(5) x 1", "(1,2,3)"),
    ("x(S(5), AGL1(5))", "x(A(5), C(5))", "x(A(5), C(5))"),
    ("M12.2", "<<socle>>", "derived"),
    ("U33.2", "<<socle>>", "derived"),
    ("L34.2_1", "<<socle>>", "derived"),
)


def corpus_groups():
    """(expression, group) for every corpus member, in report order."""
    return [(e, group_from_text(e)) for e in CORPUS_EXPRS]


def normal_pairs():
    """(G expression, N label, G, N) for each corpus normal pair."""
    out = []
    for gexpr, label, nspec in NORMAL_PAIR_SPECS:
        G = group_from_text(gexpr)
        if nspec == "derived":
            N = G.commutator_subgroup()
        elif nspec.startswith("("):
            N = G.normal_closure([Permutation.parse(nspec, G.degree)])
        else:
            N = group_from_text(nspec)
        out.append((gexpr, label, G, N))
    return out
