import pytest

import oracles
from regula import CapExceeded, PermGroup, Permutation, RegulaError, perm_core
from regula.constructors import (
    affine_semilinear,
    alternating,
    cyclic,
    dihedral,
    symmetric,
    wreath,
)
from regula.corpus import corpus_groups
from regula.exprs import group_from_text
from regula.numtheory import prime_factors
from regula.radicals import certify_core, certify_fitting, core, fitting, structure_summary


SMALL_CORPUS = [
    ("S(4)", symmetric(4)),
    ("S(5)", symmetric(5)),
    ("A(4)", alternating(4)),
    ("A(5)", alternating(5)),
    ("D(4)", dihedral(4)),
    ("D(6)", dihedral(6)),
    ("C(12)", cyclic(12)),
    ("AGL1(5)", affine_semilinear(5, False)),
    ("AGammaL1(4)", affine_semilinear(4, True)),
    ("wr(C2,S3)", wreath(cyclic(2), symmetric(3))),
]


def certified_core(G, kind, p=None):
    N = core(G, kind, p)
    certify_core(G, N, kind, p)
    return N


def certified_fitting(G):
    F = fitting(G)
    certify_fitting(G, F)
    return F


class TestCoreExamples:
    def test_s4_two_core(self):
        assert certified_core(symmetric(4), "p-core", 2).order == 4

    def test_s5_radical_trivial(self):
        assert certified_core(symmetric(5), "solvable-radical").is_trivial

    def test_agl15(self):
        G = affine_semilinear(5, False)
        assert certified_core(G, "p-core", 5).order == 5
        assert certified_core(G, "solvable-radical").order == 20

    def test_p_prime_core(self):
        G = affine_semilinear(5, False)
        assert certified_core(G, "p-prime-core", 2).order == 5
        assert certified_core(symmetric(4), "p-prime-core", 3).order == 4

    def test_requires_prime(self):
        # the second check validates kind and p as the core itself does
        G = symmetric(4)
        N = core(G, "p-core", 2)
        for kind, p in (("p-core", None), ("p-prime-core", None), ("p-core", 6),
                        ("nilradical", None)):
            with pytest.raises(RegulaError, match="needs a prime p|unknown core kind"):
                core(G, kind, p)
            with pytest.raises(RegulaError, match="needs a prime p|unknown core kind"):
                certify_core(G, N, kind, p)


class TestResidualCases:
    """Radicals where the solvable residual D is not simple, or R(D) != 1."""

    @pytest.mark.parametrize("expr,radical,residual,residual_radical", [
        ("wr(C(2), A(5))", 32, 960, 16),
        ("wr(A(5), C(2))", 1, 3600, 1),
        ("x(wr(C(2), A(5)), S(4))", 768, 960, 16),
    ])
    def test_radical_and_residual(self, expr, radical, residual, residual_radical):
        G = group_from_text(expr)
        D = G.derived_series()[-1]
        assert D.order == residual
        assert certified_core(D, "solvable-radical").order == residual_radical
        assert certified_core(G, "solvable-radical").order == radical

    def test_wreath_against_oracle(self):
        G = group_from_text("wr(C(2), A(5))")
        assert core(G, "solvable-radical").order == \
            oracles.core_orders(G)["solvable-radical"] == 32

    def test_solvable_group_is_its_radical(self):
        G = symmetric(4)
        assert core(G, "solvable-radical") is G


class TestRadicalClosures:
    """R & D = 1 is read off the memoised p-cores, so the radical then
    builds one closure: R itself."""

    @staticmethod
    def radical_and_closures(expr, monkeypatch):
        """The radical's order and the closures it builds, from a fresh group
        with its derived series and p-cores memoised."""
        G = PermGroup(group_from_text(expr).generators)  # not the shared, memoised group
        G.derived_series()
        for p in prime_factors(G.order):
            core(G, "p-core", p)
        built = []
        closure = PermGroup._closure
        monkeypatch.setattr(PermGroup, "_closure",
                            lambda self, tuples: built.append(1) or closure(self, tuples))
        return core(G, "solvable-radical").order, len(built)

    @pytest.mark.parametrize("expr,radical", [("x(C(12), S(5))", 12), ("PSL2(7)", 1)])
    def test_one_closure_when_r_meets_d_trivially(self, expr, radical, monkeypatch):
        assert self.radical_and_closures(expr, monkeypatch) == (radical, 1)

    def test_closures_of_d_order_are_not_tested(self, monkeypatch):
        # R & D has order 16 here; a closure equal to the perfect D is refused
        # by its order, so the join builds 12 closures, not 21
        assert self.radical_and_closures("wr(C(2), A(5))", monkeypatch) == (32, 12)

    def test_every_corpus_radical_is_certified(self):
        for expr, G in corpus_groups():
            certify_core(G, core(G, "solvable-radical"), "solvable-radical")


class TestCapBeforeMemo:
    def test_memoised_cores_refused_under_smaller_cap(self, monkeypatch):
        G = symmetric(5)
        assert structure_summary(G)["solvable_radical"] == 1
        monkeypatch.setattr(perm_core, "ELEMENT_CAP", 100)
        for call in (lambda: core(G, "p-core", 2), lambda: core(G, "solvable-radical"),
                     lambda: fitting(G), lambda: structure_summary(G)):
            with pytest.raises(CapExceeded, match="order 120 exceeds the element cap 100"):
                call()

    def test_solvable_shortcut_refused(self, monkeypatch):
        # the D = 1 shortcut needs no class table, and is refused all the same
        monkeypatch.setattr(perm_core, "ELEMENT_CAP", 10)
        with pytest.raises(CapExceeded, match="order 24 exceeds the element cap 10"):
            core(symmetric(4), "solvable-radical")


class TestFittingExamples:
    def test_s4(self):
        assert certified_fitting(symmetric(4)).order == 4

    def test_a5_trivial(self):
        assert certified_fitting(alternating(5)).is_trivial

    def test_c12_whole(self):
        assert certified_fitting(cyclic(12)).order == 12


class TestOracleEquivalence:
    @pytest.mark.parametrize("name,G", SMALL_CORPUS, ids=[n for n, _ in SMALL_CORPUS])
    def test_cores_match_brute_force(self, name, G):
        want = oracles.core_orders(G)
        for p in prime_factors(G.order):
            assert core(G, "p-core", p).order == want[("p-core", p)]
            assert core(G, "p-prime-core", p).order == want[("p-prime-core", p)]
        assert core(G, "solvable-radical").order == want["solvable-radical"]

    @pytest.mark.parametrize("name,G", SMALL_CORPUS, ids=[n for n, _ in SMALL_CORPUS])
    def test_fitting_matches_brute_force(self, name, G):
        assert fitting(G).order == oracles.core_orders(G)["fitting"]


class TestMaximality:
    @pytest.mark.parametrize("name,G", SMALL_CORPUS, ids=[n for n, _ in SMALL_CORPUS])
    def test_quotient_cores_trivial(self, name, G):
        for p in prime_factors(G.order):
            certify_core(G, core(G, "p-core", p), "p-core", p)
        certify_core(G, core(G, "solvable-radical"), "solvable-radical")

    def test_second_checks_reject_wrong_subgroups(self):
        G = symmetric(4)
        trivial = PermGroup([], degree=4)
        transposition = PermGroup([Permutation.parse("(1,2)", 4)])
        with pytest.raises(RegulaError, match="not normal"):
            certify_core(G, transposition, "p-core", 2)
        with pytest.raises(RegulaError, match="defining property"):
            certify_core(G, alternating(4), "p-core", 2)
        with pytest.raises(RegulaError, match="not maximal"):
            certify_core(G, trivial, "p-core", 2)
        with pytest.raises(RegulaError, match="not normal"):
            certify_fitting(G, transposition)
        with pytest.raises(RegulaError, match="not nilpotent"):
            certify_fitting(G, G)
        with pytest.raises(RegulaError, match="misses a p-core"):
            certify_fitting(G, trivial)

    def test_fitting_contains_p_cores(self):
        for name, G in SMALL_CORPUS:
            F = fitting(G)
            for p in prime_factors(G.order):
                assert F.contains_subgroup(core(G, "p-core", p))


class TestSummary:
    def test_s4_summary(self):
        s = structure_summary(symmetric(4))
        assert s["order"] == 24
        assert s["p_cores"] == {"2": 4, "3": 1}
        assert s["solvable_radical"] == 24
        assert s["fitting"] == 4
        assert s["derived_length"] == 3

    # the outputs the structure-mixed benchmark gates, as perfbench/expected.json records them
    @pytest.mark.parametrize("expr,summary", [
        ("x(C(12), S(5))", {"degree": 17, "derived_length": None, "fitting": 12, "order": 1440,
                            "p_cores": {"2": 4, "3": 3, "5": 1}, "solvable_radical": 12}),
        ("x(D(6), S(5))", {"degree": 11, "derived_length": None, "fitting": 6, "order": 1440,
                           "p_cores": {"2": 2, "3": 3, "5": 1}, "solvable_radical": 12}),
        ("x(S(4), S(5))", {"degree": 9, "derived_length": None, "fitting": 4, "order": 2880,
                           "p_cores": {"2": 4, "3": 1, "5": 1}, "solvable_radical": 24}),
        ("x(x(S(3), S(3)), S(5))", {"degree": 11, "derived_length": None, "fitting": 9,
                                    "order": 4320, "p_cores": {"2": 1, "3": 9, "5": 1},
                                    "solvable_radical": 36}),
        ("x(S(4), PSL2(7))", {"degree": 12, "derived_length": None, "fitting": 4, "order": 4032,
                              "p_cores": {"2": 4, "3": 1, "7": 1}, "solvable_radical": 24}),
        ("x(S(5), AGL1(5))", {"degree": 10, "derived_length": None, "fitting": 5, "order": 2400,
                              "p_cores": {"2": 1, "3": 1, "5": 5}, "solvable_radical": 20}),
    ])
    def test_structure_mixed_summaries(self, expr, summary):
        assert structure_summary(group_from_text(expr)) == summary

    def test_a5_summary(self):
        s = structure_summary(alternating(5))
        assert s["solvable_radical"] == 1
        assert s["fitting"] == 1
        assert s["derived_length"] is None
