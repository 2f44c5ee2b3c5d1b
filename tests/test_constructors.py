import pytest

import oracles
from regula import CapExceeded, PermGroup, Permutation, RegulaError, constructors
from regula.classes import class_counts, conjugacy_classes
from regula.constructors import (
    _frobenius_line_perm,
    _mobius_perm,
    affine_semilinear,
    alternating,
    cyclic,
    dihedral,
    direct_product,
    glq_family,
    m10,
    projective_group,
    psl3,
    symmetric,
    sylow2_sym2l,
    wreath,
)
from regula.ffield import make_field
from regula.numtheory import factorize

BIG_SEMIPRIME = 210000000000000000000000009007400000000000000000000014337989  # 60 digits


class TestBaseGroups:
    def test_orders(self):
        assert symmetric(5).order == 120
        assert alternating(6).order == 360
        assert cyclic(7).order == 7
        assert dihedral(4).order == 8

    def test_dihedral_nilpotent(self):
        assert dihedral(4).lower_central_series()[-1].is_trivial

    def test_small_cases(self):
        assert symmetric(1).order == 1
        assert alternating(2).order == 1
        assert alternating(3).order == 3
        assert dihedral(1).order == 2
        assert dihedral(2).order == 4
        C1 = cyclic(1)
        assert (C1.order, C1.degree, C1.generators) == (1, 1, ())

    def test_caps(self):
        with pytest.raises(CapExceeded):
            symmetric(50)


class TestProducts:
    def test_direct_product_orders(self):
        G = direct_product(alternating(5), alternating(5))
        assert G.order == 3600
        assert G.degree == 10

    def test_product_with_trivial(self):
        from regula.perm_core import PermGroup
        G = direct_product(symmetric(4), PermGroup([], degree=1))
        assert G.order == 24
        assert class_counts(G, 2) == class_counts(symmetric(4), 2)

    def test_class_count_multiplies(self):
        for A, B in ((symmetric(3), cyclic(4)), (alternating(4), symmetric(3)),
                     (wreath(cyclic(2), cyclic(2)), symmetric(3))):
            k = conjugacy_classes(direct_product(A, B)).k_total
            assert k == conjugacy_classes(A).k_total * conjugacy_classes(B).k_total

    def test_a5_squared_regular_classes(self):
        G = direct_product(alternating(5), alternating(5))
        assert class_counts(G, 2).k_regular == 16  # 4 * 4 pairs of odd classes

    def test_s5_times_agl15(self):
        G = direct_product(symmetric(5), affine_semilinear(5, False))
        assert class_counts(G, 2).k_regular == 6


class TestWreath:
    def test_c2_wr_c2_is_dihedral(self):
        W = wreath(cyclic(2), cyclic(2))
        assert W.order == 8
        assert conjugacy_classes(W).class_size_multiset() == (1, 1, 2, 2, 2)

    def test_orders(self):
        assert wreath(cyclic(4), cyclic(2)).order == 32
        assert wreath(cyclic(2), symmetric(3)).order == 48

    def test_order_vs_brute_force(self):
        W = wreath(symmetric(3), cyclic(2))
        assert W.order == 72
        assert W.order == len(oracles.elements_of(W))

    def test_intransitive_top(self):
        from regula.perm_core import PermGroup, Permutation
        # top group fixing a block still yields the full base power
        P2 = PermGroup([Permutation.parse("(1,2)", 3)])
        W = wreath(cyclic(3), P2)
        assert W.order == 3 ** 3 * 2
        # a trivial top group of degree 2 is intransitive too
        assert wreath(cyclic(3), PermGroup([], degree=2)).order == 3 ** 2

    def test_sylow2_tower(self):
        assert sylow2_sym2l(1).order == 2
        assert sylow2_sym2l(2).order == 8
        assert sylow2_sym2l(3).order == 128
        W = sylow2_sym2l(2)
        assert len(W._levels[0].transversal) == 4  # transitive on 4 points
        with pytest.raises(CapExceeded):
            sylow2_sym2l(4)


class TestAffine:
    def test_agl15(self):
        G = affine_semilinear(5, False)
        assert G.order == 20
        assert class_counts(G, 2).k_regular == 2

    def test_agl1_17(self):
        G = affine_semilinear(17, False)
        assert G.order == 272
        assert class_counts(G, 2).k_regular == 2

    def test_agammal14_is_s4(self):
        G = affine_semilinear(4, True)
        assert G.order == 24
        assert conjugacy_classes(G).class_size_multiset() == \
            conjugacy_classes(symmetric(4)).class_size_multiset()

    def test_galois_factor(self):
        assert affine_semilinear(9, False).order == 72
        assert affine_semilinear(9, True).order == 144

    def test_composite_rejected(self):
        for q in (0, 1, 6):
            with pytest.raises(RegulaError, match=f"prime power, got {q}"):
                affine_semilinear(q, False)

    def test_cap_before_factorising(self):
        with pytest.raises(CapExceeded):
            affine_semilinear(BIG_SEMIPRIME, True)


class TestGlqFamily:
    def test_l1_q3(self):
        G = glq_family(1, 3)
        assert G.order == 72
        assert class_counts(G, 2).k_regular == 3

    def test_l1_q5(self):
        G = glq_family(1, 5)
        assert G.order == 800
        assert class_counts(G, 2).k_regular == 3

    def test_l2_q3_order(self):
        assert glq_family(2, 3).order == 10368

    def test_l2_q3_regular_count_by_direct_enumeration(self):
        # the odd-order elements are the 81 translations; their classes
        # are the orbits of the monomial group on the vectors
        G = glq_family(2, 3)
        counts = class_counts(G, 2)
        odd = [c for c in conjugacy_classes(G).classes if c.element_order % 2 == 1]
        assert sum(c.class_size for c in odd) == 81
        assert counts.k_regular == len(odd) == 6

    def test_even_q_rejected(self):
        with pytest.raises(RegulaError):
            glq_family(1, 4)

    def test_caps_before_factorising(self):
        with pytest.raises(CapExceeded):
            glq_family(1, BIG_SEMIPRIME)
        with pytest.raises(CapExceeded):
            glq_family(10 ** 20, 3)     # 2^l points per coordinate is never built


class TestProjective:
    def test_psl2_orders(self):
        for q in (4, 5, 7, 8, 9, 11, 13, 16):
            G = projective_group("psl2", q)
            d = 2 if q % 2 else 1
            assert G.order == q * (q * q - 1) // d
            assert G.degree == q + 1

    def test_pgl2_and_pgammal2(self):
        assert projective_group("pgl2", 9).order == 720
        assert projective_group("pgammal2", 9).order == 1440
        assert projective_group("pgammal2", 8).order == 1512

    def test_psl2_inside_pgammal2(self):
        big = projective_group("pgammal2", 9)
        assert big.contains_subgroup(projective_group("psl2", 9))
        assert big.contains_subgroup(projective_group("pgl2", 9))

    def test_psl24_is_a5(self):
        G = projective_group("psl2", 4)
        assert G.order == 60
        assert conjugacy_classes(G).class_size_multiset() == \
            conjugacy_classes(alternating(5)).class_size_multiset()

    def test_psl24_unique_even_class(self):
        assert class_counts(projective_group("psl2", 4), 2).k_singular == 1

    def test_pgammal28_regular_count(self):
        assert class_counts(projective_group("pgammal2", 8), 3).k_regular == 3

    def test_psl33(self):
        G = psl3(3)
        assert G.order == 5616
        assert G.degree == 13
        assert conjugacy_classes(G).p_power_class_count(3) == 3

    def test_faithful(self):
        # only the identity fixes every point: the stabilizer-chain order
        # equals the claimed order, so the action is faithful by construction
        G = projective_group("psl2", 9)
        assert all(not g.is_identity for g in G.generators)

    def test_caps(self):
        with pytest.raises(CapExceeded):
            projective_group("psl2", 19)
        with pytest.raises(CapExceeded):
            psl3(4)
        with pytest.raises(RegulaError):
            projective_group("psl2", 6)
        with pytest.raises(CapExceeded):
            projective_group("psl2", BIG_SEMIPRIME)


class TestA6Extensions:
    # the three groups between PSL2(9) and PGammaL2(9): PSL2(9) extended by
    # the diagonal, the field, or the diagonal times field automorphism
    def extensions(self):
        F = make_field(3, 2)
        delta = _mobius_perm(F, F[2][1], 0, 0, 1)
        phi = _frobenius_line_perm(F)
        N = projective_group("psl2", 9)
        return [PermGroup(list(N.generators) + [x]) for x in (delta, phi, delta * phi)]

    def fingerprints(self):
        return [conjugacy_classes(H).class_size_multiset() for H in self.extensions()]

    def test_three_distinct_extensions(self):
        big = projective_group("pgammal2", 9)
        assert all(H.order == 720 and big.contains_subgroup(H) for H in self.extensions())
        prints = self.fingerprints()
        assert len(prints) == len(set(prints)) == 3

    def test_s6_label(self):
        assert conjugacy_classes(symmetric(6)).class_size_multiset() in self.fingerprints()

    def test_pgl29_label(self):
        pgl = projective_group("pgl2", 9)
        assert conjugacy_classes(pgl).class_size_multiset() in self.fingerprints()

    def test_m10(self):
        G = m10()
        assert G.order == 720
        assert G.contains_subgroup(projective_group("psl2", 9))
        assert projective_group("pgammal2", 9).contains_subgroup(G)
        assert class_counts(G, 2).k_regular == 3
        assert len({conjugacy_classes(H).class_size_multiset()
                    for H in (G, symmetric(6), projective_group("pgl2", 9))}) == 3

    def test_m10_needs_one_match(self, monkeypatch):
        # without the field automorphism the extension is PGL2(9): order 720
        # but four 2-regular classes, so the certificate refuses it
        monkeypatch.setattr(constructors, "_frobenius_line_perm",
                            lambda F: Permutation(range(len(F[3]) + 1)))
        with pytest.raises(RegulaError, match="M10 certificate"):
            m10()


def test_field_constructors_pinned():
    # every constructor over GF(q) keeps its generators, image for image,
    # over a range wider than the corpus
    prime_powers = [q for q in range(2, 65) if len(factorize(q)) == 1]
    builds = (
        [(f"affine_semilinear({q}, {g})", lambda q=q, g=g: affine_semilinear(q, g))
         for q in prime_powers + [257] for g in (False, True)]
        + [(f"projective_group({kind!r}, {q})", lambda kind=kind, q=q: projective_group(kind, q))
           for kind in ("psl2", "pgl2", "pgammal2") for q in prime_powers if q <= 17]
        + [(f"glq_family(1, {q})", lambda q=q: glq_family(1, q))
           for q in prime_powers if q % 2 and q <= 11]
        + [("glq_family(2, 3)", lambda: glq_family(2, 3)), ("psl3(3)", lambda: psl3(3)),
           ("m10()", m10)])
    assert len(builds) == 97
    docs = ([name, [list(g.images) for g in build().generators]] for name, build in builds)
    assert oracles.json_digest(docs) == \
        "88e491170d6516d10866481d137351e84348e0ff28739e050f883876189a5978"
