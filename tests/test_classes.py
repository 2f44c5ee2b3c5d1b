import json
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from regula import CapExceeded, NotNormal, PermGroup, Permutation, RegulaError
from regula import perm_core
from regula.classes import (
    _partition_into_orbits,
    _RankSplit,
    class_counts,
    conjugacy_classes,
    fused_counts,
    singular_element_count,
)
from regula.constructors import alternating, cyclic, projective_group, symmetric
from regula.corpus import corpus_groups, normal_pairs
from regula.exprs import group_from_text
from regula.numtheory import prime_factors


class TestConjugacyClasses:
    def test_a5_against_brute_force(self):
        A5 = alternating(5)
        table = conjugacy_classes(A5)
        got = sorted((c.element_order, c.class_size) for c in table.classes)
        assert got == oracles.class_table(A5)
        assert table.element_order_multiset() == (1, 2, 3, 5, 5)
        assert table.class_size_multiset() == (1, 12, 12, 15, 20)

    def test_c6_singletons(self):
        table = conjugacy_classes(cyclic(6))
        assert table.k_total == 6
        assert all(c.class_size == 1 for c in table.classes)

    def test_psl27_against_brute_force(self):
        G = projective_group("psl2", 7)
        table = conjugacy_classes(G)
        assert table.element_order_multiset() == (1, 2, 3, 4, 7, 7)
        assert sorted((c.element_order, c.class_size) for c in table.classes) == oracles.class_table(G)

    def test_class_equation_and_centralizers(self):
        for G in (symmetric(4), symmetric(5), alternating(5), cyclic(8),
                  projective_group("psl2", 7)):
            table = conjugacy_classes(G)
            assert sum(c.class_size for c in table.classes) == G.order
            for c in table.classes:
                assert c.class_size * c.centralizer_order == G.order
            ones = [c for c in table.classes if c.element_order == 1]
            assert len(ones) == 1 and ones[0].class_size == 1

    def test_class_order_invariance(self):
        # every member of a class has the representative's order
        G = symmetric(4)
        for c in conjugacy_classes(G).classes:
            for g in G.generators:
                assert (g.inverse() * c.representative * g).order() == c.element_order

    def test_cap(self, monkeypatch):
        monkeypatch.setattr(perm_core, "ELEMENT_CAP", 1000)
        with pytest.raises(CapExceeded, match="exceeds the element cap 1000"):
            conjugacy_classes(symmetric(8))
        # a memoised result never outranks a smaller cap
        G = symmetric(5)
        N = G.commutator_subgroup()
        assert conjugacy_classes(G).k_total == 7
        assert fused_counts(G, N, 2).k_total == 4
        monkeypatch.setattr(perm_core, "ELEMENT_CAP", 10)
        with pytest.raises(CapExceeded):
            conjugacy_classes(G)
        with pytest.raises(CapExceeded):
            fused_counts(G, N, 2)
        # fused counts come from G's class table, so |N| within the cap is not enough
        monkeypatch.setattr(perm_core, "ELEMENT_CAP", N.order)
        with pytest.raises(CapExceeded):
            fused_counts(G, N, 2)

    def test_deterministic(self):
        a = conjugacy_classes(symmetric(5))
        b = conjugacy_classes(PermGroup(list(symmetric(5).generators)))
        assert [str(c.representative) for c in a.classes] == \
               [str(c.representative) for c in b.classes]


class TestRepresentatives:
    """Each orbit is represented by its first member in ``elements()`` order."""

    @staticmethod
    def check(G):
        order = [e.images for e in G.elements()]
        assert set(order) == oracles.elements_of(G)
        rank = {x: i for i, x in enumerate(order)}
        classes = oracles.conj_classes(order, oracles.generator_tuples(G))
        want = sorted(((min(c, key=rank.__getitem__), len(c)) for c in classes),
                      key=lambda pair: rank[pair[0]])
        assert _partition_into_orbits(G) == want
        got = conjugacy_classes(G).classes
        assert sorted((c.representative.images, c.class_size) for c in got) == sorted(want)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 7).flatmap(
        lambda n: st.lists(st.permutations(list(range(n))), min_size=1, max_size=3)))
    def test_random_groups(self, images):
        G = PermGroup([Permutation(t) for t in images])
        self.check(G)

    # (group, head levels, tail levels, rows, most head keys of a generator);
    # Phase 1 groups the rows by head key, so each shape below is one case
    SHAPES = [
        # many rows share one head key, and the tail has several levels
        ("x(C(12), S(5))", 1, 4, 120, 1),
        # a multi-level head: rows on one key, and rows spread over a few
        ("x(x(S(3), S(3)), S(5))", 4, 4, 120, 1),
        ("x(S(4), S(5))", 3, 4, 48, 4),
        # every row has a head key of its own
        ("AGL1(17)", 1, 1, 16, 16),
        # the head covers every level, so the tail is empty
        ("C(12)", 1, 0, 1, 1),
    ]

    @pytest.mark.parametrize("text, head, tail, rows, keys", SHAPES,
                             ids=[shape[0] for shape in SHAPES])
    def test_named_groups(self, text, head, tail, rows, keys):
        G = group_from_text(text)
        split = _RankSplit(G)
        assert (split.j, len(G._levels) - split.j, len(split.stab)) == (head, tail, rows)
        assert keys == max(len({tuple(s[ginv[b]] for b in split.base[:head]) for s in split.stab})
                           for _, ginv in G._gen_pairs)
        self.check(G)

    @pytest.mark.parametrize("text", ["C(300)", "AGL1(17)", "GLQ(l=1, q=5)", "x(C(12), S(5))",
                                      "wr(C(2), S(3))"])
    def test_rows_of_many_class_groups(self, text):
        # representatives are wrapped unchecked, and each row's order and
        # sort key come from one walk: both must still match the permutation
        G = group_from_text(text)
        rows = conjugacy_classes(G).classes
        keys = [(c.element_order, c.class_size, c.representative.cycle_string()) for c in rows]
        assert keys == sorted(keys)
        for c in rows:
            assert c.element_order == c.representative.order()
            assert c.class_size * c.centralizer_order == G.order
            assert type(c.representative) is Permutation and len(c.representative) == G.degree
            assert G.contains(c.representative)

    def test_trivial_group(self):
        G = PermGroup([], degree=3)
        self.check(G)

    def test_fused_s4_over_a4(self):
        G, N = symmetric(4), alternating(4)
        for p in (2, 3):
            assert fused_counts(G, N, p) == oracles.fused_counts(G, N, p)

    def test_corpus_tables_pinned(self):
        # every corpus table, representatives included: a new partition
        # scheme must keep the enumeration-order representatives
        docs = (conjugacy_classes(G).to_json_dict(expr) for expr, G in corpus_groups())
        assert oracles.json_digest(docs) == \
            "1f5845b3ce550845d81399a6e213dad97d8ac069d0e34d85a7ce9a46c8779661"

    @pytest.mark.parametrize("text", ["AGL1(257)", "M12.2", "L34.2^2", "Sz8"])
    def test_partition_peak_memory(self, text):
        # rank maps, stabiliser tuples and one generator's column table:
        # a head block of copied tuples, or one past |G| entries, breaks this
        G = group_from_text(text)
        tracemalloc.start()
        try:
            _partition_into_orbits(G)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 40 * G.order, f"{peak / G.order:.1f} bytes per element"


class TestConjugationMaps:
    @pytest.mark.parametrize("text", ["PSL2(7)", "x(S(4), S(5))", "M11"])
    def test_map_against_element_ranks(self, text):
        # map[r] is the rank of g^-1 * y * g for the r-th element y
        G = group_from_text(text)
        order = [e.images for e in G.elements()]
        rank = {y: r for r, y in enumerate(order)}
        split = _RankSplit(G)
        sample = random.Random(text).sample(range(G.order), min(G.order, 300))
        for gen in G.generators:
            g = gen.images
            ginv = oracles.inv(g)
            conj = split.conjugation_map(g, ginv)
            assert len(conj) == G.order
            for r in sample:
                assert conj[r] == rank[oracles.mult(oracles.mult(ginv, order[r]), g)]


class TestClassCounts:
    def test_a5(self):
        assert class_counts(alternating(5), 2).k_regular == 4
        assert class_counts(alternating(5), 5).k_regular == 3

    def test_psl27_p7(self):
        counts = class_counts(projective_group("psl2", 7), 7)
        assert (counts.k_regular, counts.k_singular) == (4, 2)

    def test_total_is_sum(self):
        for G in (symmetric(5), alternating(6)):
            for p in (2, 3, 5):
                c = class_counts(G, p)
                assert c.k_total == c.k_regular + c.k_singular
                assert c.k_regular >= 1

    def test_prime_required(self):
        with pytest.raises(RegulaError):
            class_counts(cyclic(6), 6)


class TestFusedCounts:
    def test_s5_fuses_a5_five_classes(self):
        fc = fused_counts(symmetric(5), alternating(5), 2)
        assert fc.k_regular == 3

    def test_self_fusion_is_class_counts(self):
        G = alternating(5)
        assert fused_counts(G, G, 2) == class_counts(G, 2)

    def test_fusion_monotone_pgammal29(self):
        big = projective_group("pgammal2", 9)
        soc = projective_group("psl2", 9)
        fused = fused_counts(big, soc, 2).k_regular
        plain = class_counts(soc, 2).k_regular
        assert fused < plain

    def test_requires_normal(self):
        with pytest.raises(NotNormal):
            fused_counts(symmetric(4), PermGroup([Permutation.parse("(1,2)", 4)]), 2)

    def test_fused_orbits_against_brute_force(self):
        S5, A5 = symmetric(5), alternating(5)
        assert fused_counts(S5, A5, 2) == oracles.fused_counts(S5, A5, 2)

    def test_corpus_pairs_against_oracle(self):
        checked = 0
        for gexpr, ndesc, G, N in normal_pairs():
            if N.order > 6048:
                continue
            for p in prime_factors(G.order):
                assert fused_counts(G, N, p) == oracles.fused_counts(G, N, p), (gexpr, ndesc, p)
            checked += 1
        assert checked == 20


class TestSingularElements:
    def test_a5_p5(self):
        assert singular_element_count(alternating(5), 5) == 24

    def test_c6_p7(self):
        assert singular_element_count(cyclic(6), 7) == 0

    def test_psl27_p7(self):
        assert singular_element_count(projective_group("psl2", 7), 7) == 48

    def test_matches_direct_enumeration(self):
        for G, p in ((symmetric(5), 2), (alternating(5), 3)):
            direct = sum(1 for t in oracles.elements_of(G) if oracles.order_of(t) % p == 0)
            assert singular_element_count(G, p) == direct


class TestSerialization:
    def test_json_shape_and_sorting(self):
        doc = conjugacy_classes(alternating(5)).to_json_dict("A(5)")
        assert doc["order"] == 60
        keys = [(c["element_order"], c["class_size"], c["representative"])
                for c in doc["classes"]]
        assert keys == sorted(keys)
        json.dumps(doc)  # serialisable

    def test_byte_identical(self):
        a = json.dumps(conjugacy_classes(symmetric(5)).to_json_dict("S(5)"), sort_keys=True)
        G2 = PermGroup(list(symmetric(5).generators))
        b = json.dumps(conjugacy_classes(G2).to_json_dict("S(5)"), sort_keys=True)
        assert a == b
