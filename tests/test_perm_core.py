import string

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.combinatorics import Permutation as SymPerm
from sympy.combinatorics import PermutationGroup as SymGroup

import oracles
from regula import CapExceeded, DegreeMismatch, NotInGroup, NotNormal, PermGroup, Permutation, RegulaError
from regula import perm_core
from regula.classes import conjugacy_classes
from regula.constructors import alternating, cyclic, dihedral, projective_group, symmetric
from regula.corpus import corpus_groups
from regula.exprs import group_from_text
from regula.numtheory import is_p_power, prime_factors
from regula.radicals import core, fitting


def P(text, degree=None):
    return Permutation.parse(text, degree)


def same_degree(k):
    # k permutations of one degree in 1..8; degree 1 is the one-index itemgetter case
    return st.integers(1, 8).flatmap(lambda n: st.tuples(*[st.permutations(list(range(n)))] * k))


class TestPermutation:
    def test_identity_compose(self):
        e = Permutation(range(3))
        assert (e * e) == e

    def test_involution_squares_to_identity(self):
        t = P("(1,2)")
        assert (t * t).is_identity

    def test_three_cycle_squared(self):
        c = P("(1,2,3)")
        assert (c * c) == P("(1,3,2)")
        assert c.images == (1, 2, 0)
        assert (c * c).images == (2, 0, 1)

    def test_inverse(self):
        g = P("(1,2,3)(4,5)")
        assert (g * g.inverse()).is_identity
        assert (g.inverse() * g).is_identity

    def test_immutable(self):
        g = P("(1,2,3)")
        with pytest.raises(AttributeError):
            g.images = (0, 1, 2)
        with pytest.raises(AttributeError):
            g.label = "c"
        assert g.images == (1, 2, 0)
        assert not hasattr(g, "label")

    def test_rendering_one_based(self):
        assert str(P("(1,2,3)(4,5)")) == "(1,2,3)(4,5)"
        assert str(Permutation(range(4))) == "()"

    def test_parse_round_trip(self):
        for text in ["(1,2,3)(4,5)", "()", "(2,7)(3,5,4)"]:
            g = P(text, 8)
            assert P(str(g), 8) == g

    def test_parse_identity_needs_degree(self):
        assert P("()", 4).is_identity
        with pytest.raises(RegulaError):
            P("()")

    def test_parse_rejects_garbage(self):
        with pytest.raises(RegulaError):
            P("(1,2")
        with pytest.raises(RegulaError):
            P("(0,1)")
        with pytest.raises(RegulaError):
            P("(1,2)(2,3)")

    def test_not_a_permutation(self):
        with pytest.raises(RegulaError):
            Permutation([0, 0, 1])

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatch):
            P("(1,2)") * P("(1,2,3)")

    def test_order(self):
        assert P("(1,2,3)(4,5)").order() == 6
        assert Permutation(range(5)).order() == 1

    @given(same_degree(2))
    def test_compose_matches_oracle(self, ab):
        a, b = ab
        pa, pb = Permutation(a), Permutation(b)
        assert (pa * pb).images == oracles.mult(tuple(a), tuple(b))
        assert type(pa * pb) is Permutation

    @given(same_degree(1))
    def test_inverse_matches_oracle(self, a):
        (a,) = a
        assert Permutation(a).inverse().images == oracles.inv(tuple(a))
        assert type(Permutation(a).inverse()) is Permutation

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(0, 60).flatmap(lambda n: st.permutations(list(range(n)))))
    def test_order_and_cycle_string_against_oracle(self, images):
        # n is the least k >= 1 with p^k = 1 exactly when p^n = 1 and
        # p^(n/q) != 1 for every prime q dividing n
        p = Permutation(images)
        ident = tuple(range(len(p)))
        n = p.order()
        assert oracles.power(p, n) == ident
        assert all(oracles.power(p, n // q) != ident for q in sympy.primefactors(n))
        if len(p):
            assert Permutation.parse(p.cycle_string(), len(p)) == p

    @given(same_degree(3))
    def test_associativity(self, abc):
        pa, pb, pc = map(Permutation, abc)
        assert ((pa * pb) * pc) == (pa * (pb * pc))


class TestOneFormat:
    """A permutation is its validated image tuple, and a group takes either."""

    def test_a_permutation_is_its_tuple(self):
        g, t = P("(1,2,3)(4,5)"), (1, 2, 0, 4, 3)
        assert isinstance(g, tuple) and type(g) is Permutation
        assert g == t and t == g and hash(g) == hash(t)
        assert {t: "found"}[g] == "found"
        assert g.images is g
        assert len(g) == 5

    def test_contains_takes_a_tuple(self):
        A4 = alternating(4)
        assert A4.contains((1, 2, 0, 3)) and (1, 2, 0, 3) in A4
        assert not A4.contains((1, 0, 2, 3)) and (1, 0, 2, 3) not in A4
        # with no chain levels the residue is the element itself
        assert PermGroup([], degree=3).contains([0, 1, 2])
        for t in ((1, 0, 2), (0, 1, 2, 3, 4)):
            with pytest.raises(DegreeMismatch, match=f"^element degree {len(t)}, group degree 4$"):
                A4.contains(t)
            with pytest.raises(DegreeMismatch):
                t in A4

    def test_normal_closure_takes_tuples(self):
        S4 = symmetric(4)
        N = S4.normal_closure([(1, 0, 3, 2)])
        assert N.order == 4
        assert N.generators == S4.normal_closure([P("(1,2)(3,4)", 4)]).generators
        with pytest.raises(NotInGroup, match=r"^seed \(1,2\) is not in the group$"):
            alternating(4).normal_closure([(1, 0, 2, 3)])

    def test_grown_generators_are_permutations(self):
        # the commutator subgroup is grown from tuples; its generators
        # still render and expose ``images``
        for G in (symmetric(5), dihedral(6), alternating(6)):
            gens = G.commutator_subgroup().generators
            assert gens and all(type(g) is Permutation and g.images is g for g in gens)
            assert all(P(g.cycle_string(), G.degree) == g for g in gens)

    def test_a_group_takes_image_sequences(self):
        assert PermGroup([(1, 0, 2)], degree=3).order == 2
        G = PermGroup([[1, 2, 0], (1, 0, 2)])
        assert G.order == 6 and G.generators == ((1, 2, 0), (1, 0, 2))
        assert all(type(g) is Permutation and g.images is g for g in G.generators)

    @pytest.mark.parametrize("x", [(1, 7, 0), (0, 0, 0), (-3, 1, 2), (1.0, 0, 2)])
    def test_not_a_permutation_is_refused(self, x):
        S3 = symmetric(3)
        for call in (S3.contains, lambda x: x in S3, lambda x: S3.normal_closure([x])):
            with pytest.raises(RegulaError) as exc:
                call(x)
            assert exc.type is RegulaError and str(exc.value) == f"not a permutation: {x!r}"

    def test_a_wrong_generator_length_is_the_contains_message(self):
        with pytest.raises(DegreeMismatch) as built:
            PermGroup([(1, 0), (1, 0, 2)])
        with pytest.raises(DegreeMismatch) as tested:
            PermGroup([(1, 0)]).contains((1, 0, 2))
        assert str(built.value) == str(tested.value) == "element degree 3, group degree 2"

    @pytest.mark.parametrize("degree", [2.0, "2"])
    def test_a_degree_that_is_not_an_int_is_refused(self, degree):
        with pytest.raises(RegulaError) as exc:
            PermGroup([], degree=degree)
        assert exc.type is RegulaError and str(exc.value) == f"degree {degree!r} is not an integer"

    def test_a_one_shot_first_generator_is_read_once(self):
        G = PermGroup([iter((1, 0))])
        assert G.order == 2 and G.generators == ((1, 0),)

    @pytest.mark.parametrize("call", [
        lambda: Permutation.from_cycles(3, [[0, 5]]),
        lambda: Permutation.from_cycles(3, [[0, 1.0]]),
        lambda: Permutation.from_cycles("3", [[0, 1]]),
        lambda: Permutation.parse("(1,2)", "3"),
        lambda: Permutation((0, 1)) * 5,
        lambda: 5 * Permutation((1, 0)),
        lambda: Permutation((1, 0)) + Permutation((0, 1)),
        lambda: Permutation((1, 0)) + (2,),
        lambda: (2,) + Permutation((1, 0)),
        lambda: 1 + Permutation((1, 0)),
    ], ids=["point-outside", "float-point", "str-degree", "parse-str-degree", "times-int",
            "int-times", "plus-permutation", "plus-tuple", "tuple-plus", "int-plus"])
    def test_a_bad_constructor_argument_is_refused(self, call):
        with pytest.raises(RegulaError):
            call()

    def test_a_list_seed_is_a_tuple_seed(self):
        S4 = symmetric(4)
        N = S4.normal_closure([[1, 0, 3, 2]])
        assert N.generators == S4.normal_closure([(1, 0, 3, 2)]).generators
        # an identity seed, as a list, is no generator
        assert S4.normal_closure([[0, 1, 2, 3]]).generators == ()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3).flatmap(same_degree))
    def test_tuples_build_the_group_permutations_build(self, images):
        tuples = [tuple(t) for t in images]
        G, H = PermGroup(tuples), PermGroup(map(Permutation, tuples))
        assert (G.base, G.fundamental_orbit_lengths(), G.order) == \
            (H.base, H.fundamental_orbit_lengths(), H.order)
        assert [g.images for g in G.generators] == [h.images for h in H.generators]
        assert conjugacy_classes(G).to_json_dict() == conjugacy_classes(H).to_json_dict()


# an element as a short list or tuple of ints and floats, or of a
# permutation's images, or not a sequence at all; a degree of any type
FUZZ_ELEMENT = st.one_of(
    st.one_of(
        st.lists(st.one_of(st.integers(-3, 8), st.integers(), st.floats()), max_size=6),
        st.integers(0, 6).flatmap(lambda n: st.permutations(range(n))),
    ).flatmap(lambda xs: st.sampled_from([xs, tuple(xs)])),
    st.none(), st.integers(),
)
FUZZ_DEGREE = st.one_of(st.none(), st.integers(-3, 8), st.integers(), st.floats(),
                        st.text(alphabet=string.printable, max_size=2), st.booleans())
FUZZ_GROUPS = (symmetric(3), cyclic(5), PermGroup([], degree=1))


def returns_or_refuses(call, *args):
    try:
        call(*args)
    except RegulaError:
        pass


class TestBoundaryFuzz:
    """Each way into a group returns or raises a ``RegulaError``, whatever it is given."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(FUZZ_ELEMENT, max_size=3), FUZZ_DEGREE)
    def test_permgroup(self, gens, degree):
        returns_or_refuses(PermGroup, gens, degree)
        returns_or_refuses(PermGroup, gens)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(FUZZ_ELEMENT, st.sampled_from(FUZZ_GROUPS))
    def test_membership_and_closure(self, x, G):
        returns_or_refuses(G.contains, x)
        returns_or_refuses(lambda: x in G)
        returns_or_refuses(G.normal_closure, [x])


class TestBuildGroup:
    def test_s4_order(self):
        G = PermGroup([P("(1,2)", 4), P("(1,2,3,4)")])
        assert G.order == 24

    def test_a5_order_vs_brute_force(self):
        gens = [P("(1,2,3)", 5), P("(3,4,5)", 5)]
        G = PermGroup(gens)
        assert G.order == len(oracles.closure([g.images for g in gens]))
        assert G.order == 60

    def test_psl27_order_formula(self):
        q = 7
        assert projective_group("psl2", q).order == q * (q * q - 1) // 2 == 168

    def test_empty_generators_need_degree(self):
        with pytest.raises(RegulaError):
            PermGroup([])
        assert PermGroup([], degree=3).order == 1

    def test_generator_degree_mismatch(self):
        with pytest.raises(DegreeMismatch):
            PermGroup([P("(1,2)"), P("(1,2,3)")])

    def test_orbit_product_is_order(self):
        for G in (symmetric(5), alternating(6), dihedral(7), cyclic(12)):
            prod = 1
            for n in G.fundamental_orbit_lengths():
                prod *= n
            assert prod == G.order
            assert all(G.contains(g) for g in G.generators)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.permutations(list(range(6))), min_size=1, max_size=3))
    def test_order_matches_brute_closure(self, images):
        gens = [Permutation(t) for t in images]
        G = PermGroup(gens)
        want = oracles.closure([tuple(t) for t in images])
        assert G.order == max(len(want), 1)
        for t in list(want)[:50]:
            assert G.contains(Permutation(t))


class TestMembershipEnumeration:
    def test_contains(self):
        A4 = alternating(4)
        assert P("(1,2,3)", 4) in A4
        assert P("(1,2)", 4) not in A4

    def test_order_cyclic(self):
        assert cyclic(6).order == 6

    def test_elements_s3(self):
        els = list(symmetric(3).elements())
        assert len(els) == len(set(els)) == 6

    def test_elements_a5_all_members(self):
        A5 = alternating(5)
        els = list(A5.elements())
        assert len(set(els)) == 60
        assert all(A5.contains(e) for e in els)

    def test_elements_cap(self, monkeypatch):
        monkeypatch.setattr(perm_core, "ELEMENT_CAP", 1000)
        with pytest.raises(CapExceeded):
            symmetric(8).elements()    # at the call, before any element is asked for
        assert len(list(symmetric(6).elements())) == 720

    def test_elements_cap_message(self, monkeypatch):
        # the same words as every other element-cap refusal
        monkeypatch.setattr(perm_core, "ELEMENT_CAP", 100)
        with pytest.raises(CapExceeded, match="^order 120 exceeds the element cap 100$"):
            list(symmetric(5).elements())


class TestNormalClosure:
    def test_klein_four_in_s4(self):
        S4 = symmetric(4)
        N = S4.normal_closure([P("(1,2)(3,4)", 4)])
        want = oracles.normal_closure_set(P("(1,2)(3,4)", 4).images, oracles.generator_tuples(S4))
        assert N.order == len(want) == 4

    def test_transposition_generates_s4(self):
        S4 = symmetric(4)
        N = S4.normal_closure([P("(1,2)", 4)])
        want = oracles.normal_closure_set(P("(1,2)", 4).images, oracles.generator_tuples(S4))
        assert N.order == len(want) == 24

    def test_identity_seed(self):
        G = symmetric(4)
        assert G.normal_closure([Permutation(range(4))]).is_trivial

    def test_seed_not_in_group(self):
        with pytest.raises(NotInGroup):
            alternating(4).normal_closure([P("(1,2)", 4)])

    def test_conjugation_invariance(self):
        for G, seed in [(symmetric(4), "(1,2)(3,4)"), (symmetric(5), "(1,2,3)"),
                        (dihedral(6), "(1,2,3,4,5,6)")]:
            N = G.normal_closure([P(seed, G.degree)])
            for g in G.generators:
                for h in N.generators:
                    assert N.contains(g.inverse() * h * g)


@st.composite
def chain_extensions(draw):
    """A start group, tuples to add one at a time, and membership probes."""
    n = draw(st.integers(2, 12))
    perm = st.permutations(list(range(n))).map(tuple)
    start = draw(st.lists(perm, max_size=2))
    extra = draw(st.lists(perm, min_size=1, max_size=4))
    probes = draw(st.lists(perm, max_size=6))
    words = draw(st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=6), max_size=6))
    return n, start, extra, probes, words


def chain_state(G):
    """Each level's whole state in ``oracles.chain_state``'s form, insertion orders included."""
    return [(lvl.point, list(lvl.gens), list(lvl.gen_invs),
             list(lvl.transversal.items()), list(lvl.checked.items())) for lvl in G._levels]


MIXED = ["x(C(12), S(5))", "x(D(6), S(5))", "x(S(4), S(5))", "x(x(S(3), S(3)), S(5))",
         "x(S(4), PSL2(7))", "x(S(5), AGL1(5))"]


def corpus_and_mixed():
    """The 55 corpus groups and the six structure-mixed products, by expression."""
    return corpus_groups() + [(expr, group_from_text(expr)) for expr in MIXED]


def pinned_chains():
    """(label, group) of 362 chains: each of ``corpus_and_mixed()``, its
    commutator subgroup and, for |G| <= 20 000, its p-cores, its solvable
    radical and its Fitting subgroup."""
    for expr, G in corpus_and_mixed():
        yield expr, G
        yield f"{expr}'", G.commutator_subgroup()
        if G.order <= 20_000:
            for p in prime_factors(G.order):
                yield f"O_{p}({expr})", core(G, "p-core", p)
            yield f"R({expr})", core(G, "solvable-radical")
            yield f"F({expr})", fitting(G)


class TestChainExtension:
    @settings(max_examples=200, deadline=None)
    @given(chain_extensions())
    def test_matches_build_from_scratch(self, case):
        n, start, extra, probes, words = case
        H = PermGroup([Permutation(t) for t in start], degree=n)._grown_by(extra)
        ref = PermGroup([Permutation(t) for t in start + extra], degree=n)
        # a member is not added: start's generators, then each tuple that the
        # group built from scratch on the generators kept so far lacks
        kept = list(start)
        for t in extra:
            if not PermGroup([Permutation(s) for s in kept], degree=n).contains(t):
                kept.append(t)
        assert H.generators == PermGroup([Permutation(t) for t in kept], degree=n).generators
        assert H.order == ref.order
        gens = ref.generators or (tuple(range(n)),)
        members = []
        for word in words:
            g = tuple(range(n))
            for i in word:
                g = oracles.mult(g, gens[i % len(gens)])
            members.append(g)
        for t in members:
            assert H.contains(t)
        for t in probes:
            assert H.contains(t) == ref.contains(t)
        # inverses built as products are inverses: u * uinv = 1, u maps the
        # base point to its key, and every generator pair is inverse
        ident = tuple(range(n))
        for lvl in H._levels:
            for key, (u, uinv) in lvl.transversal.items():
                assert oracles.mult(u, uinv) == ident and u[lvl.point] == key
            assert lvl.gen_invs == [oracles.inv(g) for g in lvl.gens]
        # the conjugating pairs generate H, each as (t, t^-1); a start group's
        # pairs may be merged, so they need not be H's generators
        pairs = H._gen_pairs
        assert all(ref.contains(t) and oracles.inv(t) == tinv for t, tinv in pairs)
        assert PermGroup([Permutation(t) for t, _ in pairs], degree=n).order == H.order

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(chain_extensions())
    def test_matches_the_eager_reference(self, case):
        # built from scratch, and extended one tuple at a time, the chain is
        # the eager construction's, level for level and in every order
        n, start, extra, _, _ = case
        G = PermGroup([Permutation(t) for t in start + extra], degree=n)
        assert chain_state(G) == oracles.chain_state(oracles.schreier_sims(n, start + extra))
        H = PermGroup([Permutation(t) for t in start], degree=n)._grown_by(extra)
        ref = oracles.grown_by(n, oracles.schreier_sims(n, start), extra)
        assert chain_state(H) == oracles.chain_state(ref)

    @pytest.mark.parametrize("expr, most", [("AGL1(257)", 2411), ("GLQ(l=2, q=3)", 1983),
                                            ("M12.2", 1653)])
    def test_build_product_count(self, monkeypatch, expr, most):
        # an entry is made when first read and a tree edge takes no product;
        # rebuilding every entry eagerly took 5142, 5408 and 2874 products
        G = group_from_text(expr)
        mult, calls = perm_core._mult, [0]

        def counting(a, b):
            calls[0] += 1
            return mult(a, b)

        monkeypatch.setattr(perm_core, "_mult", counting)
        PermGroup(G.generators, degree=G.degree)
        assert calls[0] <= most

    def test_leaves_the_start_group_alone(self):
        # cached groups share chains, so an extension must copy the levels
        A5 = alternating(5)
        closure = symmetric(5).normal_closure([P("(1,2,3)", 5)])
        for G, order in ((A5, 120), (closure, 120), (PermGroup([], degree=5), 2)):
            before = chain_state(G)
            H = G._grown_by([P("(1,2)", 5).images])
            assert H.order == order
            assert chain_state(G) == before

    def test_grown_by_adds_only_non_members(self):
        C5 = cyclic(5)
        c, ident = C5.generators[0], tuple(range(5))
        H = C5._grown_by([c.images, ident, P("(2,5)(3,4)", 5).images,
                          (c * c).images, P("(2,5)(3,4)", 5).images, ident])
        assert H.order == 10
        assert H.generators == C5.generators + (P("(2,5)(3,4)", 5),)

    def test_named_chains_pinned(self):
        # a named group's chain fixes its enumeration order and so its class
        # representatives: base, base points and every (u, uinv) stay as they are
        groups = corpus_and_mixed()
        assert len(groups) == 61
        docs = ([expr, G.base, [[lvl.point, sorted(lvl.transversal.items())] for lvl in G._levels]]
                for expr, G in groups)
        assert oracles.json_digest(docs) == \
            "1ba0d5e321f176c92bc0af14fd5a833a3a768d465d1e5bcdba55ff5bf29430e9"

    def test_full_chain_state_pinned(self):
        # every level's strong generators and inverses in order, its
        # transversal in insertion order (the order a kept extension walks)
        # and its checked counts stay as the eager construction left them
        docs = [[label, G.base, chain_state(G)] for label, G in pinned_chains()]
        assert len(docs) == 362
        assert oracles.json_digest(docs) == \
            "54d418204c27a1bf60a38cb2ba33fd28ee0e80b6d86221a4fe59f5026c762cbd"

    def test_class_text_against_oracle(self):
        # the text a row keeps is its representative's cycle string, checked
        # by a formatter that shares nothing with the package
        for expr, G in corpus_and_mixed():
            for c in conjugacy_classes(G).classes:
                assert c.text == oracles.cycle_text(c.representative.images), expr

    def test_mixed_class_tables_pinned(self):
        # the products conjugate by merged pairs; their tables stay as they were
        docs = ([expr, [[c.element_order, c.class_size, c.representative.cycle_string()]
                        for c in conjugacy_classes(group_from_text(expr)).classes]]
                for expr in MIXED)
        assert oracles.json_digest(docs) == \
            "0556873b5fddb817e35e1dc683b6c79cc57ebe88c53b4012c5c49c543bf401c3"


class TestConjugatingPairs:
    # groups whose _gen_pairs are shorter than their generators, and how long;
    # every other group keeps its length, each two-generator group among them
    SHORTENED = {"x(C(12), S(5))": 2, "x(D(6), S(5))": 3, "x(S(4), S(5))": 3,
                 "x(x(S(3), S(3)), S(5))": 3, "x(S(4), PSL2(7))": 3, "x(S(5), AGL1(5))": 2,
                 "PGammaL2(8)": 4, "PGammaL2(9)": 4, "x(A(5), A(5))": 2, "x(A(5), C(5))": 2}

    def test_pairs_generate_each_group(self):
        seen = set()
        for expr, G in corpus_and_mixed():
            pairs = G._gen_pairs
            assert all(G.contains(t) and oracles.inv(t) == tinv for t, tinv in pairs), expr
            H = PermGroup([Permutation(t) for t, _ in pairs], degree=G.degree)
            assert H.order == G.order, expr
            assert len(pairs) == self.SHORTENED.get(expr, len(G.generators)), expr
            if expr in self.SHORTENED:
                seen.add(expr)
        assert seen == set(self.SHORTENED)

    def test_merge_needs_commuting_and_coprime(self):
        # (1,2) and (3,4,5) merge; (1,2)(3,4) with (3,5,4) does not commute;
        # (1,2) with (3,4) has orders 2 and 2
        for gens, merged in ((["(1,2)", "(3,4,5)"], 1), (["(1,2)(3,4)", "(3,5,4)"], 2),
                             (["(1,2)", "(3,4)"], 2), (["(1,2)", "(3,4,5)", "(6,7)"], 2)):
            G = PermGroup([P(g, 7) for g in gens])
            assert len(G._gen_pairs) == merged, gens
            assert G.generators == tuple(P(g, 7).images for g in gens)


def sympy_group(G):
    """G as a sympy permutation group on the same generators."""
    return SymGroup([SymPerm(list(g.images)) for g in G.generators])


class TestAgainstSympy:
    """Normal-closure and series orders against sympy.combinatorics."""

    @pytest.mark.parametrize("expr", ["S(5)", "AGL1(17)", "x(S(3), S(4))",
                                      "x(S(5), AGL1(5))", "x(A(5), A(5))"])
    def test_closures_and_series(self, expr):
        G = group_from_text(expr)
        S = sympy_group(G)
        assert S.order() == G.order
        for cls in conjugacy_classes(G).classes:
            seed = cls.representative
            want = S.normal_closure(SymPerm(list(seed.images))).order()
            assert G.normal_closure([seed]).order == want, str(seed)
        for ours, theirs in ((G.derived_series(), S.derived_series()),
                             (G.lower_central_series(), S.lower_central_series())):
            orders = [H.order for H in ours]
            if len(orders) > 1 and orders[-1] == orders[-2]:
                orders.pop()  # ours repeats a stable term once
            assert orders == [H.order() for H in theirs]

    def test_solvability_over_corpus(self):
        # the radical is G exactly when sympy finds G solvable
        groups = corpus_groups()
        assert len(groups) == 55
        for expr, G in groups:
            S = sympy_group(G)
            assert S.order() == G.order, expr
            assert (core(G, "solvable-radical").order == G.order) == S.is_solvable, expr

    def test_class_tables_over_corpus(self):
        # k(G) and the class sizes against sympy's own class partition
        checked = 0
        for expr, G in corpus_groups():
            if G.order > 10_000:
                continue
            S = sympy_group(G)
            theirs = sorted(len(c) for c in S.conjugacy_classes())
            table = conjugacy_classes(G)
            assert table.k_total == len(theirs), expr
            assert table.class_size_multiset() == tuple(theirs), expr
            checked += 1
        assert checked == 44


class TestSeries:
    def test_derived_series_s4(self):
        assert [H.order for H in symmetric(4).derived_series()] == [24, 12, 4, 1]

    def test_derived_series_a5_perfect(self):
        assert [H.order for H in alternating(5).derived_series()] == [60, 60]

    def test_derived_subgroup_matches_set_oracle(self):
        for G in (symmetric(4), alternating(4), dihedral(6)):
            got = G.commutator_subgroup().order
            want = len(oracles.derived_subgroup_set(oracles.elements_of(G)))
            assert got == want

    def test_lower_central_series_d4(self):
        series = dihedral(4).lower_central_series()
        assert series[-1].is_trivial

    def test_derived_length(self):
        assert symmetric(4).derived_length() == 3
        assert alternating(5).derived_length() is None
        assert PermGroup([], degree=2).derived_length() == 0


def structure_facts(G, p):
    """(solvable, nilpotent, p-group) read off the two series and the order."""
    return (G.derived_series()[-1].is_trivial,
            G.lower_central_series()[-1].is_trivial,
            is_p_power(G.order, p))


class TestStructureFlags:
    def test_s4(self):
        assert structure_facts(symmetric(4), 2) == (True, False, False)

    def test_c8(self):
        assert structure_facts(cyclic(8), 2) == (True, True, True)

    def test_a5(self):
        assert structure_facts(alternating(5), 2) == (False, False, False)

    def test_consistency_on_small_groups(self):
        for G in (cyclic(6), cyclic(8), symmetric(3), symmetric(4),
                  dihedral(4), dihedral(6), alternating(4)):
            for p in (2, 3):
                solvable, nilpotent, p_group = structure_facts(G, p)
                if nilpotent:
                    assert solvable
                if p_group:
                    assert nilpotent


class TestQuotient:
    def test_s4_mod_klein(self):
        S4 = symmetric(4)
        V = S4.normal_closure([P("(1,2)(3,4)", 4)])
        Q = S4.quotient(V)
        assert Q.order == 6
        a, b = Q.generators[0], Q.generators[1]
        assert a * b != b * a  # S3, not C6

    def test_self_quotient(self):
        G = symmetric(4)
        Q = G.quotient(G)
        assert Q.order == 1 and Q.degree == 1

    def test_c6_mod_c2(self):
        C6 = cyclic(6)
        C2 = C6.normal_closure([P("(1,4)(2,5)(3,6)", 6)])
        assert C6.quotient(C2).order == 3

    def test_multiplicativity(self):
        S5 = symmetric(5)
        A5 = alternating(5)
        Q = S5.quotient(A5)
        assert Q.order * A5.order == S5.order

    def test_not_normal(self):
        S4 = symmetric(4)
        H = PermGroup([P("(1,2)", 4)])
        with pytest.raises(NotNormal):
            S4.quotient(H)

    def test_index_cap(self):
        # the coset action of index 5040 would exceed the degree cap
        S7 = symmetric(7)
        with pytest.raises(CapExceeded, match="index 5040 exceeds the degree cap 2000"):
            S7.quotient(PermGroup([], degree=7))

    def test_coset_walk_of_a_subgroup(self):
        # the walk itself needs no normality: S(4) on the cosets of S(3)
        G = symmetric(4)
        H = PermGroup([P("(1,2)", 4), P("(1,2,3)", 4)])
        assert H.order == 6 and G.contains_subgroup(H)
        reps, images = G._coset_walk(H)
        assert len(reps) == 4 and reps[0] == tuple(range(4))
        action = PermGroup([Permutation(img) for img in images], degree=4)
        assert action.order == 24


class TestCosetCanonical:
    def test_same_coset_same_form(self):
        G = symmetric(5)
        N = alternating(5)
        for g in list(G.elements())[:40]:
            for n in list(N.elements())[:10]:
                assert N._coset_canonical((n * g).images) == \
                    N._coset_canonical(g.images)

    def test_distinct_cosets_distinct_forms(self):
        G = symmetric(4)
        N = G.normal_closure([P("(1,2)(3,4)", 4)])
        forms = {N._coset_canonical(g.images) for g in G.elements()}
        assert len(forms) == G.order // N.order

