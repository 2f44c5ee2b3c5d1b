from inspect import signature

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regula import ExprParseError, PermGroup, RegulaError
from regula.classes import conjugacy_classes
from regula.exprs import (
    _FAMILIES,
    _MAX_NESTING,
    _NAMED,
    _bind,
    evaluate,
    group_from_text,
    parse_group_expr,
)
from regula.radicals import structure_summary

FAMILY_PARAMS = {head: tuple(signature(build).parameters) for head, build in _FAMILIES.items()}


class TestParsing:
    @pytest.mark.parametrize("text", [
        "A(5)", "S(7)", "C(12)", "D(4)",
        "AGL1(5)", "AGammaL1(4)", "GLQ(l=2, q=3)", "SYL2(3)",
        "PSL2(7)", "PGL2(9)", "PGammaL2(8)", "PSL3(3)",
        "x(S(5), AGL1(5))", "wr(C(2), S(3))", "q(S(4), A(4))",
        "M11", "M12.2", "L34.2^2", "U33.2", "Sz8", "M10",
    ])
    def test_round_trip(self, text):
        expr = parse_group_expr(text)
        assert parse_group_expr(str(expr)) == expr

    def test_equal_and_hashed_by_head_and_args(self):
        texts = ["GLQ(2, 3)", "GLQ(l=2, q=3)", "GLQ(q=3, l=2)", "x(A(5), C(2))", "x(C(2), A(5))",
                 "M11"]
        for t in texts:
            for u in texts:
                assert (parse_group_expr(t) == parse_group_expr(u)) == (t == u)
            assert hash(parse_group_expr(t)) == hash(parse_group_expr(t))
        expr = parse_group_expr("C(2)")
        assert repr(expr) == "GroupExpr(head='C', args=(2,))"
        assert not isinstance(expr, tuple) and expr != ("C", (2,))

    def test_positional_and_keyword_glq_agree(self):
        assert str(parse_group_expr("GLQ(2, 3)")) == "GLQ(2, 3)"
        a = evaluate(parse_group_expr("GLQ(2, 3)"))
        b = evaluate(parse_group_expr("GLQ(l=2, q=3)"))
        assert a.order == b.order == 10368

    def test_error_position_and_expected(self):
        with pytest.raises(ExprParseError) as exc:
            parse_group_expr("A(")
        assert exc.value.position == 2

        with pytest.raises(ExprParseError) as exc:
            parse_group_expr("Zoo(3)")
        assert "atlas-name" in exc.value.expected

        with pytest.raises(ExprParseError):
            parse_group_expr("A(5) extra")

        with pytest.raises(ExprParseError):
            parse_group_expr("x(A(5))")

        with pytest.raises(ExprParseError):
            parse_group_expr("")


class TestEvaluation:
    def test_examples(self):
        assert group_from_text("A(5)").order == 60
        assert group_from_text("x(S(5), AGL1(5))").order == 2400
        assert group_from_text("GLQ(l=2, q=3)").order == 10368
        assert group_from_text("q(S(4), A(4))").order == 2
        assert group_from_text("wr(C(2), C(2))").order == 8
        assert group_from_text("M10").order == 720

    def test_deep_nesting(self):
        def chain(depth):
            return "x(C(1), " * depth + "C(1)" + ")" * depth
        assert group_from_text(chain(100)).degree == 101
        expr = parse_group_expr(chain(_MAX_NESTING))
        assert parse_group_expr(str(expr)) == expr
        assert evaluate(expr).degree == _MAX_NESTING + 1
        with pytest.raises(ExprParseError, match="nesting deeper than"):
            parse_group_expr(chain(_MAX_NESTING + 1))

    def test_memoised(self):
        assert group_from_text("A(5)") is group_from_text("A(5)")

    def test_atlas_names(self):
        assert group_from_text("M11").order == 7920
        assert group_from_text("L34.2^2").order == 80640


class TestBinder:
    """The argument checks, run over every family head in the table."""

    @staticmethod
    def message(text):
        with pytest.raises(ExprParseError) as exc:
            group_from_text(text)
        return str(exc.value)

    def test_table(self):
        assert len(_FAMILIES) == 12
        assert set(_NAMED) == {"M11", "M12", "M12.2", "L34", "L34.2_1", "L34.2_2",
                               "L34.2_3", "L34.2^2", "U33", "U33.2", "Sz8", "M10"}

    @pytest.mark.parametrize("head", sorted(FAMILY_PARAMS))
    def test_messages(self, head):
        names = FAMILY_PARAMS[head]
        ones = ", ".join("1" for _ in names)
        assert f"{head} needs {len(names)} argument(s)" in self.message(f"{head}()")
        assert f"{head} needs {len(names)} argument(s)" in self.message(f"{head}({ones}, 1)")
        assert f"{head} has no argument zz=" in self.message(f"{head}(zz=1)")
        if len(names) == 1:
            # a one-parameter family takes no keys, not even its own name
            assert f"{head} has no argument {names[0]}=" in self.message(f"{head}({names[0]}=1)")
            return
        keyed = ", ".join(f"{n}=1" for n in names)
        assert f"{head} has argument {names[0]}= more than once" in \
            self.message(f"{head}({keyed}, {names[0]}=2)")
        assert "extra argument 7" in self.message(f"{head}({keyed}, 7)")
        assert f"missing {names[-1]}" in self.message(f"{head}({names[0]}=1)")

    @pytest.mark.parametrize("head", sorted(h for h, n in FAMILY_PARAMS.items() if len(n) > 1))
    def test_keys_in_any_order(self, head):
        names = FAMILY_PARAMS[head]
        values = list(range(2, 2 + len(names)))
        keyed = ", ".join(f"{n}={v}" for n, v in reversed(list(zip(names, values))))
        assert _bind(parse_group_expr(f"{head}({keyed})"), names) == values
        positional = ", ".join(map(str, values))
        assert _bind(parse_group_expr(f"{head}({positional})"), names) == values


def _family_call(head):
    names = FAMILY_PARAMS[head]
    values = st.lists(st.integers(0, 20), min_size=len(names), max_size=len(names))
    if len(names) == 1:
        return values.map(lambda vs: f"{head}({vs[0]})")
    return st.tuples(values, st.booleans()).map(
        lambda t: f"{head}({', '.join(f'{n}={v}' if t[1] else str(v) for n, v in zip(names, t[0]))})")


LEAVES = st.one_of(st.sampled_from(sorted(_NAMED)),
                   *(_family_call(head) for head in sorted(_FAMILIES)))
EXPRESSIONS = st.recursive(
    LEAVES,
    lambda sub: st.tuples(st.sampled_from(("x", "wr", "q")), sub, sub).map(
        lambda t: f"{t[0]}({t[1]}, {t[2]})"),
    max_leaves=3)


class TestGrammarFuzz:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(EXPRESSIONS)
    def test_group_or_regula_error(self, text):
        # every expression the grammar admits is a group or one RegulaError
        expr = parse_group_expr(text)
        assert parse_group_expr(str(expr)) == expr
        try:
            G = evaluate(expr)
        except RegulaError:
            return
        assert isinstance(G, PermGroup)
        if G.order <= 5000:
            assert sum(c.class_size for c in conjugacy_classes(G).classes) == G.order
            assert structure_summary(G)["order"] == G.order
