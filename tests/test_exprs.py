import pytest

from regula import ExprParseError
from regula.exprs import _MAX_NESTING, evaluate, group_from_text, parse_group_expr


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
