"""Expression grammar, parse errors with offsets, and evaluation."""

from fractions import Fraction

import pytest

from qpknot import (
    ExprSyntaxError,
    LaurentPoly,
    Monomial,
    NonMonomialFractionalPowerError,
    NotDivisibleError,
    DivisionByZeroError,
    Family,
    QPSpec,
    canonical_text,
    family_spec,
    eval_expression,
    parse_expression,
    parse_poly,
    qp_number,
)
from qpknot.exprparse import Div, Lit, Mul, Pow, Sub, Var

T = LaurentPoly.var("t")
Q = LaurentPoly.var("q")
P = LaurentPoly.var("p")


class TestParse:
    def test_qp_number_expression(self):
        got = parse_poly("q^3 + q^2*p + q*p^2 + p^3")
        assert got == qp_number(QPSpec(Monomial.var("q"), Monomial.var("p")), 4)

    def test_parenthesized_negative_integer_exponent(self):
        assert parse_poly("(t - t^(-1))") == T - T ** -1

    def test_bare_negative_exponent(self):
        assert parse_poly("t^-1 + a^2*t") == parse_poly("t^(-1) + a^2*t")

    def test_ast_shape(self):
        node = parse_expression("q*p - 2^3")
        assert node == Sub(Mul(Var("q"), Var("p")), Pow(Lit(2), Fraction(3)))

    def test_division_node(self):
        node = parse_expression("(q^2 - p^2)/(q - p)")
        assert isinstance(node, Div)

    def test_fractional_power_on_monomial_base(self):
        half = Fraction(1, 2)
        assert parse_poly("(q*p)^(1/2)") == LaurentPoly(Monomial({"q": half, "p": half}))

    def test_fractional_power_reduces(self):
        assert parse_poly("t^(2/4)") == LaurentPoly.var("t", Fraction(1, 2))


class TestParseErrors:
    def test_non_monomial_fractional_power(self):
        with pytest.raises(NonMonomialFractionalPowerError) as exc:
            parse_expression("(1+t)^(1/2)")
        assert exc.value.offset == 5

    def test_fractional_power_on_integer(self):
        with pytest.raises(NonMonomialFractionalPowerError):
            parse_expression("2^(1/2)")

    def test_syntax_error_offset(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse_expression("t + ")
        assert exc.value.offset == 4

    def test_unexpected_character(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse_expression("t + $")
        assert exc.value.offset == 4

    @pytest.mark.parametrize(
        "src, offset",
        [("t^\u00b2", 2), ("t^(1/\u00b2)", 5), ("t*\u0663", 2), ("\uff11 + t", 0)],
    )
    def test_only_ascii_digits(self, src, offset):
        # superscript two, Arabic-Indic three, fullwidth one: not literals
        with pytest.raises(ExprSyntaxError, match="unexpected character") as exc:
            parse_expression(src)
        assert exc.value.offset == offset

    def test_trailing_input(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse_expression("t t")
        assert exc.value.offset == 2

    def test_empty(self):
        with pytest.raises(ExprSyntaxError):
            parse_expression("   ")

    def test_unbalanced_paren(self):
        with pytest.raises(ExprSyntaxError):
            parse_expression("(t + 1")

    def test_zero_denominator(self):
        with pytest.raises(ExprSyntaxError):
            parse_expression("t^(1/0)")

    def test_deep_nesting_is_a_syntax_error(self):
        with pytest.raises(ExprSyntaxError, match="nested too deeply"):
            parse_expression("(" * 1000 + "t" + ")" * 1000)


class TestEval:
    def test_exact_division(self):
        assert parse_poly("(q^2 - p^2)/(q - p)") == Q + P

    def test_half_powers_multiply(self):
        assert parse_poly("t^(1/2) * t^(1/2)") == T

    def test_not_divisible_propagates(self):
        with pytest.raises(NotDivisibleError):
            parse_poly("(t^2 - 1)/(t - 2)")

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZeroError):
            parse_poly("t/(q - q)")

    def test_negative_power_of_sum_fails(self):
        with pytest.raises(NotDivisibleError):
            parse_poly("(t + 1)^-1")

    def test_integer_arithmetic(self):
        assert parse_poly("2^3 - 2*4") == LaurentPoly.zero()

    def test_eval_expression_entry_point(self):
        assert eval_expression(parse_expression("-t")) == -T

    def test_long_sum_reparses(self):
        p = qp_number(family_spec(Family.BMQ), 1000)
        assert parse_poly(canonical_text(p)) == p

    def test_long_product(self):
        assert parse_poly("*".join(["t"] * 2000)) == T ** 2000
