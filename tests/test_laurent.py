"""Core ring: operation examples, canonical forms, serialization,
and the ring/homomorphism property suite."""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from qpknot import (
    DivisionByZeroError,
    LaurentPoly,
    MissingImageError,
    Monomial,
    NotAPerfectSquareError,
    NotDivisibleError,
    canonical_text,
    exact_div,
    exact_sqrt,
    mono_pow,
    parse_poly,
)

from strategies import nonzero_polys, polys, substitution_maps

T = LaurentPoly.var("t")
A = LaurentPoly.var("a")
Q = LaurentPoly.var("q")
P = LaurentPoly.var("p")
HALF = Fraction(1, 2)


class TestMonomial:
    def test_mono_pow_scales_single_variable(self):
        assert mono_pow(Monomial.var("t"), HALF) == Monomial({"t": HALF})

    def test_mono_pow_componentwise(self):
        m = Monomial({"q": 3, "p": 1})
        assert mono_pow(m, Fraction(1, 3)) == Monomial({"q": 1, "p": Fraction(1, 3)})

    def test_mono_pow_inverts(self):
        m = Monomial({"a": 2, "t": -1})
        assert mono_pow(m, -1) == Monomial({"a": -2, "t": 1})

    def test_mono_pow_zero_gives_identity(self):
        assert mono_pow(Monomial({"a": 2}), 0) == Monomial.one()

    def test_every_monomial_invertible(self):
        m = Monomial({"t": Fraction(5, 3), "a": -2})
        assert m * m.inverse() == Monomial.one()

    def test_rejects_bad_variable_names(self):
        for bad in ("T", "ab", "1", ""):
            with pytest.raises(ValueError):
                Monomial({bad: 1})


class TestArithmetic:
    def test_add_cancellation(self):
        assert (T + T ** -1) + (-(T ** -1)) == T

    def test_add_identity(self):
        assert LaurentPoly.zero() + (Q + P) == Q + P

    def test_add_constants(self):
        assert (T - 1) + 1 == T

    def test_mul_square_of_z(self):
        z = LaurentPoly.var("t", HALF) - LaurentPoly.var("t", -HALF)
        assert z * z == T - 2 + T ** -1

    def test_mul_telescoping(self):
        assert (Q - P) * (Q ** 2 + Q * P + P ** 2) == Q ** 3 - P ** 3

    def test_mul_identity(self):
        x = A ** 2 * T - 3
        assert LaurentPoly.one() * x == x

    def test_pow_negative_unit(self):
        assert T ** -1 == LaurentPoly.var("t", -1)
        assert (A * T) ** -2 == LaurentPoly.var("a", -2) * LaurentPoly.var("t", -2)

    def test_pow_negative_non_unit_fails(self):
        with pytest.raises(NotDivisibleError):
            (2 * T) ** -1
        with pytest.raises(NotDivisibleError):
            (T + 1) ** -1


class TestSubstitute:
    def test_identity_map(self):
        p = T + T ** -1
        assert p.substitute({"t": Monomial.var("t")}) == p

    def test_collapse_a_to_one(self):
        p = A ** 2 * T + A ** 2 * T ** -1
        got = p.substitute({"a": Monomial.one(), "t": Monomial.var("t")})
        assert got == T + T ** -1

    def test_monomial_images(self):
        p = Q + P ** -1
        got = p.substitute({"q": Monomial({"a": 2, "t": 1}), "p": Monomial({"a": -2, "t": 1})})
        assert got == A ** 2 * T + A ** 2 * T ** -1

    def test_missing_image(self):
        with pytest.raises(MissingImageError) as exc:
            (Q + T).substitute({"q": Monomial.var("q")})
        assert exc.value.var == "t"


class TestExactDiv:
    def test_geometric_quotient(self):
        assert exact_div(Q ** 3 - P ** 3, Q - P) == Q ** 2 + Q * P + P ** 2

    def test_zero_numerator(self):
        z = LaurentPoly.var("t", HALF) - LaurentPoly.var("t", -HALF)
        assert exact_div(LaurentPoly.zero(), z) == LaurentPoly.zero()

    def test_not_divisible(self):
        with pytest.raises(NotDivisibleError):
            exact_div(T ** 2 - 1, T - 2)

    def test_divide_by_zero(self):
        with pytest.raises(DivisionByZeroError):
            exact_div(T, LaurentPoly.zero())

    def test_single_term_fast_path(self):
        assert exact_div(A ** 4 * T - A ** 2, A ** 2) == A ** 2 * T - 1
        with pytest.raises(NotDivisibleError):
            exact_div(T + 1, 2 * T)

    def test_truediv_operator(self):
        assert (T ** 2 - 1) / (T - 1) == T + 1

    @pytest.mark.parametrize(
        "num, den, var",
        [
            ("x^3 + y^3 + 1", "x + y + 1", "x"),
            ("x*y + 1", "x - y", "y"),
            ("a - b", "a + b", "a"),
            ("1", "x + y", "x"),
        ],
    )
    def test_non_exact_fails_on_newton_bound(self, num, den, var):
        with pytest.raises(NotDivisibleError, match=f"{var}-exponent .* Newton bound"):
            exact_div(parse_poly(num), parse_poly(den))


class TestExactSqrt:
    def test_half_power_root(self):
        got = exact_sqrt(T - 2 + T ** -1)
        assert got == LaurentPoly.var("t", HALF) - LaurentPoly.var("t", -HALF)

    def test_monomial_root(self):
        assert exact_sqrt(A ** 4) == A ** 2

    def test_shifted_root(self):
        got = exact_sqrt(T ** 3 - 2 * T ** 2 + T)
        assert got == LaurentPoly.var("t", Fraction(3, 2)) - LaurentPoly.var("t", HALF)

    def test_positive_leading_coefficient(self):
        p = T - 2 + T ** -1
        root = exact_sqrt(p)
        assert root.leading_term()[1] > 0
        assert root * root == p

    def test_rejects_non_squares(self):
        with pytest.raises(NotAPerfectSquareError):
            exact_sqrt(2 * T)
        with pytest.raises(NotAPerfectSquareError):
            exact_sqrt(-(T ** 2))
        with pytest.raises(NotAPerfectSquareError):
            exact_sqrt(T + 1)

    def test_non_square_fails_on_newton_bound(self):
        with pytest.raises(NotAPerfectSquareError, match=r"x-exponent -1, .* Newton bound \[0, 1\]"):
            exact_sqrt(parse_poly("x^2 + 4*y^2"))

    def test_zero(self):
        assert exact_sqrt(LaurentPoly.zero()) == LaurentPoly.zero()


class TestCanonicalText:
    def test_trefoil_ordering(self):
        p = A ** 2 * T + A ** 2 * T ** -1 - A ** 4
        assert str(p) == "-a^4 + a^2*t + a^2*t^-1"

    def test_fractional_exponents_parenthesized(self):
        z = LaurentPoly.var("t", HALF) - LaurentPoly.var("t", -HALF)
        assert str(z) == "t^(1/2) - t^(-1/2)"

    def test_zero(self):
        assert str(LaurentPoly.zero()) == "0"

    def test_coefficient_rendering(self):
        assert str(2 * T - 3) == "2*t - 3"
        assert str(-T) == "-t"

    def test_examples_reparse(self):
        for text in ("-a^4 + a^2*t + a^2*t^-1", "t^(1/2) - t^(-1/2)", "0", "2*t - 3"):
            assert str(parse_poly(text)) == text


class TestHashContract:
    def test_constants_hash_like_ints(self):
        assert LaurentPoly(5) == 5
        assert hash(LaurentPoly(5)) == hash(5)
        assert hash(LaurentPoly.zero()) == hash(0)
        assert len({LaurentPoly(7), 7}) == 1

    def test_equal_polys_hash_equal(self):
        p = A ** 2 * T - 1
        q = (A * A) * T - 1
        assert p == q and hash(p) == hash(q)


class TestJson:
    def test_schema(self):
        p = A ** 2 * T - 1
        obj = p.to_json_dict()
        assert obj == {
            "terms": [
                {"coeff": "1", "monomial": {"a": "2/1", "t": "1/1"}},
                {"coeff": "-1", "monomial": {}},
            ]
        }

    def test_fractional_exponents_reduced(self):
        p = LaurentPoly.var("t", Fraction(2, 4))
        assert p.to_json_dict()["terms"][0]["monomial"] == {"t": "1/2"}

    def test_roundtrip_examples(self):
        for p in (LaurentPoly.zero(), T - 2 + T ** -1, A ** 2 * T + A ** 2 * T ** -1 - A ** 4):
            assert LaurentPoly.from_json(p.to_json()) == p
            assert LaurentPoly.from_json(p.to_json()).to_json() == p.to_json()


class TestProperties:
    @given(polys(), polys(), polys())
    def test_ring_axioms(self, p1, p2, p3):
        assert p1 + p2 == p2 + p1
        assert (p1 + p2) + p3 == p1 + (p2 + p3)
        assert p1 * p2 == p2 * p1
        assert (p1 * p2) * p3 == p1 * (p2 * p3)
        assert p1 * (p2 + p3) == p1 * p2 + p1 * p3
        assert p1 + LaurentPoly.zero() == p1
        assert p1 * LaurentPoly.one() == p1

    @given(polys(5), polys(5), substitution_maps)
    def test_substitute_is_a_homomorphism(self, p1, p2, images):
        assert (p1 * p2).substitute(images) == p1.substitute(images) * p2.substitute(images)
        assert (p1 + p2).substitute(images) == p1.substitute(images) + p2.substitute(images)

    @given(polys(6), nonzero_polys(6))
    def test_div_recovers_factor(self, p, q):
        assert exact_div(p * q, q) == p

    @settings(max_examples=60)
    @given(nonzero_polys(6))
    def test_sqrt_recovers_factor(self, p):
        root = exact_sqrt(p * p)
        assert root == p or root == -p
        assert root.leading_term()[1] > 0

    @settings(max_examples=60)
    @given(polys(6))
    def test_sqrt_then_square_is_identity_on_success(self, p):
        try:
            root = exact_sqrt(p)
        except NotAPerfectSquareError:
            return
        assert root * root == p

    @given(polys())
    def test_canonical_text_reparses(self, p):
        assert parse_poly(canonical_text(p)) == p

    @given(polys())
    def test_json_roundtrip(self, p):
        assert LaurentPoly.from_json(p.to_json()) == p
