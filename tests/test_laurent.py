"""Core ring: operation examples, canonical forms, serialization,
and the ring/homomorphism property suite."""

import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpknot import _kernel
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

from strategies import VARS, nonzero_coeffs, nonzero_polys, polys, substitution_maps

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

    def test_rejects_a_zero_exponent_denominator(self):
        with pytest.raises(ValueError, match=r"zero denominator in exponent \(1, 0\)"):
            Monomial({"t": (1, 0)})

    def test_exponent_of_a_variable(self):
        m = Monomial({"t": Fraction(5, 3), "a": -2})
        assert (m.exponent("a"), m.exponent("t"), m.exponent("q")) == (-2, Fraction(5, 3), 0)

    def test_degree(self):
        assert Monomial.var("t").degree() == 1
        assert Monomial({"a": 2, "t": Fraction(-1, 2)}).degree() == Fraction(3, 2)
        assert Monomial({"a": 1, "t": -1}).degree() == 0


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


    def test_coefficient_of_monomials_in_and_out_of_the_frame(self):
        p = parse_poly("3*a^2*t + 5 - t^(1/2)")
        assert p.coefficient(Monomial({"a": 2, "t": 1})) == 3
        assert p.coefficient(Monomial.one()) == 5
        assert p.coefficient(Monomial({"t": (1, 2)})) == -1
        # a variable, a denominator and an exponent the frame does not hold
        for exps in ({"z": 1}, {"a": (1, 3)}, {"t": 10**9}):
            assert p.coefficient(Monomial(exps)) == 0

    @pytest.mark.parametrize(
        "op, want",
        [
            (lambda: 3 - T, "-t + 3"),  # int - poly, through __rsub__
            (lambda: T + "x", TypeError),
            (lambda: T * 1.5, TypeError),
            (lambda: T / "x", TypeError),
            (lambda: T ** 1.5, TypeError),
            (lambda: Monomial.var("t") * 2, TypeError),
            (lambda: LaurentPoly("x"), TypeError),
            (lambda: LaurentPoly.zero().leading_term(), ValueError),
            (lambda: (2 * T).as_monomial(), ValueError),
        ],
        ids=[
            "int-minus-poly", "poly-plus-str", "poly-times-float", "poly-over-str",
            "poly-to-float", "monomial-times-int", "poly-of-str", "zero-leading-term", "two-t-as-monomial",
        ],
    )
    def test_operands_outside_the_ring(self, op, want):
        if isinstance(want, str):
            assert str(op()) == want
        else:
            with pytest.raises(want):
                op()


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

    def test_images_that_meet_cancel(self):
        x, y = LaurentPoly.var("x"), LaurentPoly.var("y")
        got = (x - y).substitute({"x": Monomial.var("t"), "y": Monomial.var("t")})
        assert got == LaurentPoly.zero()
        assert got.term_count() == 0

    def test_fractional_exponents_take_powers_of_the_images(self):
        p = parse_poly("t^(1/2) - a^(-3/2)*t^(3/2)")
        got = p.substitute({"t": Monomial({"a": 2, "t": 1}), "a": Monomial({"t": (1, 3)})})
        assert got == parse_poly("a*t^(1/2) - a^3*t")

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

    @pytest.mark.parametrize(
        "num, den, text",
        [
            (
                "t^(1/2) + 1",
                "t^(1/3) - 1",
                "quotient term needs t-exponent -1/6, outside the Newton bound [0, 1/6]",
            ),
            (
                "a^(2/3)*t + 1",
                "a^(1/2) - t",
                "quotient term needs a-exponent 2/3, outside the Newton bound [0, 1/6]",
            ),
            (
                "t^(-1/2) + t^(3/2)",
                "t^(1/2) - 1",
                "quotient term needs t-exponent -1, outside the Newton bound [-1/2, 1]",
            ),
        ],
    )
    def test_fractional_newton_bound_texts(self, num, den, text):
        n, d = parse_poly(num), parse_poly(den)
        n0, d0 = LaurentPoly(n), LaurentPoly(d)
        with pytest.raises(NotDivisibleError) as exc:
            exact_div(n, d)
        assert str(exc.value) == text
        # the first and third cases fail after some reduction steps
        assert (n, d) == (n0, d0)

    def test_inputs_left_untouched(self):
        num = (Q ** 5 - P ** 5) * (Q ** 2 + A * P)
        den = Q ** 2 + A * P
        num0, den0 = LaurentPoly(num), LaurentPoly(den)
        assert exact_div(num, den) == Q ** 5 - P ** 5
        assert (num, den) == (num0, den0)
        with pytest.raises(NotDivisibleError):
            exact_div(num + 1, den)
        assert (num, den) == (num0, den0)


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

    @pytest.mark.parametrize(
        "src, text",
        [
            ("-x*y^2 + y^2 + 9*y^-1 - 2*y^-2", "leading coefficient is negative"),
            ("2*x^3 - y^3 + 9*y^-3", "leading coefficient 2 is not a square"),
            ("4*x^2 - 2 + 4*x^-2 + x^-3*y^-2", "coefficient -2 not divisible by 4"),
            ("x^3 + 2*x + 9*x^-1*y", "candidate term degree fell below the root's range"),
            # the degree floor is tested before the coefficient, as in division
            ("x^3 + 3*x + 9*x^-1*y", "candidate term degree fell below the root's range"),
        ],
    )
    def test_failure_texts(self, src, text):
        with pytest.raises(NotAPerfectSquareError) as exc:
            exact_sqrt(parse_poly(src))
        assert str(exc.value) == text

    def test_non_square_fails_on_newton_bound(self):
        with pytest.raises(NotAPerfectSquareError, match=r"x-exponent -1, .* Newton bound \[0, 1\]"):
            exact_sqrt(parse_poly("x^2 + 4*y^2"))

    @pytest.mark.parametrize(
        "src, text",
        [
            (
                "t^(1/2) + t^(1/3)",
                "root term needs t-exponent 1/12, outside the Newton bound [1/6, 1/4]",
            ),
            (
                "x^(2/3) + 4*y^(1/2)",
                "root term needs x-exponent -1/3, outside the Newton bound [0, 1/3]",
            ),
            (
                "(t^(1/3) + a^(1/2) - 2)^6 + t^(1/6)",
                "root term needs a-exponent -3/2, outside the Newton bound [0, 3/2]",
            ),
        ],
    )
    def test_fractional_newton_bound_texts(self, src, text):
        p = parse_poly(src)
        p0 = LaurentPoly(p)
        with pytest.raises(NotAPerfectSquareError) as exc:
            exact_sqrt(p)
        assert str(exc.value) == text
        assert p == p0

    def test_input_left_untouched(self):
        root = parse_poly("t^(1/2)*a^(2/3) - 3*q^(-1/4) + 2")
        p = root * root
        p0 = LaurentPoly(p)
        assert exact_sqrt(p) in (root, -root)
        assert p == p0

    def test_zero(self):
        assert exact_sqrt(LaurentPoly.zero()) == LaurentPoly.zero()


# exponents with denominators 1, 2, 3, 4 and 6, negative ones included; small
# numerators make equal degrees, and so the tie-breaks, common.  About one
# exponent in five is moved by +-10^6, which sets the widest field of the
# order key.
_order_monomials = st.dictionaries(
    st.sampled_from(VARS),
    st.builds(
        lambda num, den, far: Fraction(num, den) + far,
        st.integers(min_value=-3, max_value=3),
        st.sampled_from([1, 2, 3, 4, 6]),
        st.sampled_from((0,) * 8 + (10**6, -(10**6))),
    ),
    max_size=4,
).map(Monomial)


def _graded_lex_rank(m: Monomial, names: list) -> tuple:
    """Degree, then the exponents over ``names``; larger ranks come first."""
    e = m.exponents
    return sum(e.values(), Fraction(0)), [e.get(v, Fraction(0)) for v in names]


class TestReductionSteps:
    """A failing division or square root stops after a fixed number of
    remainder updates; a change to the one reduction they share that costs
    more steps, or fails elsewhere, shows here.  The reduction updates its
    packed remainder through `poly_accum_term_mul` once a step (the
    candidate times the divisor's other terms, for a square root the cross
    terms with 2 * root so far), and a square root adds one more update
    (the candidate's own square)."""

    @staticmethod
    def _steps(monkeypatch, update, op, *args):
        real = getattr(_kernel, update)
        calls = []

        def counted(*a):
            calls.append(1)
            return real(*a)

        monkeypatch.setattr(_kernel, update, counted)
        with pytest.raises((NotDivisibleError, NotAPerfectSquareError)) as exc:
            op(*args)
        monkeypatch.undo()
        return len(calls), str(exc.value)

    @pytest.mark.parametrize("n", [5, 40])
    def test_binomial_sum_over_difference(self, monkeypatch, n):
        num = parse_poly(f"(a*t)^{n} + (q*p)^{n}")
        den = parse_poly("a*t - q*p")
        assert self._steps(monkeypatch, "poly_accum_term_mul", exact_div, num, den) == (
            n,
            f"quotient term needs a-exponent -1, outside the Newton bound [0, {n - 1}]",
        )

    @pytest.mark.parametrize(
        "num, den, steps, error",
        [
            (
                "x^3+y^3+1",
                "x+y+1",
                5,
                "quotient term needs x-exponent -1, outside the Newton bound [0, 2]",
            ),
            (
                "t^5+1",
                "t^2-1",
                2,
                "quotient term needs t-exponent -1, outside the Newton bound [0, 3]",
            ),
            (
                "t^(7/2) + 1",
                "t^(1/2) - 1",
                7,
                "quotient term needs t-exponent -1/2, outside the Newton bound [0, 3]",
            ),
            (
                "a*t^2 + q",
                "a - q",
                1,
                "quotient term needs a-exponent -1, outside the Newton bound [0, 0]",
            ),
            (
                "x^3 + x*y^2 + y^2",
                "x + 1",
                3,
                "remainder degree fell below the numerator's range",
            ),
            ("4*t^2 + 6*t + 3", "2*t", 2, "coefficient 3 not divisible by 2"),
        ],
        # ids leave out the common prefix of the messages
        ids=lambda v: v.removeprefix("quotient term needs ") if isinstance(v, str) else None,
    )
    def test_division(self, monkeypatch, num, den, steps, error):
        n, d = parse_poly(num), parse_poly(den)
        got = self._steps(monkeypatch, "poly_accum_term_mul", exact_div, n, d)
        assert got == (steps, error)

    def test_sqrt(self, monkeypatch):
        p = parse_poly("x^2 + 2*x*y + 2*y^2")
        assert self._steps(monkeypatch, "poly_accum_term_mul", exact_sqrt, p) == (
            2,
            "root term needs x-exponent -1, outside the Newton bound [0, 1]",
        )


class TestOrder:
    """Canonical order against a sort built from `Monomial.exponents` alone."""

    @given(st.dictionaries(_order_monomials, nonzero_coeffs, min_size=1, max_size=12).map(LaurentPoly))
    def test_terms_sort_by_degree_then_exponents(self, p):
        monos = [m for m, _ in p.terms()]
        names = sorted({v for m in monos for v in m.exponents})
        assert monos == sorted(monos, key=lambda m: _graded_lex_rank(m, names), reverse=True)
        assert p.leading_term()[0] == monos[0]

    @pytest.mark.parametrize(
        "first, second",
        [
            ({"a": 2}, {"a": 2, "q": -1, "t": 1}),
            ({"a": 2, "q": 1, "t": -1}, {"a": 2}),
            ({"t": 1}, {"a": -1, "t": 2}),
        ],
    )
    def test_absent_variable_is_exponent_zero(self, first, second):
        p = Monomial(first).as_poly() + Monomial(second).as_poly()
        assert [m for m, _ in p.terms()] == [Monomial(first), Monomial(second)]


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


class TestConstruction:
    def test_from_terms_sums_repeated_monomials(self):
        t = Monomial.var("t")
        assert LaurentPoly.from_terms([(t, 1), (t, -1)]) == 0
        assert LaurentPoly.from_terms([(t, 1), ("t", -1)]) == 0
        assert LaurentPoly.from_terms([("t", 1), ("t", 2)]) == 3 * T
        assert LaurentPoly.from_terms([(t, 2), (1, 5), (t, -1)]) == T + 5

    def test_mapping_and_json_merge_the_same_way(self):
        # {t: 1, "t": 2} names t twice; JSON may list a monomial twice
        assert LaurentPoly({Monomial.var("t"): 1, "t": 2}) == 3 * T
        doc = (
            '{"terms": [{"coeff": "1", "monomial": {"t": "1/1"}},'
            ' {"coeff": "2", "monomial": {"t": "2/2"}},'
            ' {"coeff": "-3", "monomial": {"t": "1"}}]}'
        )
        assert LaurentPoly.from_json(doc) == 0

    def test_json_rejects_a_zero_exponent_denominator(self):
        doc = '{"terms":[{"coeff":"1","monomial":{"t":"1/0"}}]}'
        with pytest.raises(ValueError, match="zero denominator in exponent"):
            LaurentPoly.from_json(doc)

    @pytest.mark.parametrize(
        "coeff, text", [("1.5", "1.5"), ("1.0", "1.0"), ("true", "True"), ("false", "False")]
    )
    def test_json_rejects_float_and_bool_coefficients(self, coeff, text):
        doc = f'{{"terms":[{{"coeff":{coeff},"monomial":{{}}}}]}}'
        with pytest.raises(ValueError, match=f"coefficient {text} is not an integer"):
            LaurentPoly.from_json(doc)

    def test_json_integer_coefficients_load(self):
        doc = '{"terms":[{"coeff":-7,"monomial":{"t":"1/2"}},{"coeff":"3","monomial":{}}]}'
        assert LaurentPoly.from_json(doc) == -7 * LaurentPoly.var("t", Fraction(1, 2)) + 3

    @pytest.mark.parametrize(
        "doc, exc, text",
        [
            ('{"terms":[{"coeff":"1","monomial":{"t":1}}]}', TypeError, "exponent of 't'"),
            ('{"terms":[{"coeff":"1","monomial":["t"]}]}', TypeError, "monomial must be"),
            ("{}", ValueError, "no 'terms' field"),
            ('{"terms":[{"coeff":"1"}]}', ValueError, "no 'monomial' field"),
            ('{"terms":[{"monomial":{}}]}', ValueError, "no 'coeff' field"),
            ('{"terms":{"coeff":"1"}}', TypeError, "terms must be"),
            ('{"terms":[1]}', TypeError, "term must be"),
            ("[]", TypeError, "polynomial must be"),
        ],
        ids=[
            "numeric-exponent",
            "list-monomial",
            "no-terms",
            "no-monomial",
            "no-coeff",
            "terms-object",
            "term-number",
            "top-level-list",
        ],
    )
    def test_json_malformed_structure(self, doc, exc, text):
        with pytest.raises(exc, match=text):
            LaurentPoly.from_json(doc)

    @pytest.mark.parametrize(
        "frac", ["1/", " 1/2", "+1/2", "1/-2", "1_0/3", "1/2/3", "", "1.5", "\u0661/2"]
    )
    def test_json_rejects_non_canonical_exponent_text(self, frac):
        doc = json.dumps({"terms": [{"coeff": "1", "monomial": {"t": frac}}]})
        text = f"exponent of 't' must read 'num' or 'num/den', got {frac!r}"
        with pytest.raises(ValueError, match=re.escape(text)):
            LaurentPoly.from_json(doc)

    def test_coefficients_must_be_ints(self):
        with pytest.raises(TypeError):
            LaurentPoly.from_terms([("t", 1.5)])
        with pytest.raises(TypeError, match="coefficients must be ints"):
            Monomial.var("t").as_poly(2.5)

    @pytest.mark.parametrize(
        "p", [LaurentPoly(True), Monomial.var("t").as_poly(True)], ids=["int", "as_poly"]
    )
    def test_bool_coefficients_are_stored_as_ints(self, p):
        (coeff,) = p._t.values()
        assert type(coeff) is int
        assert "True" not in str(p)
        assert LaurentPoly.from_json(p.to_json()) == p


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
