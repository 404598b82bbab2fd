"""Deformed-number families: tabulated small values, the three routes,
and the closed-form multipliers between families."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qpknot import (
    Family,
    LaurentPoly,
    Monomial,
    NegativeIndexError,
    QPSpec,
    exact_div,
    family_spec,
    homfly_alexander_multiplier,
    homfly_jones_multiplier,
    parse_poly,
    qp_number,
    qp_number_division,
    qp_number_recurrence,
)
from qpknot.qpnumbers import qp_numbers, two_term_ladder

from strategies import monomials, polys

GENERIC = QPSpec(Monomial.var("q"), Monomial.var("p"))


class TestTabulatedValues:
    def test_one_parameter_numbers(self):
        spec = family_spec(Family.BMQ)
        assert qp_number(spec, 1) == LaurentPoly.one()
        assert qp_number(spec, 2) == parse_poly("q + q^-1")
        assert qp_number(spec, 3) == parse_poly("q^2 + 1 + q^-2")
        assert qp_number(spec, 4) == parse_poly("q^3 + q + q^-1 + q^-3")

    def test_two_parameter_numbers(self):
        assert qp_number(GENERIC, 1) == LaurentPoly.one()
        assert qp_number(GENERIC, 2) == parse_poly("q + p")
        assert qp_number(GENERIC, 3) == parse_poly("q^2 + q*p + p^2")
        assert qp_number(GENERIC, 4) == parse_poly("q^3 + q^2*p + q*p^2 + p^3")

    def test_edge_indices(self):
        for fam in Family:
            spec = family_spec(fam)
            assert qp_number(spec, 0) == LaurentPoly.zero()
            assert qp_number(spec, 1) == LaurentPoly.one()

    def test_homfly_family_n3(self):
        got = qp_number(family_spec(Family.HOMFLY), 3)
        assert got == parse_poly("a^4*t^2 + a^4 + a^4*t^-2")


class TestFamilySpecs:
    def test_all_pairs(self):
        t = Monomial.var("t")
        a = Monomial.var("a")
        q = Monomial.var("q")
        p = Monomial.var("p")
        assert family_spec(Family.ALEXANDER) == QPSpec(t, t ** -1)
        assert family_spec(Family.JONES) == QPSpec(t ** 3, t)
        assert family_spec(Family.HOMFLY) == QPSpec(a ** 2 * t, a ** 2 * t ** -1)
        assert family_spec(Family.H1) == QPSpec(q, p ** -1)
        assert family_spec(Family.H2) == QPSpec(q ** 3, p)
        assert family_spec(Family.BMQ) == QPSpec(q, q ** -1)

    def test_homfly_pair_solves_coefficient_equations(self):
        spec = family_spec(Family.HOMFLY)
        u, v = spec.u.as_poly(), spec.v.as_poly()
        assert u + v == parse_poly("a^2*t + a^2*t^-1")
        assert u * v == parse_poly("a^4")

    def test_homfly_pair_against_multiplier_oracle(self):
        # (u^n - v^n)/(u - v) must equal a^(2(n-1)) * (t^n - t^-n)/(t - t^-1)
        spec = family_spec(Family.HOMFLY)
        alex = family_spec(Family.ALEXANDER)
        for n in range(1, 11):
            lhs = qp_number(spec, n)
            rhs = Monomial.var("a").__pow__(2 * (n - 1)).as_poly() * qp_number(alex, n)
            assert lhs == rhs

    def test_degenerate_spec_rejected(self):
        with pytest.raises(ValueError):
            QPSpec(Monomial.var("q"), Monomial.var("q"))


class TestRoutes:
    def test_recurrence_small_values(self):
        assert qp_number_recurrence(GENERIC, 2) == parse_poly("q + p")
        alex = family_spec(Family.ALEXANDER)
        assert qp_number_recurrence(alex, 3) == parse_poly("t^2 + 1 + t^-2")
        jones = family_spec(Family.JONES)
        assert qp_number_recurrence(jones, 2) == parse_poly("t^3 + t")

    def test_division_small_values(self):
        assert qp_number_division(GENERIC, 3) == parse_poly("q^2 + q*p + p^2")
        alex = family_spec(Family.ALEXANDER)
        assert qp_number_division(alex, 2) == parse_poly("t + t^-1")
        h2 = family_spec(Family.H2)
        assert qp_number_division(h2, 2) == parse_poly("q^3 + p")

    def test_three_route_agreement_all_families(self):
        for fam in Family:
            spec = family_spec(fam)
            for n in range(0, 30):
                s = qp_number(spec, n)
                assert s == qp_number_recurrence(spec, n)
                assert s == qp_number_division(spec, n)

    def test_negative_index_rejected(self):
        for fn in (qp_number, qp_number_recurrence, qp_number_division):
            with pytest.raises(NegativeIndexError):
                fn(GENERIC, -1)

    @settings(max_examples=40)
    @given(monomials, monomials, st.integers(min_value=0, max_value=12))
    def test_three_routes_on_random_specs(self, u, v, n):
        if u == v:
            return
        spec = QPSpec(u, v)
        s = qp_number(spec, n)
        assert s == qp_number_recurrence(spec, n)
        assert s == qp_number_division(spec, n)

    @settings(max_examples=40)
    @given(monomials, monomials, st.integers(min_value=1, max_value=12))
    def test_recurrence_identity(self, u, v, n):
        if u == v:
            return
        spec = QPSpec(u, v)
        lhs = qp_number(spec, n + 1)
        rhs = (u.as_poly() + v.as_poly()) * qp_number(spec, n) - (
            u * v
        ).as_poly() * qp_number(spec, n - 1)
        assert lhs == rhs


def _ring_ladder(c1, c2, x0, x1, last):
    """x0, ..., x(last) of x(k+1) = c1*x(k) + c2*x(k-1) by ring products."""
    xs = [x0, x1]
    while len(xs) <= last:
        xs.append(c1 * xs[-1] + c2 * xs[-2])
    return xs[: last + 1]


def _v(name, exp=1):
    return LaurentPoly.var(name, exp)


# non-empty ranges inside 0..24, with steps up to 6
_INDICES = st.integers(0, 24).flatmap(
    lambda start: st.builds(range, st.just(start), st.integers(start + 1, 25), st.integers(1, 6))
)


class TestLadder:
    @settings(max_examples=30, deadline=None)
    @given(polys(2), polys(2), polys(3), polys(3), _INDICES)
    # a zero seed, a constant coefficient, variables in one operand each
    @example(
        c1=_v("t", Fraction(1, 2)) - _v("t", Fraction(-1, 2)),
        c2=LaurentPoly(-3),
        x0=LaurentPoly.zero(),
        x1=_v("a", Fraction(-2, 3)) * _v("q"),
        indices=range(25),
    )
    # exponents far beyond any fixed field width, and entries far past the
    # first one asked for: the frame must be sized for the last
    @example(
        c1=_v("p", 2**70) - _v("q", Fraction(-(2**65), 3)),
        c2=_v("p", -(2**69)),
        x0=_v("q", 2**80),
        x1=LaurentPoly(7),
        indices=range(1, 25, 2),
    )
    # the same with seeds of reach 0, so the walk alone needs the width
    @example(
        c1=_v("p", 2**70) - _v("q", Fraction(-(2**65), 3)),
        c2=_v("p", -(2**69)),
        x0=LaurentPoly.zero(),
        x1=LaurentPoly(7),
        indices=range(1, 25, 2),
    )
    def test_matches_ring_recurrence(self, c1, c2, x0, x1, indices):
        got = list(two_term_ladder(c1, c2, x0, x1, indices))
        ring = _ring_ladder(c1, c2, x0, x1, indices[-1])
        assert got == [ring[k] for k in indices]

    @pytest.mark.parametrize("indices", [range(0), range(-1, 3), range(3, 0, -1)], ids=str)
    def test_rejects_ranges_it_cannot_walk(self, indices):
        one = LaurentPoly.one()
        with pytest.raises(ValueError, match="non-empty ascending range"):
            next(two_term_ladder(one, one, LaurentPoly.zero(), one, indices))

    def test_constant_ladder_is_fibonacci(self):
        one = LaurentPoly.one()
        got = two_term_ladder(one, one, LaurentPoly.zero(), one, range(65))
        fib = [0, 1]
        while len(fib) <= 64:
            fib.append(fib[-1] + fib[-2])
        assert list(got) == fib

    def test_ladder_hands_over_only_its_entry(self, decoded_keys):
        # qp_numbers walks the ladder to [300] of h2 and hands over that
        # entry alone, on its packed keys: nothing on the walk is decoded
        spec = family_spec(Family.H2)
        (got,) = qp_numbers(spec, range(300, 301))
        assert decoded_keys[0] == 0
        assert got == qp_number(spec, 300)

    def test_recurrence_decodes_only_its_entry(self, decoded_keys):
        # [300] of h2 has 300 terms, and index doubling reaches it by ring
        # products on packed keys: neither it nor the pairs ([k], [k+1])
        # on the way are decoded
        got = qp_number_recurrence(family_spec(Family.H2), 300)
        assert got.term_count() == 300
        assert decoded_keys[0] == 0

    @pytest.mark.parametrize("fam", list(Family), ids=lambda f: f.value)
    @pytest.mark.parametrize("n", [*range(70), 127, 128, 255, 256, 511, 512])
    def test_doubling_matches_closed_sum(self, fam, n):
        # every digit pattern up to 6 bits, and runs of 1 digits and of 0
        # digits up to 9 bits
        spec = family_spec(fam)
        assert qp_number_recurrence(spec, n) == qp_number(spec, n)

    @pytest.mark.parametrize("fam", list(Family), ids=lambda f: f.value)
    def test_recurrence_at_300_matches_closed_sum(self, fam):
        spec = family_spec(fam)
        assert qp_number_recurrence(spec, 300) == qp_number(spec, 300)


class TestStructure:
    def test_term_counts_generic(self):
        for n in range(1, 25):
            assert qp_number(GENERIC, n).term_count() == n

    def test_alexander_all_coefficients_one(self):
        spec = family_spec(Family.ALEXANDER)
        for n in range(1, 25):
            p = qp_number(spec, n)
            assert p.term_count() == n
            assert all(c == 1 for _, c in p.terms())

    def test_bmq_coincides_with_alexander_under_renaming(self):
        bmq = family_spec(Family.BMQ)
        alex = family_spec(Family.ALEXANDER)
        rename = {"q": Monomial.var("t")}
        for n in range(0, 30):
            assert qp_number(bmq, n).substitute(rename) == qp_number(alex, n)


class TestMultipliers:
    def test_alexander_route(self):
        assert homfly_alexander_multiplier(1) == Monomial.one()
        assert homfly_alexander_multiplier(2) == Monomial({"a": 2})
        assert homfly_alexander_multiplier(5) == Monomial({"a": 8})

    def test_jones_route_computed_form(self):
        assert homfly_jones_multiplier(1) == Monomial.one()
        assert homfly_jones_multiplier(2) == Monomial({"a": 2, "t": -2})
        assert homfly_jones_multiplier(3) == Monomial({"a": 4, "t": -4})

    def test_jones_route_oracle(self):
        # multiplying back recovers the two-variable number
        for n in range(1, 12):
            mult = homfly_jones_multiplier(n).as_poly()
            assert mult * qp_number(family_spec(Family.JONES), n) == qp_number(
                family_spec(Family.HOMFLY), n
            )

    def test_quotients_are_monomials(self):
        hom = family_spec(Family.HOMFLY)
        alex = family_spec(Family.ALEXANDER)
        for n in range(1, 12):
            q = exact_div(qp_number(hom, n), qp_number(alex, n))
            assert q.is_monomial()

    def test_rejects_nonpositive_index(self):
        with pytest.raises(NegativeIndexError):
            homfly_alexander_multiplier(0)
        with pytest.raises(NegativeIndexError):
            homfly_jones_multiplier(0)
