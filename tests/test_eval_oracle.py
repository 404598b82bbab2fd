"""Ring operations checked by exact evaluation at random rational points.

The oracle never uses the ring's own arithmetic: it reads a polynomial
through ``terms()`` and ``Monomial.exponents`` only and evaluates it with
``Fraction``.  A variable x is sent to r^L, where r is a random rational
and L the least common multiple of every exponent denominator in play, so
x^(n/d) becomes the integer power r^(L*n/d) and evaluation is a ring
homomorphism.  The (a, z) conversions are checked at t = s^2, z = s - 1/s.
"""

from fractions import Fraction
from math import lcm

from hypothesis import given, settings
from hypothesis import strategies as st

from qpknot import (
    InvariantKind,
    LaurentPoly,
    Monomial,
    exact_div,
    exact_sqrt,
    from_az_form,
    knot_series,
    to_az_form,
)

VARS = ("a", "p", "q", "t")

# Small exponents and denominators keep the evaluated powers of r modest.
exponents = st.builds(
    Fraction, st.integers(min_value=-3, max_value=3), st.sampled_from((1, 2, 3))
)
monomials = st.dictionaries(st.sampled_from(VARS), exponents, max_size=3).map(Monomial)
coeffs = st.integers(min_value=-9, max_value=9).filter(bool)
polys = st.dictionaries(monomials, coeffs, max_size=5).map(LaurentPoly)
nonzero_polys = polys.filter(bool)
# Away from 0 and +-1, where distinct values are most likely to collide.
rationals = st.builds(
    Fraction, st.integers(min_value=-5, max_value=5), st.integers(min_value=1, max_value=4)
).filter(lambda r: r not in (0, 1, -1))
points = st.fixed_dictionaries({v: rationals for v in VARS})

EXAMPLES = settings(max_examples=40, deadline=None)


def denominators(*polys):
    """Least common multiple of every exponent denominator in ``polys``."""
    out = 1
    for p in polys:
        for mono, _ in p.terms():
            for e in mono.exponents.values():
                out = lcm(out, e.denominator)
    return out


def power(base, exponent):
    assert exponent.denominator == 1, exponent
    return base ** int(exponent)


def value(p, point):
    """Exact value of ``p`` where ``point`` maps each variable to
    ``(base, scale)``, meaning x^e evaluates to base^(scale*e)."""
    total = Fraction(0)
    for mono, coeff in p.terms():
        term = Fraction(coeff)
        for v, e in mono.exponents.items():
            base, scale = point[v]
            term *= power(base, scale * e)
        total += term
    return total


def at(roots, *polys):
    """The point x = r_x^L for every variable, L common to ``polys``."""
    scale = denominators(*polys)
    return {v: (r, scale) for v, r in roots.items()}


class TestRingOperations:
    @EXAMPLES
    @given(polys, polys, points)
    def test_add_sub_mul(self, p1, p2, roots):
        total, diff, prod, neg = p1 + p2, p1 - p2, p1 * p2, -p1
        x = at(roots, p1, p2, total, diff, prod)
        v1, v2 = value(p1, x), value(p2, x)
        assert value(total, x) == v1 + v2
        assert value(diff, x) == v1 - v2
        assert value(prod, x) == v1 * v2
        assert value(neg, x) == -v1

    @EXAMPLES
    @given(polys, st.integers(min_value=0, max_value=4), points)
    def test_nonnegative_power(self, p, n, roots):
        got = p ** n
        x = at(roots, p, got)
        assert value(got, x) == value(p, x) ** n

    @EXAMPLES
    @given(monomials, st.sampled_from((1, -1)), st.integers(min_value=-4, max_value=4), points)
    def test_monomial_power(self, m, sign, n, roots):
        p = m.as_poly(sign)
        got = p ** n
        x = at(roots, p, got)
        assert value(got, x) == value(p, x) ** n

    @EXAMPLES
    @given(polys, st.fixed_dictionaries({v: monomials for v in VARS}), points)
    def test_substitute(self, p, images, roots):
        got = p.substitute(images)
        scale = denominators(p, got, *(m.as_poly() for m in images.values()))
        for mono, _ in p.terms():
            for v, f in mono.exponents.items():
                for e in images[v].exponents.values():
                    scale = lcm(scale, (f * e).denominator)
        want = Fraction(0)
        for mono, coeff in p.terms():
            term = Fraction(coeff)
            for v, f in mono.exponents.items():
                for u, e in images[v].exponents.items():
                    term *= power(roots[u], scale * f * e)
            want += term
        assert value(got, {v: (r, scale) for v, r in roots.items()}) == want


class TestExactOperations:
    @EXAMPLES
    @given(polys, nonzero_polys, points)
    def test_exact_div_of_product(self, p, q, roots):
        num = p * q
        got = exact_div(num, q)
        x = at(roots, p, q, num, got)
        assert value(num, x) == value(p, x) * value(q, x)
        assert value(got, x) * value(q, x) == value(num, x)
        assert value(got, x) == value(p, x)

    @EXAMPLES
    @given(nonzero_polys, points)
    def test_exact_sqrt_of_square(self, p, roots):
        square = p * p
        got = exact_sqrt(square)
        x = at(roots, p, square, got)
        assert value(square, x) == value(p, x) ** 2
        assert value(got, x) ** 2 == value(square, x)
        assert value(got, x) in (value(p, x), -value(p, x))


az_exponents = st.tuples(exponents, st.integers(min_value=0, max_value=5))
az_polys = st.dictionaries(
    az_exponents.map(lambda e: Monomial({"a": e[0], "z": e[1]})), coeffs, max_size=5
).map(LaurentPoly)


def az_point(s, r, *polys):
    """a = r^L; t = s^2 and z = s - 1/s, so that z = t^(1/2) - t^(-1/2)."""
    return {"a": (r, denominators(*polys)), "t": (s, 2), "z": (s - 1 / s, 1)}


class TestAZConversions:
    @EXAMPLES
    @given(az_polys, rationals, rationals)
    def test_from_az_then_to_az(self, p, s, r):
        at_t = from_az_form(p)
        back = to_az_form(at_t).poly
        x = az_point(s, r, p, at_t, back)
        assert value(at_t, x) == value(p, x)
        assert value(back, x) == value(p, x)

    @EXAMPLES
    @given(st.integers(min_value=0, max_value=6), rationals, rationals)
    def test_knot_entries(self, m, s, r):
        entry = knot_series(InvariantKind.HOMFLY, m).knot(m)
        az = to_az_form(entry).poly
        back = from_az_form(az)
        x = az_point(s, r, entry, az, back)
        assert value(az, x) == value(entry, x)
        assert value(back, x) == value(entry, x)
