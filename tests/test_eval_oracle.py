"""Ring operations checked by exact evaluation at random rational points.

The oracle never uses the ring's own arithmetic: it reads a polynomial
through ``terms()`` and ``Monomial.exponents`` only and evaluates it with
``Fraction``.  A variable x is sent to r^L, where r is a random rational
and L the least common multiple of every exponent denominator in play, so
x^(n/d) becomes the integer power r^(L*n/d) and evaluation is a ring
homomorphism.  The (a, z) conversions are checked at t = s^2, z = s - 1/s.
Exponents near 10^6 are evaluated modulo a large prime, where a power
costs a few dozen multiplications whatever its size.  `Monomial` itself
is checked against plain dicts of `Fraction` exponents.
"""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qpknot import (
    Family,
    InvariantKind,
    LaurentPoly,
    Monomial,
    NotAPerfectSquareError,
    NotDivisibleError,
    exact_div,
    exact_sqrt,
    family_spec,
    from_az_form,
    knot_series,
    parse_poly,
    qp_number,
    to_az_form,
)
from qpknot.qpnumbers import recurrence_coeffs, two_term_ladder

VARS = ("a", "p", "q", "t")

# Small exponents and denominators keep the evaluated powers of r modest.
exponents = st.builds(
    Fraction, st.integers(min_value=-3, max_value=3), st.sampled_from((1, 2, 3))
)
exponent_dicts = st.dictionaries(st.sampled_from(VARS), exponents, max_size=3)
monomials = exponent_dicts.map(Monomial)
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


def nonzero(exps):
    """The exponent dict without its zero exponents."""
    return {v: e for v, e in exps.items() if e}


def monomial_text(exps):
    """The canonical text of a monomial, from its nonzero exponents."""
    parts = []
    for v, e in sorted(exps.items()):
        if e == 1:
            parts.append(v)
        elif e.denominator == 1:
            parts.append(f"{v}^{e.numerator}")
        else:
            parts.append(f"{v}^({e.numerator}/{e.denominator})")
    return "*".join(parts) or "1"


def same_monomial(m, exps):
    """``m`` reads as the nonzero exponents ``exps`` in every accessor, and
    equals and hashes like the monomial built from them."""
    built = Monomial(exps)
    assert m.exponents == exps
    assert m.variables() == tuple(sorted(exps))
    assert m.degree() == sum(exps.values())
    assert str(m) == monomial_text(exps)
    assert m.is_one == (not exps)
    assert m == built and hash(m) == hash(built)


class TestMonomialOracle:
    """`Monomial` against plain dicts of `Fraction` exponents, with no ring
    arithmetic: a product adds exponents, a power scales them."""

    @EXAMPLES
    @given(exponent_dicts, exponent_dicts)
    # a product that cancels a variable, in a frame that still holds it
    @example({"a": Fraction(1), "t": Fraction(1)}, {"a": Fraction(-1)})
    # a product past the fields of both operands' frames
    @example({"t": Fraction(30000)}, {"a": Fraction(1, 3), "t": Fraction(30000)})
    def test_product(self, e1, e2):
        got = Monomial(e1) * Monomial(e2)
        want = nonzero({v: e1.get(v, 0) + e2.get(v, 0) for v in {*e1, *e2}})
        same_monomial(got, want)
        assert (got == Monomial(e1)) == (want == nonzero(e1))

    @EXAMPLES
    @given(exponent_dicts, st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)))
    @example({"a": Fraction(2), "t": Fraction(-1, 2)}, Fraction(-2, 3))
    @example({"q": Fraction(3)}, Fraction(0))
    def test_power_and_inverse(self, e, r):
        same_monomial(Monomial(e) ** r, nonzero({v: x * r for v, x in e.items()}))
        same_monomial(Monomial(e).inverse(), nonzero({v: -x for v, x in e.items()}))

    @EXAMPLES
    @given(st.lists(exponent_dicts, min_size=1, max_size=6), st.sampled_from((1, 10**6)))
    @example([{"a": Fraction(1), "t": Fraction(1, 2)}, {"q": Fraction(-2, 3)}, {}], 10**6)
    def test_terms_of_a_wide_polynomial(self, dicts, far):
        # p^far widens the frame every term of the polynomial keeps
        wanted = {}
        for e in [*dicts, {"p": Fraction(far)}]:
            wanted[tuple(sorted(nonzero(e).items()))] = nonzero(e)
        p = LaurentPoly.from_terms((Monomial(e), 1) for e in wanted.values())
        got = {tuple(sorted(m.exponents.items())): m for m, _ in p.terms()}
        assert got.keys() == wanted.keys()
        for key, m in got.items():
            same_monomial(m, wanted[key])


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


# -- the packed frame of exact_div ------------------------------------------

PRIME = 2**61 - 1

# Frame edge cases: denominators 1-6, negative exponents, constant terms,
# variables in one operand only, and exponents near +-10^6, which set the
# widest bit fields.
frame_exponents = st.builds(
    Fraction, st.integers(min_value=-3, max_value=3), st.integers(min_value=1, max_value=6)
)
far_exponents = st.builds(
    lambda sign, e: sign * 10**6 + e, st.sampled_from((1, -1)), frame_exponents
)
var_sets = st.lists(st.sampled_from(VARS), min_size=1, max_size=3, unique=True)


@st.composite
def frame_polys(draw, names, min_terms=0, max_terms=4, far_var=None):
    """A polynomial over ``names``, with a constant term half the time and,
    given ``far_var``, one term whose exponent of it is near +-10^6."""
    monos = st.dictionaries(st.sampled_from(names), frame_exponents)
    terms = draw(
        st.dictionaries(monos.map(Monomial), coeffs, min_size=min_terms, max_size=max_terms)
    )
    if draw(st.booleans()):
        terms[Monomial.one()] = draw(coeffs)
    if far_var is not None:
        exps = draw(monos)
        exps[far_var] = draw(far_exponents)
        terms[Monomial(exps)] = draw(coeffs)
    return LaurentPoly(terms)


@st.composite
def exact_pairs(draw):
    """(p, q), q with at least two terms; either may carry a far exponent."""
    p_vars, q_vars = draw(var_sets), draw(var_sets)
    p_far = draw(st.sampled_from((None, *p_vars)))
    q_far = draw(st.sampled_from((None, *q_vars)))
    p = draw(frame_polys(p_vars, far_var=p_far))
    return p, draw(frame_polys(q_vars, min_terms=2, far_var=q_far))


@st.composite
def perturbed_triples(draw):
    """(p, q, r) with q as above and r small.  A far exponent goes on a
    variable of p that q lacks: a far one that q shares would let a failing
    division walk its remainder across 10^6 steps of q's exponents."""
    p_vars, q_vars = draw(var_sets), draw(var_sets)
    far_var = draw(st.sampled_from((None, *(v for v in VARS if v not in q_vars))))
    p = draw(frame_polys(p_vars, far_var=far_var))
    q = draw(frame_polys(q_vars, min_terms=2))
    r = draw(frame_polys(p_vars, max_terms=2))
    return p, q, r


def residue(p, point):
    """Value of ``p`` modulo PRIME, ``point`` mapping each variable to
    ``(base, scale)`` with x^e evaluating to base^(scale*e) and ``base`` a
    rational whose numerator and denominator PRIME does not divide."""
    total = 0
    for mono, coeff in p.terms():
        term = coeff
        for v, e in mono.exponents.items():
            base, scale = point[v]
            k = scale * e
            assert k.denominator == 1, k
            root = base.numerator * pow(base.denominator, -1, PRIME)
            term = term * pow(root, int(k), PRIME) % PRIME
        total += term
    return total % PRIME


class TestDivisionFrame:
    @EXAMPLES
    @given(exact_pairs())
    # -3*a^(5000002/5) - 8*a^(3/2)*p^(-1/5)*t^(-1/6) and
    # -2*a^(2000001/2) + 7*a - 1 + 4*a^-1: exponents near 10^6, so the
    # product reaches past either operand, and a frame fitted to the larger
    # operand's reach alone is too narrow for it.  Built without ring
    # arithmetic, which runs at collection, where a broken product would
    # stop the whole file instead of failing this test.
    @example(
        pq=(
            LaurentPoly(
                {
                    Monomial({"a": (5000002, 5)}): -3,
                    Monomial({"a": (3, 2), "p": (-1, 5), "t": (-1, 6)}): -8,
                }
            ),
            LaurentPoly(
                {
                    Monomial({"a": (2000001, 2)}): -2,
                    Monomial.var("a"): 7,
                    Monomial.one(): -1,
                    Monomial.var("a", -1): 4,
                }
            ),
        )
    )
    def test_product_divides_back(self, pq):
        p, q = pq
        assert exact_div(p * q, q) == p

    @EXAMPLES
    @given(perturbed_triples(), points)
    def test_quotient_or_not_divisible(self, pqr, roots):
        p, q, r = pqr
        num = p * q + r
        try:
            got = exact_div(num, q)
        except NotDivisibleError:
            return
        x = at(roots, q, num, got)
        assert residue(got, x) * residue(q, x) % PRIME == residue(num, x)


@st.composite
def root_polys(draw):
    """(p, the variables of p but the far one): p is nonzero, over one to
    three variables, with every exponent negative half the time and, now
    and then, one term whose exponent of a variable is near +-10^6.  No
    other term has that variable, so the root's exponents of it differ by 0
    or about 10^6."""
    names = draw(var_sets)
    far_var = draw(st.sampled_from((None, *names)))
    near = [v for v in names if v != far_var]
    exps = frame_exponents
    if draw(st.booleans()):
        exps = exps.map(lambda e: -abs(e))
    monos = st.dictionaries(st.sampled_from(near), exps) if near else st.just({})
    terms = draw(st.dictionaries(monos.map(Monomial), coeffs, min_size=1, max_size=4))
    if far_var is not None:
        exps = draw(monos)
        exps[far_var] = draw(far_exponents)
        terms[Monomial(exps)] = draw(coeffs)
    return LaurentPoly(terms), near


@st.composite
def perturbed_squares(draw):
    """(p, r, e == 0) with p*p + r = (p + d)^2 + e for small d and e, e
    zero half the time, so that both roots and failures are common.  Neither
    d nor e has p's far variable: a far one would let a failing root walk
    its remainder across 10^6 small steps."""
    p, near = draw(root_polys())
    monos = st.dictionaries(st.sampled_from(near), frame_exponents) if near else st.just({})
    small = st.dictionaries(monos.map(Monomial), coeffs, max_size=2).map(LaurentPoly)
    d = draw(small)
    e = draw(small) if draw(st.booleans()) else LaurentPoly.zero()
    return p, d * (2 * p + d) + e, e.is_zero


class TestSqrtFrame:
    @EXAMPLES
    @given(root_polys())
    def test_square_roots_back(self, p_near):
        p, _ = p_near
        assert exact_sqrt(p * p) in (p, -p)

    @EXAMPLES
    @given(perturbed_squares(), points)
    def test_root_or_not_square(self, pre, roots):
        p, r, is_square = pre
        square = p * p + r
        try:
            got = exact_sqrt(square)
        except NotAPerfectSquareError:
            assert not is_square
            return
        x = at(roots, square, got)
        assert residue(got, x) ** 2 % PRIME == residue(square, x)


# -- the packed frame of poly_mul ---------------------------------------------


@st.composite
def shifted_polys(draw, names):
    """A polynomial with two to four terms over ``names``.  Its exponents
    are multiples of its own 1/den, and those of each variable lie within 2
    of their own shift in -3..3: they take both signs, and one operand's may
    lie wholly above or below 0, so that its keys fall outside the product's
    spans."""
    den = draw(st.integers(min_value=1, max_value=6))
    shifts = {v: draw(st.integers(min_value=-3, max_value=3)) for v in names}
    steps = st.integers(min_value=-2 * den, max_value=2 * den)
    monos = st.fixed_dictionaries(
        {v: steps.map(lambda k, s=shifts[v]: s + Fraction(k, den)) for v in names}
    )
    return LaurentPoly(draw(st.dictionaries(monos.map(Monomial), coeffs, min_size=2, max_size=4)))


def poly(*terms):
    """The polynomial with the ``(exponents, coeff)`` terms, built without
    ring arithmetic."""
    return LaurentPoly({Monomial(exps): c for exps, c in terms})


def product_holds(p, q, roots):
    """The product of ``p`` and ``q`` evaluates to the product of their values."""
    prod = p * q
    x = at(roots, p, q, prod)
    assert value(prod, x) == value(p, x) * value(q, x)
    return prod


class TestProductFrame:
    @EXAMPLES
    @given(var_sets.flatmap(shifted_polys), var_sets.flatmap(shifted_polys), points)
    def test_multi_term_products(self, p, q, roots):
        product_holds(p, q, roots)

    def test_operand_keys_outside_the_spans(self):
        # x lies in [2, 3] in p and in [-2, -1] in q, so the product's span
        # [0, 2] holds neither operand's extreme exponent
        p = poly(({"x": 2}, 1), ({"x": 3}, 3))
        q = poly(({"x": -1}, 1), ({"x": -2}, -2))
        prod = product_holds(p, q, {"x": Fraction(2, 3)})
        assert prod == poly(({"x": 2}, 3), ({"x": 1}, -5), ({}, -2))

    def test_variable_in_one_operand_only(self):
        # the smaller operand p brings a denominator the larger one lacks
        p = poly(({"a": Fraction(-2, 3)}, 1), ({"a": 3}, 5))
        q = poly(({"t": Fraction(-1, 2)}, 1), ({"t": Fraction(3, 2)}, -1), ({}, 4))
        prod = product_holds(p, q, {"a": Fraction(-2, 3), "t": Fraction(5, 2)})
        assert prod.term_count() == 6

    def test_cross_terms_cancel(self):
        # (x + y)(x - y), with fractional and negative exponents
        p = poly(({"x": Fraction(1, 2)}, 1), ({"y": -1}, 1))
        q = poly(({"x": Fraction(1, 2)}, 1), ({"y": -1}, -1))
        prod = product_holds(p, q, {"x": Fraction(3, 2), "y": Fraction(-4, 3)})
        assert prod == poly(({"x": 1}, 1), ({"y": -2}, -1))

    def test_large_index_product(self):
        # K90 * K75 of large-index: wide fields, 181 x 151 terms
        series = knot_series(InvariantKind.HOMFLY, 90)
        roots = {"a": Fraction(3, 2), "t": Fraction(-2, 5)}
        product_holds(series.knot(90), series.knot(75), roots)


class TestAZConversions:
    @EXAMPLES
    @given(az_polys, rationals, rationals)
    def test_from_az_then_to_az(self, p, s, r):
        at_t = from_az_form(p)
        back = to_az_form(at_t)
        x = az_point(s, r, p, at_t, back)
        assert value(at_t, x) == value(p, x)
        assert value(back, x) == value(p, x)

    @EXAMPLES
    @given(st.integers(min_value=0, max_value=6), rationals, rationals)
    def test_knot_entries(self, m, s, r):
        entry = knot_series(InvariantKind.HOMFLY, m).knot(m)
        az = to_az_form(entry)
        back = from_az_form(az)
        x = az_point(s, r, entry, az, back)
        assert value(az, x) == value(entry, x)
        assert value(back, x) == value(entry, x)


# -- one value in two frames --------------------------------------------------


def same_value(a, b, roots):
    """``a`` and ``b`` are one value: equal both ways, equal hashes, the
    same text and JSON, and the same value at the oracle's point."""
    assert a == b and b == a and not a != b
    assert hash(a) == hash(b)
    assert str(a) == str(b)
    assert a.to_json() == b.to_json()
    x = at(roots, a, b)
    assert value(a, x) == value(b, x)


class TestCrossFrame:
    """A value keeps the keys of the frame it was built in, so one value can
    live in two frames; equality, hashing, printing and JSON must not see
    which."""

    @EXAMPLES
    @given(polys, polys, st.sampled_from((1, 10**6)), points)
    def test_sum_minus_operand(self, p, q, far, roots):
        # q carries y^(far/7), which p lacks: p + q - q lives in a frame with
        # y and sevenths, and with far = 10^6 a wider one
        q = q * Monomial.var("y", Fraction(far, 7)).as_poly() + q
        r = p + q - q
        assert r._f != p._f
        same_value(r, p, roots)

    @EXAMPLES
    @given(st.integers(min_value=-9, max_value=9), polys)
    def test_constants_hash_like_ints(self, c, q):
        r = c + q - q
        assert r == c and hash(r) == hash(c)

    @pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
    def test_ladder_entry_and_closed_sum(self, family):
        # the ladder's frame is sized for index 40 and joined with y
        spec = family_spec(family)
        y = LaurentPoly.var("y")
        k1, k2 = recurrence_coeffs(spec)
        ladder = two_term_ladder(k1 + y - y, k2, LaurentPoly.zero(), LaurentPoly.one(), range(9, 41, 31))
        entry = next(ladder)
        roots = {"a": Fraction(3, 2), "p": Fraction(-2, 3), "q": Fraction(5, 4), "t": Fraction(-3, 5)}
        assert entry._f != qp_number(spec, 9)._f
        same_value(entry, qp_number(spec, 9), roots)

    def test_fractional_and_integer_powers(self):
        # a^(2/3) brings thirds into the frame of a value that has none
        mixed = parse_poly("(a^(2/3)*t + a^2)*(a^(2/3)*t - a^2) - a^(4/3)*t^2")
        plain = parse_poly("-a^4")
        assert mixed._f != plain._f
        same_value(mixed, plain, {"a": Fraction(2, 3), "t": Fraction(5, 2)})
