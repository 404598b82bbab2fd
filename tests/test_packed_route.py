"""The kernel's packed route: products, exact quotients and square roots of
dense polynomials on one big int each (`_pykernel.dense_div`,
`_pykernel.dense_sqrt`, and `poly_mul` through `_packed_mul`).

The oracle holds a polynomial as a dict from a monomial, a sorted tuple of
``(var, Fraction)`` pairs, to its coefficient, and multiplies two of them
term pair by term pair.  The operands are built from those dicts, so a
product, quotient or root the oracle never asked the ring for, and every
answer is read back through ``terms()`` and compared term by term: a defect
in how frames join shows as a wrong term, where an oracle that read the
ring's own operands would agree with them.  Each case also checks that it
took the packed route, and answers and errors are compared with the term
route's, the packed route switched off.

The route is taken when one rule holds (`_pykernel._route`);
`TestRoutePins` pins which shapes of the benchmark's workloads take it.
"""

import importlib.util
import io
import random
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from unittest.mock import patch

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
    _pykernel,
    exact_div,
    exact_sqrt,
    family_spec,
    homfly_alexander_multiplier,
    homfly_jones_multiplier,
    knot_series,
    qp_number_division,
)
from qpknot import laurent
from qpknot.cli import main

# -- the oracle -------------------------------------------------------------


def mono(exps):
    """The oracle's monomial of an exponent mapping: its nonzero exponents,
    sorted."""
    return tuple(sorted((v, Fraction(e)) for v, e in exps.items() if e))


def o_mul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            e = dict(m1)
            for v, x in m2:
                e[v] = e.get(v, 0) + x
            m = mono(e)
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def o_add(p, q):
    out = dict(p)
    for m, c in q.items():
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def o_pow(p, k):
    out = {(): 1}
    for _ in range(k):
        out = o_mul(out, p)
    return out


def ring(p):
    """The ring's polynomial of an oracle dict, built without ring
    arithmetic."""
    return LaurentPoly({Monomial(dict(m)): c for m, c in p.items()})


def read(poly):
    """The oracle dict of a ring polynomial, read through ``terms()``."""
    return {mono(m.exponents): c for m, c in poly.terms()}


def o_poly(*terms):
    """The oracle dict of ``(exponents, coeff)`` pairs."""
    return {mono(e): c for e, c in terms}


ONE_A_ROOT_T = o_poly(({}, 1), ({"a": 1}, 1), ({"t": Fraction(1, 2)}, 1))  # 1 + a + t^(1/2)
ONES = o_poly(*(({"t": i}, 1) for i in range(128)))  # every product coefficient at its bound


def folded(e, d, fold):
    """``(P, D)`` with D = (1 + t)^d and P the product of D and a dense
    polynomial of degree e, with every term t^j, j >= fold, moved to
    a*t^(j - fold).  With a one lattice step above t^fold, P's int is still
    the product of D's and that polynomial's, whose terms lie past the
    quotient's Newton box in t: P/D does not exist, and only the box check
    of `_Grid.unpack` rejects the int quotient."""
    den = o_pow(o_poly(({}, 1), ({"t": 1}, 1)), d)
    rng = random.Random(e)
    q = o_poly(*(({"t": j}, rng.choice((-2, -1, 1, 2))) for j in range(e + 1)))
    num = {}
    for m, c in o_mul(q, den).items():
        j = dict(m).get("t", 0)
        num[mono({"t": j - fold, "a": 1} if j >= fold else {"t": j})] = c
    return num, den


# -- dense operands ---------------------------------------------------------


@st.composite
def dense_polys(draw, a_gap=None, den=None):
    """A polynomial filling most of a box over a and t: one to three
    a-exponents ``a_gap`` apart (1 or 2), 32 to 48 t-exponents 1/``den``
    apart (den in 1-3), the box's low corner anywhere near 0, and about one
    slot in eight left empty; the coefficients lie in -9..9."""
    a_gap = a_gap or draw(st.sampled_from((1, 2)))
    den = den or draw(st.integers(1, 3))
    a_steps, t_steps = draw(st.integers(1, 3)), draw(st.integers(32, 48))
    a0, t0 = draw(st.integers(-4, 4)), draw(st.integers(-40, 40))
    rng = random.Random(draw(st.integers(0, 2**32)))
    terms = {}
    for i in range(a_steps):
        for j in range(t_steps):
            if rng.randrange(8) or (i, j) == (0, 0):
                c = rng.choice((-1, 1)) * rng.randint(1, 9)
                terms[mono({"a": a0 + a_gap * i, "t": Fraction(t0 + j, den)})] = c
    return terms


@st.composite
def dense_pairs(draw):
    """Two polynomials as `dense_polys` draws them, on one lattice."""
    a_gap, den = draw(st.sampled_from((1, 2))), draw(st.integers(1, 3))
    return draw(dense_polys(a_gap, den)), draw(dense_polys(a_gap, den))


KNOTS = (20, 30, 41, 50)  # indices of knot entries


@pytest.fixture(scope="module")
def knots():
    series = knot_series(InvariantKind.HOMFLY, max(KNOTS))
    return {m: read(series.knot(m)) for m in KNOTS}


@contextmanager
def routes():
    """A list that gains the `_Grid` of each packed route taken inside the
    block: each call that passed the route's rule."""
    out = []
    route = _pykernel._route

    def counting(*args):
        grid = route(*args)
        if grid is not None:
            out.append(grid)
        return grid

    with patch.object(_pykernel, "_route", counting):
        yield out


def term_route(fn, *args):
    """``fn(*args)`` with the packed route switched off: the value it
    returns, or the type and text of the error it raises."""
    with patch.object(_pykernel, "_route", lambda *_: None):
        try:
            return fn(*args)
        except (NotDivisibleError, NotAPerfectSquareError) as exc:
            return type(exc), str(exc)


def packed(fn, *args):
    """``fn(*args)``, answered by the packed route: its rule holds once, and
    neither the summing loop of `poly_mul` nor the reduction of `exact_div`
    and `exact_sqrt` runs, as they would if the route gave up."""

    def refused(*_):
        raise AssertionError("the term route ran")

    with (
        routes() as taken,
        patch.object(_pykernel, "poly_accum_term_mul", refused),
        patch.object(laurent, "_reduce", refused),
    ):
        out = fn(*args)
    assert len(taken) == 1
    return out


def fails_as_term_route(fn, *args):
    """``fn(*args)`` takes the packed route, which fails, and raises the
    term route's error, word for word."""
    kind, text = term_route(fn, *args)
    with routes() as taken, pytest.raises(kind) as info:
        fn(*args)
    assert len(taken) == 1
    assert str(info.value) == text


def products_and_quotients(a, b):
    pa, pb = ring(a), ring(b)
    want = o_mul(a, b)
    assert read(packed(pa.__mul__, pb)) == want
    # the quotients of the oracle's product, by either factor
    num = ring(want)
    assert read(packed(exact_div, num, pb)) == a
    assert read(packed(exact_div, num, pa)) == b


def root(a):
    square = ring(o_mul(a, a))
    got = packed(exact_sqrt, square)
    assert read(got) in (a, {m: -c for m, c in a.items()})
    # the leading coefficient positive, as on the term route
    assert got == term_route(exact_sqrt, square)


SETTINGS = settings(max_examples=8, deadline=None)
BUMPS = st.integers(-3, 3).filter(bool)


class TestPackedOracle:
    @pytest.mark.parametrize("m1, m2", [(50, 41), (30, 30), (41, 20)])
    def test_knot_entries(self, knots, m1, m2):
        products_and_quotients(knots[m1], knots[m2])
        root(knots[m1])

    @SETTINGS
    @given(dense_pairs())
    @example((o_pow(ONE_A_ROOT_T, 11), o_pow(ONE_A_ROOT_T, 9)))
    @example((ONES, ONES))  # every coefficient of the product at its bound
    def test_products_and_quotients(self, ab):
        products_and_quotients(*ab)

    @SETTINGS
    @given(dense_polys())
    @example(o_pow(ONE_A_ROOT_T, 12))
    @example(ONES)
    # (1 + t)^30 - a: the root's last slot holds -a and its graded-lex
    # leading term is t^30, so the int root has the other sign
    @example(o_add(o_pow(o_poly(({}, 1), ({"t": 1}, 1)), 30), o_poly(({"a": 1}, -1))))
    def test_roots(self, a):
        root(a)

    def test_sparse_product_never_packs(self):
        # (a^1000000 + 1)(a^1000000 - 1): three slots a lattice step of
        # 10^6 apart, four term pairs
        p = ring(o_poly(({"a": 10**6}, 1), ({}, 1)))
        q = ring(o_poly(({"a": 10**6}, 1), ({}, -1)))
        with routes() as taken:
            prod = p * q
        assert taken == []
        assert read(prod) == o_poly(({"a": 2 * 10**6}, 1), ({}, -1))


class TestPackedFailures:
    """A quotient that does not exist and a square that is not one take the
    packed route, which fails, and then fail with the term route's error."""

    @SETTINGS
    @given(dense_pairs(), st.integers(0, 10**6), BUMPS)
    @example((o_pow(ONE_A_ROOT_T, 11), o_pow(ONE_A_ROOT_T, 9)), 7, 1)
    def test_non_exact_quotients(self, ab, where, bump):
        a, b = ab
        num = o_mul(a, b)
        m = sorted(num)[where % len(num)]
        fails_as_term_route(exact_div, ring(o_add(num, {m: bump})), ring(b))

    def test_int_quotient_past_the_newton_box(self):
        num, den = folded(40, 20, 40)
        fails_as_term_route(exact_div, ring(num), ring(den))

    @SETTINGS
    @given(dense_polys(), st.integers(0, 10**6), BUMPS)
    @example(o_pow(ONE_A_ROOT_T, 12), 3, -1)
    def test_non_squares(self, a, where, bump):
        square = o_mul(a, a)
        m = sorted(square)[where % len(square)]
        fails_as_term_route(exact_sqrt, ring(o_add(square, {m: bump})))


# -- which workload shapes take the route ------------------------------------

# The benchmark's input generators, loaded from their file without putting
# perfbench/ on sys.path.
_spec = importlib.util.spec_from_file_location(
    "workloads", Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
)
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


class TestRoutePins:
    """The rule keeps the small and sparse calls of `verify` and the
    request mix on the term route, where the packed route would only add
    its set-up, and sends the heavy calls of `large-index` down the packed
    route."""

    @pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
    def test_three_route_quotients_stay(self, family):
        # (u^n - v^n)/(u - v): a two-term divisor
        spec = family_spec(family)
        with routes() as taken:
            for n in range(61):
                qp_number_division(spec, n)
        assert taken == []

    def test_monomial_quotients_stay(self):
        # [n]^H/[n]^A and [n]^H/[n]^V of eq33 and eq34: the quotient box
        # is one slot
        with routes() as taken:
            for n in range(1, 61):
                homfly_alexander_multiplier(n)
                homfly_jones_multiplier(n)
        assert taken == []

    def test_request_mix_eval_shapes_stay(self):
        evals = [r for r in workloads.request_mix_pass(1, 0) if r["argv"][0] == "eval"]
        assert len(evals) == 120
        with routes() as taken:
            for r in evals:
                assert main(r["argv"], out=io.StringIO()) == r["expect"]
        assert taken == []

    def test_large_index_calls_pack(self):
        b = workloads.LARGE_BASE
        series = knot_series(InvariantKind.HOMFLY, max(b["div_a"], b["sqrt_m"]))
        a, d, e = series.knot(b["div_a"]), series.knot(b["div_b"]), series.knot(b["sqrt_m"])
        product = packed(a.__mul__, d)
        assert packed(exact_div, product, d) == a
        square = packed(e.__mul__, e)
        assert packed(exact_sqrt, square) in (e, -e)
