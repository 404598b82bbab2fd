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
`TestRoutePins` pins which shapes of the benchmark's workloads take it,
and `TestLargeIndexShifts` runs every shift a `large-index` run reaches.
"""

import importlib.util
import io
import itertools
import random
import sys
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
EVENS = o_poly(*(({"t": 2 * i}, 1) for i in range(16)))  # slots two apart beside ONES' one
# a^0 t^1..t^20 + a (1 + t + ... + t^20): no term at the box's low corner,
# so the least slot of its square is 2
CORNERLESS = o_poly(*(({"a": i, "t": j}, 1 + i + j % 3) for i in range(2) for j in range(21) if i or j))
# (1 - t)^40: its square's coefficients pass 2^63, in both signs
WIDE = o_pow(o_poly(({}, 1), ({"t": 1}, -1)), 40)


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


def s_mul(p, q):
    """The product of two slot polynomials, dicts from a slot to a
    coefficient."""
    out = {}
    for i, a in p.items():
        for j, b in q.items():
            out[i + j] = out.get(i + j, 0) + a * b
    return {s: c for s, c in out.items() if c}


def laid(slots, *runs):
    """The oracle dict of a slot polynomial laid out in rows: slot s is the
    monomial whose exponents are the mixed-radix digits of s, t the last
    with ``runs[-1]`` values, then b when there are two runs, then a.  When
    the polynomial fills every exponent of its rows, these are the slots
    the packed route gives it."""
    out = {}
    for s, c in slots.items():
        exps = {}
        for v, run in zip("tb", reversed(runs)):
            s, exps[v] = divmod(s, run)
        exps["a"] = s
        out[mono(exps)] = c
    return {m: c for m, c in out.items() if c}


def signs(count, seed):
    """``count`` coefficients drawn from -2, -1, 1 and 2."""
    rng = random.Random(seed)
    return [rng.choice((-2, -1, 1, 2)) for _ in range(count)]


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


def outcome(fn, *args):
    """``fn(*args)``: the value it returns, or the type and text of the
    error it raises."""
    try:
        return fn(*args)
    except (NotDivisibleError, NotAPerfectSquareError) as exc:
        return type(exc), str(exc)


def term_route(fn, *args):
    """The `outcome` of ``fn(*args)`` with the packed route switched off."""
    with patch.object(_pykernel, "_route", lambda *_: None):
        return outcome(fn, *args)


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
    @example((ONES, EVENS))  # G from both operands' slots, not the smaller's
    def test_products_and_quotients(self, ab):
        products_and_quotients(*ab)

    @SETTINGS
    @given(dense_polys())
    @example(o_pow(ONE_A_ROOT_T, 12))
    @example(ONES)
    @example(CORNERLESS)  # the root's least slot half the square's
    # (1 + t)^30 - a: the root's last slot holds -a and its graded-lex
    # leading term is t^30, so the int root has the other sign
    @example(o_add(o_pow(o_poly(({}, 1), ({"t": 1}, 1)), 30), o_poly(({"a": 1}, -1))))
    def test_roots(self, a):
        root(a)

    def test_slots_wider_than_eight_bytes(self):
        # one `int.from_bytes` per slot
        p = ring(WIDE)
        with routes() as taken:
            products_and_quotients(WIDE, WIDE)
            root(WIDE)
        assert [grid.width > 8 for grid in taken] == [True] * 4
        assert packed(p.__mul__, p) == term_route(p.__mul__, p)

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

    # Each refusal of the route, reached on slot polynomials laid out in
    # rows (`laid`): the answer or the error is the term route's.

    def test_int_quotient_past_the_last_slot(self):
        # rows of 100: D = 1 + ... + t^40 + a ends at slot 100, not at its
        # box's corner, 140, so Q's 171 digits pass the quotient box's last
        # slot, 159
        q = dict(enumerate(signs(171, 1)))
        d = {**dict.fromkeys(range(41), 1), 100: 1}
        fails_as_term_route(exact_div, ring(laid(s_mul(q, d), 100)), ring(laid(d, 100)))

    def test_int_quotient_past_an_inner_top(self):
        # rows of 30 t-slots, 4 b-rows to an a-row: Q's digits fill b = 0..3,
        # but the quotient box stops at b = 2
        q = {30 * b + t: c for (b, t), c in zip(itertools.product(range(4), range(10)), signs(40, 2))}
        d = {30 * b + t: 1 for b in range(2) for t in range(21)}
        fails_as_term_route(exact_div, ring(laid(s_mul(q, d), 4, 30)), ring(laid(d, 4, 30)))

    def test_negative_quotient_offset(self):
        # the divisor's least slot is 1, the dividend's 0
        p = dict(enumerate(signs(271, 3)))
        d = {**dict.fromkeys(range(1, 41), 1), 100: 1}
        fails_as_term_route(exact_div, ring(laid(p, 100)), ring(laid(d, 100)))

    def test_empty_quotient_box(self):
        # rows of 62: P = 3 * s^61 * D, so P's int is 3 times D's, but P's
        # least slot, 61, lies past the quotient box's last, 31
        d = {**dict.fromkeys(range(31), 1), 62: 1}
        p = {61 + s: 3 * c for s, c in d.items()}
        fails_as_term_route(exact_div, ring(laid(p, 62)), ring(laid(d, 62)))

    def test_divisor_wider_than_the_dividend(self):
        # a*t / ((1 + a + a^2)(1 + t + t^2)): refused before the route
        num, den = ring(o_poly(({"a": 1, "t": 1}, 1))), ring(laid(dict.fromkeys(range(9), 1), 3))
        with routes() as taken:
            got = outcome(exact_div, num, den)
        assert taken == []
        assert got == term_route(exact_div, num, den)

    def test_quotient_past_its_coefficient_bound(self):
        # a true quotient of coefficients up to 4100: times the divisor's 16
        # ones they pass half a 2-byte slot, which the dividend's do not
        q = {j: (-1) ** j * 100 * min(j + 1, 82 - j) for j in range(82)}
        d = dict.fromkeys(range(16), 1)
        num, den = ring(laid(s_mul(q, d))), ring(laid(d))
        with routes() as taken:
            got = exact_div(num, den)
        assert [grid.width for grid in taken] == [2]
        assert read(got) == laid(q)

    def test_root_past_its_coefficient_bound(self):
        # R = 1 + 256 * A(s), A's 16 coefficients in -2..2: R's int squared
        # has base-2^16 digits below 1200, the square's coefficients, and
        # R's digits, up to 513, are past the root's bound in 2-byte slots
        x, r = 1 << 16, 1 + 256 * sum(c << 16 * j for j, c in enumerate(signs(15, 4) + [1]))
        n, square = r * r, {}
        for j in range(32):
            square[j] = (n + x // 2) % x - x // 2
            n = (n - square[j]) >> 16
        fails_as_term_route(exact_sqrt, ring(laid(square)))

    def test_negative_square(self):
        q = dict(enumerate(signs(40, 6)))
        fails_as_term_route(exact_sqrt, ring(laid({s: -c for s, c in s_mul(q, q).items()})))

    def test_odd_least_slot(self):
        # rows of 13: A's square moved up one slot, so its int is still a
        # perfect square, and A lies in the root's box
        a = {13 * i + j: c for (i, j), c in zip(itertools.product(range(5), range(7)), signs(35, 5))}
        fails_as_term_route(exact_sqrt, ring(laid({s + 1: c for s, c in s_mul(a, a).items()}, 13)))


# -- which workload shapes take the route ------------------------------------

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench(name):
    """A module of the benchmark, loaded from its file.  perfbench/ is on
    sys.path only while it loads, for the worker's own imports."""
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    with patch.object(sys, "path", [str(PERFBENCH), *sys.path]):
        spec.loader.exec_module(module)
    return module


workloads, worker, oracle = map(_perfbench, ("workloads", "worker", "oracle"))


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


class TestLargeIndexShifts:
    """Pass i of `large-index` shifts every index by zigzag(i) times a sign
    the seed picks, so a 30 s run reaches shifts of up to about 75 either
    way.  Every shift answers as the term route does, and every answer
    renders: the worker renders outside its per-operation ``try``."""

    @pytest.fixture(scope="class")
    def series(self):
        b = workloads.LARGE_BASE
        return knot_series(InvariantKind.HOMFLY, b["div_a"] + 75)

    @pytest.mark.parametrize("d", range(-75, 76))
    def test_products_quotients_and_roots(self, series, d):
        b = workloads.LARGE_BASE
        a, den, e = (series.knot(b[k] + d) for k in ("div_a", "div_b", "sqrt_m"))
        product, square = a * den, e * e
        assert product == term_route(a.__mul__, den)
        assert square == term_route(e.__mul__, e)
        quotient, root = exact_div(product, den), exact_sqrt(square)
        assert quotient == a
        assert root in (e, -e)
        assert all(map(str, (product, square, quotient, root)))

    @pytest.mark.parametrize("d", [-75, 75, -57])
    def test_benchmark_pass(self, d):
        # the pass at shift d, timed and rendered by the worker and checked
        # by the benchmark's oracle, as `perfbench/run.py` does
        m = workloads.LARGE_BASE["knot_m"] + d
        ops = next(
            ops
            for seed, i in itertools.product(range(8), (2 * abs(d) - 1, 2 * abs(d)))
            if (ops := workloads.large_index_pass(seed, i))[0]["m"] == m
        )
        _, _, results = worker._run_large(ops, None)
        verified = set()
        for op, out in zip(ops, worker._render_large(results)):
            assert out["err"] is None
            assert oracle.check_large(op, out["out"], verified) is None
