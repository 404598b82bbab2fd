"""Term-arithmetic kernel and monomial-order unit tests."""

from fractions import Fraction
from math import comb, lcm

from qpknot import LaurentPoly, _pykernel, to_az_form
from qpknot.laurent import Monomial


def exponent(e):
    """A `Monomial` exponent, ``n`` or ``(n, d)``, as a `Fraction`."""
    return Fraction(*e) if isinstance(e, tuple) else Fraction(e)


def mono(exps):
    """The packed ``(frame, key, reach)`` of the monomial with the exponent
    mapping ``exps``."""
    return Monomial(exps)._m


def items(exps):
    """The ``(var, num, den)`` items of an exponent mapping, in variable
    order, each exponent reduced and nonzero."""
    es = {v: exponent(e) for v, e in sorted(exps.items())}
    return tuple((v, e.numerator, e.denominator) for v, e in es.items() if e)


class TestOrder:
    def test_degree_dominates(self):
        # a^4 > a^2*t > a^2*t^-1 (degrees 4, 3, 1)
        m1 = mono({"a": 4})
        m2 = mono({"a": 2, "t": 1})
        m3 = mono({"a": 2, "t": -1})
        assert _pykernel.mono_cmp(m1, m2) == 1
        assert _pykernel.mono_cmp(m2, m3) == 1
        assert _pykernel.mono_cmp(m3, m1) == -1

    def test_tie_break_first_variable_larger_exponent(self):
        # equal degree 3: p^3 beats q^3 at variable p
        assert _pykernel.mono_cmp(mono({"p": 3}), mono({"q": 3})) == 1
        # equal degree 1: t beats a^-1*t^2 because 0 > -1 at variable a
        assert _pykernel.mono_cmp(mono({"t": 1}), mono({"a": -1, "t": 2})) == 1

    def test_fractional_degrees(self):
        assert _pykernel.mono_cmp(mono({"t": (1, 2)}), mono({"t": (-1, 2)})) == 1
        assert _pykernel.mono_cmp(mono({"t": (1, 3)}), mono({"t": (1, 2)})) == -1

    def test_equal(self):
        assert _pykernel.mono_cmp(mono({"q": 2, "p": 1}), mono({"p": 1, "q": 2})) == 0


class TestFrame:
    MONOS = [{"a": 2, "t": (-1, 2)}, {"t": (3, 2)}, {"a": -1}, {}, {"q": (1, 3), "t": -2}]
    # every exponent negative: each field holds a negative digit, so a
    # field or degree read without the frame's bias comes out wrong
    BELOW_ZERO = [{"a": -3, "t": -5}, {"a": -6, "t": (-7, 2)}, {"a": -4, "t": -3}]

    def frames(self):
        """(frame, monomials) for each list, the frame the least one that
        holds the monomials' items."""
        for monos in (self.MONOS, self.BELOW_ZERO):
            frame, _ = _pykernel.Frame.of([items(m) for m in monos])
            yield frame, monos

    def test_unpack_inverts_pack_and_sums_multiply(self):
        for frame, monos in self.frames():
            for m in monos:
                assert frame.unpack(frame.pack(items(m))) == items(m)
            # the spans hold the product of the first two
            e1, e2 = monos[:2]
            prod = {v: exponent(e1.get(v, 0)) + exponent(e2.get(v, 0)) for v in {*e1, *e2}}
            m1, m2, m12 = items(e1), items(e2), items(prod)
            wide, _ = _pykernel.Frame.of([m1, m2, m12])
            assert wide.unpack(wide.pack(m1) + wide.pack(m2)) == m12

    def test_degree_reads_the_top_field(self):
        for frame, monos in self.frames():
            for m in monos:
                deg = sum(map(exponent, m.values())) * frame.scale
                assert frame.degree(frame.pack(items(m))) == deg

    def test_rekey_moves_a_key_into_a_wider_frame(self):
        for frame, monos in self.frames():
            target = _pykernel.Frame((*frame.names, "z"), 6 * frame.scale).fit(1 << 20)
            for m in monos:
                key = frame.pack(items(m))
                assert frame.rekey(key, target) == target.pack(items(m))
                assert frame.rekey(key, frame) == key

    def reader_cases(self):
        """(frame, keys, monomials) for the column readers: the keys those of
        the monomials, each an exponent mapping, in order.  The first frame
        is a polynomial's, built from its monomials: negative exponents at
        scale 6.  The second is fitted past 16 bits and holds the widest
        exponents its fields take, +-(2^(width - 1) - 1) units."""
        monos = [
            {"a": Fraction(-5, 6), "q": Fraction(1, 3), "t": Fraction(-7, 2)},
            {"a": -2, "t": Fraction(3, 2)},
            {"q": Fraction(-4, 3)},
            {},
        ]
        p = LaurentPoly({Monomial(m): c for m, c in zip(monos, (1, -2, 3, 4))})
        assert p._f.scale == 6
        yield p._f, list(p._t), monos
        wide = _pykernel.Frame(("a", "q", "t"), 6).fit(10**6)
        assert wide.width > 16
        top = Fraction((1 << (wide.width - 1)) - 1, 6)
        monos = [{"a": top, "q": -top, "t": Fraction(1, 6)}, {"a": -top, "t": top}, {"q": top}]
        yield wide, [wide.pack(items(m)) for m in monos], monos

    def test_column_reads_each_variable(self):
        for frame, keys, monos in self.reader_cases():
            want = {v: [exponent(m.get(v, 0)) * frame.scale for m in monos] for v in frame.names}
            for v in frame.names:
                assert frame.column(keys, v) == want[v]
            assert frame.column(keys, "z") == [0] * len(keys)
            assert frame.columns(keys) == [want[v] for v in frame.names]
            assert frame.bounds(keys) == {v: (min(es), max(es)) for v, es in want.items()}

    def test_split_takes_one_variable_off_each_key(self):
        for frame, keys, monos in self.reader_cases():
            terms = dict(zip(keys, range(1, len(keys) + 1)))
            for v in (*frame.names, "z"):
                rests = [frame.pack(items({**m, v: 0})) for m in monos]
                es = [exponent(m.get(v, 0)) * frame.scale for m in monos]
                assert frame.split(terms, v) == list(zip(es, rests, terms.values()))

    def test_a_variable_whose_exponents_are_all_zero(self):
        # b cancels from every term but stays in the product's frame
        b, t = LaurentPoly.var("b"), LaurentPoly.var("t")
        p = (b * t + b * t**-1) * b**-1
        assert p._f.names == ("b", "t")
        assert p._f.bounds(p._t) == {"b": (0, 0), "t": (-p._f.scale, p._f.scale)}
        assert p.variables() == ("t",)
        assert to_az_form(p) == to_az_form(t + t**-1)

    def test_least_divides_the_scale_by_the_exponents_gcd(self):
        # keys packed from exact exponents: the least scale is the lcm of
        # their reduced denominators, whichever variable needs it; a
        # variable whose exponents are all 0 stays in the names
        cases = [
            (12, [{"a": Fraction(1, 2), "t": Fraction(3, 4)}, {"t": 1}]),  # 12 -> 4
            (12, [{"a": Fraction(1, 6), "t": Fraction(-1, 2)}, {"a": 2}]),  # 12 -> 6
            (2, [{"a": 2, "t": -3}, {"a": -1}, {}]),  # 2 -> 1
            (6, [{"b": 0, "q": Fraction(1, 3)}, {"b": 0, "q": -2}]),  # 6 -> 3
        ]
        for scale, monos in cases:
            names = tuple(sorted({v for m in monos for v in m}))
            frame = _pykernel.Frame(names, scale)
            terms = {frame.pack(items(m)): c for c, m in enumerate(monos, 1)}
            least, out = frame.least(terms)
            want = lcm(*(exponent(e).denominator for m in monos for e in m.values()))
            assert (least.names, least.scale, least.width) == (names, want, frame.width)
            assert [least.unpack(k) for k in out] == [items(m) for m in monos]
            assert list(out.values()) == list(terms.values())
        # no terms: scale 1; the constants' frame: the terms as they are
        frame = _pykernel.Frame(("a", "t"), 12)
        assert frame.least({}) == (_pykernel.Frame(("a", "t")), {})
        assert _pykernel.Frame((), 4).least({0: 5}) == (_pykernel.Frame(), {0: 5})
        assert _pykernel.Frame().least({0: 5}) == (_pykernel.Frame(), {0: 5})

    def test_outside_names_first_variable_out_of_box(self):
        frame = _pykernel.Frame(("a", "t"), 2)
        k = frame.pack(items({"a": -1, "t": 2}))
        assert frame.outside(k, {"a": (-2, 2), "t": (-4, 4)}) is None
        assert frame.outside(k, {"a": (0, 2), "t": (-4, 2)}) == ("a", -2, 0, 2)
        assert frame.outside(k, {"a": (-2, 2), "t": (-4, 2)}) == ("t", 4, -4, 2)
        # both out: the first in variable order, whatever the box's order
        assert frame.outside(k, {"t": (-4, 2), "a": (0, 2)}) == ("a", -2, 0, 2)
        frame = _pykernel.Frame(("a", "q", "t"), 1)
        k = frame.pack(items({"a": 1, "q": -3, "t": 5}))
        box = {"t": (0, 4), "q": (-2, 2), "a": (0, 1)}
        assert frame.outside(k, box) == ("q", -3, -2, 2)

    def test_outside_reads_spans_below_zero(self):
        frame = _pykernel.Frame(("a", "t"), 1)
        k = frame.pack(items({"a": -4, "t": -7}))
        assert frame.outside(k, {"a": (-6, -3), "t": (-9, -5)}) is None
        assert frame.outside(k, {"a": (-3, -3), "t": (-9, -5)}) == ("a", -4, -3, -3)
        assert frame.outside(k, {"a": (-6, -3), "t": (-6, -5)}) == ("t", -7, -6, -5)


# one frame for the term-dict tests: a, q and t in halves
FRAME = _pykernel.Frame(("a", "q", "t"), 2)


def packed(exps):
    """Key in FRAME of the monomial with the exponent mapping ``exps``."""
    return FRAME.pack(items(exps))


class TestPyKernel:
    def test_mono_mul_merges_and_cancels(self):
        frame, key, reach = _pykernel.mono_mul(mono({"q": 1, "t": 2}), mono({"t": -2, "a": 1}))
        assert (frame.unpack(key), reach) == (items({"a": 1, "q": 1}), 4)

    def test_mono_pow_zero_is_one(self):
        assert _pykernel.mono_pow(mono({"t": 5}), 0, 1)[1:] == (0, 0)

    def test_mono_pow_scales_the_units(self):
        frame, key, reach = _pykernel.mono_pow(mono({"a": 2, "t": (1, 2)}), -2, 3)
        assert (frame.unpack(key), reach) == (items({"a": (-4, 3), "t": (-1, 3)}), 2)
        assert frame.scale == 3

    def test_mono_pow_lands_at_the_least_scale(self):
        m = mono({"t": (1, 2)})
        for r in ((3, 1), (1, 3), (6, 1), (1, 3)):
            m = _pykernel.mono_pow(m, *r)
        assert m[0].scale == 1 and m[0].unpack(m[1]) == items({"t": 1})

    def test_mono_deg_is_the_degree_over_the_scale(self):
        n, d = _pykernel.mono_deg(mono({"a": 2, "t": (-1, 2), "q": (1, 3)}))
        assert Fraction(n, d) == Fraction(11, 6)

    def test_poly_add_cancellation(self):
        t1 = {packed({"t": 1}): 1, packed({"t": -1}): 1}
        t2 = {packed({"t": -1}): -1}
        assert _pykernel.poly_add(t1, t2) == {packed({"t": 1}): 1}

    def test_poly_accum_term_mul_matches_term_mul(self):
        t = {packed({"t": 1}): 2, 0: -1}
        out = {packed({"q": 1}): 7}
        q = packed({"q": 1})
        assert _pykernel.poly_term_mul(t, q, 3) == {packed({"q": 1, "t": 1}): 6, q: -3}
        assert _pykernel.poly_accum_term_mul(out, t, q, 3) is out
        assert out == {packed({"q": 1, "t": 1}): 6, q: 4}
        _pykernel.poly_accum_term_mul(out, {0: 1}, q, -4)
        assert out == {packed({"q": 1, "t": 1}): 6}

    def test_poly_mul_by_empty_operand(self):
        t = {packed({"t": 1}): 2, packed({"a": (-1, 2)}): -1}
        assert _pykernel.poly_mul(t, {}, FRAME) == {}
        assert _pykernel.poly_mul({}, t, FRAME) == {}
        assert _pykernel.poly_mul({}, {}, FRAME) == {}

    def test_poly_mul_by_one_term(self):
        t = {packed({"t": 1}): 2, packed({"a": (-1, 2)}): -1, 0: 5}
        half = packed({"a": (1, 2)})
        want = {packed({"a": (1, 2), "t": 1}): -6, 0: 3, half: -15}
        assert _pykernel.poly_mul(t, {half: -3}, FRAME) == want
        assert _pykernel.poly_mul({half: -3}, t, FRAME) == want

    def test_dense_div_refuses_a_digit_one_step_past_the_box(self):
        # P = Q * (1 + t)^20, Q of degree 21, with P's term t^41 moved to a:
        # P's rows are 41 slots long, so the int quotient is Q's, and its
        # digit t^21 lies one step past the quotient box's top, t^20, and
        # before the box's next row, a
        den = {packed({"t": j}): comb(20, j) for j in range(21)}
        quot = {packed({"t": j}): 1 + j % 3 for j in range(22)}
        num = _pykernel.poly_mul(quot, den, FRAME)
        num[packed({"a": 1})] = num.pop(packed({"t": 41}))
        assert _pykernel.dense_div(FRAME, num, den, FRAME.span(num), FRAME.span(den)) is None
