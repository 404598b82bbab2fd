"""Term-arithmetic kernel and monomial-order unit tests."""

from fractions import Fraction

from qpknot import _kernel, _pykernel
from qpknot.laurent import Monomial


def key(text_exps):
    return Monomial(text_exps)._key


class TestOrder:
    def test_degree_dominates(self):
        # a^4 > a^2*t > a^2*t^-1 (degrees 4, 3, 1)
        k1 = key({"a": 4})
        k2 = key({"a": 2, "t": 1})
        k3 = key({"a": 2, "t": -1})
        assert _pykernel.mono_cmp(k1, k2) == 1
        assert _pykernel.mono_cmp(k2, k3) == 1
        assert _pykernel.mono_cmp(k3, k1) == -1

    def test_tie_break_first_variable_larger_exponent(self):
        # equal degree 3: p^3 beats q^3 at variable p
        assert _pykernel.mono_cmp(key({"p": 3}), key({"q": 3})) == 1
        # equal degree 1: t beats a^-1*t^2 because 0 > -1 at variable a
        assert _pykernel.mono_cmp(key({"t": 1}), key({"a": -1, "t": 2})) == 1

    def test_fractional_degrees(self):
        assert _pykernel.mono_cmp(key({"t": (1, 2)}), key({"t": (-1, 2)})) == 1
        assert _pykernel.mono_cmp(key({"t": (1, 3)}), key({"t": (1, 2)})) == -1

    def test_equal(self):
        assert _pykernel.mono_cmp(key({"q": 2, "p": 1}), key({"p": 1, "q": 2})) == 0


class TestFrame:
    MONOS = [{"a": 2, "t": (-1, 2)}, {"t": (3, 2)}, {"a": -1}, {}, {"q": (1, 3), "t": -2}]
    # every exponent negative: each field holds a negative digit, so a
    # field or degree read without the frame's bias comes out wrong
    BELOW_ZERO = [{"a": -3, "t": -5}, {"a": -6, "t": (-7, 2)}, {"a": -4, "t": -3}]

    def frames(self):
        """(frame, keys) for each monomial list, the frame the least one
        that holds its keys."""
        for monos in (self.MONOS, self.BELOW_ZERO):
            keys = [key(m) for m in monos]
            frame, _ = _pykernel.Frame.of(keys)
            yield frame, keys

    def test_unpack_inverts_pack_and_sums_multiply(self):
        for frame, keys in self.frames():
            for m in keys:
                assert frame.unpack(frame.pack(m)) == m
            # the spans hold the product of the first two
            m1, m2 = keys[:2]
            prod = _pykernel.mono_mul(m1, m2)
            wide, _ = _pykernel.Frame.of([m1, m2, prod])
            assert wide.unpack(wide.pack(m1) + wide.pack(m2)) == prod

    def test_degree_reads_the_top_field(self):
        for frame, keys in self.frames():
            for m in keys:
                deg = Fraction(*_pykernel.mono_deg(m)) * frame.scale
                assert frame.degree(frame.pack(m)) == deg

    def test_outside_names_first_variable_out_of_box(self):
        frame = _pykernel.Frame(("a", "t"), 2)
        k = frame.pack(key({"a": -1, "t": 2}))
        assert frame.outside(k, {"a": (-2, 2), "t": (-4, 4)}) is None
        assert frame.outside(k, {"a": (0, 2), "t": (-4, 2)}) == ("a", -2, 0, 2)
        assert frame.outside(k, {"a": (-2, 2), "t": (-4, 2)}) == ("t", 4, -4, 2)

    def test_outside_reads_spans_below_zero(self):
        frame = _pykernel.Frame(("a", "t"), 1)
        k = frame.pack(key({"a": -4, "t": -7}))
        assert frame.outside(k, {"a": (-6, -3), "t": (-9, -5)}) is None
        assert frame.outside(k, {"a": (-3, -3), "t": (-9, -5)}) == ("a", -4, -3, -3)
        assert frame.outside(k, {"a": (-6, -3), "t": (-6, -5)}) == ("t", -7, -6, -5)


# one frame for the term-dict tests: a, q and t in halves
FRAME = _pykernel.Frame(("a", "q", "t"), 2)


def packed(exps):
    """Key in FRAME of the monomial with the exponent mapping ``exps``."""
    return FRAME.pack(key(exps))


def items_of(exps):
    """``(var, num, den)`` items of a `Monomial` exponent mapping."""
    return [(v, *(e if isinstance(e, tuple) else (e, 1))) for v, e in exps.items()]


class TestKeyHelpers:
    def test_mono_items_inverts_mono_of(self):
        for m in TestFrame.MONOS:
            items = items_of(m)
            k = _kernel.mono_of(reversed(items))
            assert k == key(m)
            assert list(_kernel.mono_items(k)) == sorted(items)

    def test_mono_of_reduces_and_drops_zero_exponents(self):
        assert _kernel.mono_of([("t", 2, 2)]) == key({"t": 1})
        assert _kernel.mono_of([("t", -6, 4), ("a", 0, 3)]) == key({"t": (-3, 2)})
        assert _kernel.mono_of([("z", 0, 1)]) == _kernel.ONE == key({})
        assert Monomial._from_key(_kernel.ONE).is_one


class TestPyKernel:
    def test_mono_mul_merges_and_cancels(self):
        got = _pykernel.mono_mul(key({"q": 1, "t": 2}), key({"t": -2, "a": 1}))
        assert got == key({"a": 1, "q": 1})

    def test_mono_pow_zero_is_one(self):
        assert _pykernel.mono_pow(key({"t": 5}), 0, 1) == ()

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
        assert _pykernel.poly_mul(t, {}) == {}
        assert _pykernel.poly_mul({}, t) == {}
        assert _pykernel.poly_mul({}, {}) == {}

    def test_poly_mul_by_one_term(self):
        t = {packed({"t": 1}): 2, packed({"a": (-1, 2)}): -1, 0: 5}
        half = packed({"a": (1, 2)})
        want = {packed({"a": (1, 2), "t": 1}): -6, 0: 3, half: -15}
        assert _pykernel.poly_mul(t, {half: -3}) == want
        assert _pykernel.poly_mul({half: -3}, t) == want

    def test_mono_split(self):
        m = key({"a": 2, "t": (1, 2), "z": 3})
        assert _pykernel.mono_split(m, "t") == (1, 2, key({"a": 2, "z": 3}))
        assert _pykernel.mono_split(m, "a") == (2, 1, key({"t": (1, 2), "z": 3}))
        assert _pykernel.mono_split(m, "q") == (0, 1, m)
        assert _pykernel.mono_split((), "t") == (0, 1, ())
