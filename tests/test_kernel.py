"""Term-arithmetic kernel and monomial-order unit tests."""

from qpknot import _pykernel
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


class TestPyKernel:
    def test_mono_mul_merges_and_cancels(self):
        got = _pykernel.mono_mul(key({"q": 1, "t": 2}), key({"t": -2, "a": 1}))
        assert got == key({"a": 1, "q": 1})

    def test_mono_pow_zero_is_one(self):
        assert _pykernel.mono_pow(key({"t": 5}), 0, 1) == ()

    def test_poly_add_cancellation(self):
        t1 = {key({"t": 1}): 1, key({"t": -1}): 1}
        t2 = {key({"t": -1}): -1}
        assert _pykernel.poly_add(t1, t2) == {key({"t": 1}): 1}

    def test_poly_accum_term_mul_matches_term_mul(self):
        t = {key({"t": 1}): 2, (): -1}
        out = {key({"q": 1}): 7}
        assert _pykernel.poly_term_mul(t, key({"q": 1}), 3) == {key({"q": 1, "t": 1}): 6, key({"q": 1}): -3}
        assert _pykernel.poly_accum_term_mul(out, t, key({"q": 1}), 3) is out
        assert out == {key({"q": 1, "t": 1}): 6, key({"q": 1}): 4}
        _pykernel.poly_accum_term_mul(out, {(): 1}, key({"q": 1}), -4)
        assert out == {key({"q": 1, "t": 1}): 6}
