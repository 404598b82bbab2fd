"""Skein engine: coefficient tables, series generation, specialization,
the reverse square-root construction and the (a, z) change of variable."""


from fractions import Fraction
from math import ceil, comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qpknot.skein
from qpknot import (
    BadRangeError,
    Family,
    InvariantKind,
    LaurentPoly,
    Monomial,
    NotExpressibleError,
    from_az_form,
    knot_coeffs,
    knot_series,
    link_coeffs,
    link_series,
    parse_poly,
    skein_from_numbers,
    specialize_homfly,
    to_az_form,
    unlink2,
)
from qpknot.skein import InvariantSeries, link_entries

A = InvariantKind.ALEXANDER
V = InvariantKind.JONES
H = InvariantKind.HOMFLY


class TestCoefficients:
    def test_link_coeffs(self):
        c = link_coeffs(A)
        assert (c.l1, c.l2) == (parse_poly("t^(1/2) - t^(-1/2)"), LaurentPoly.one())
        c = link_coeffs(V)
        assert (c.l1, c.l2) == (parse_poly("t^(3/2) - t^(1/2)"), parse_poly("t^2"))
        c = link_coeffs(H)
        assert (c.l1, c.l2) == (parse_poly("a*t^(1/2) - a*t^(-1/2)"), parse_poly("a^2"))

    def test_knot_coeffs(self):
        k = knot_coeffs(A)
        assert (k.k1, k.k2) == (parse_poly("t + t^-1"), parse_poly("-1"))
        k = knot_coeffs(V)
        assert (k.k1, k.k2) == (parse_poly("t^3 + t"), parse_poly("-t^4"))
        k = knot_coeffs(H)
        assert (k.k1, k.k2) == (parse_poly("a^2*t + a^2*t^-1"), parse_poly("-a^4"))

    def test_knot_coeffs_formula(self):
        for kind in InvariantKind:
            c = link_coeffs(kind)
            k = knot_coeffs(kind)
            assert k.k1 == c.l1 * c.l1 + 2 * c.l2
            assert k.k2 == -(c.l2 * c.l2)


class TestUnlink2:
    def test_alexander_vanishes(self):
        assert unlink2(A) == LaurentPoly.zero()

    def test_jones(self):
        assert unlink2(V) == parse_poly("-t^(1/2) - t^(-1/2)")

    def test_homfly_lives_in_az(self):
        # (1 - a^2)/(a*z) = (a^-1 - a) * z^-1
        assert unlink2(H) == parse_poly("a^-1*z^-1 - a*z^-1")

    def test_consistency_with_link_relation(self):
        # l1 * unlink2 + l2 * 1 = 1 (the relation that defined it)
        for kind in (A, V):
            c = link_coeffs(kind)
            assert c.l1 * unlink2(kind) + c.l2 == LaurentPoly.one()
        # same relation for the two-variable kind, taken in (a, z)
        l1z = parse_poly("a*z")
        l2z = parse_poly("a^2")
        assert l1z * unlink2(H) + l2z == LaurentPoly.one()


class TestLinkSeries:
    def test_alexander_entries(self):
        s = link_series(A, 4)
        assert s.entry(0) == LaurentPoly.zero()
        assert s.entry(1) == LaurentPoly.one()
        assert s.entry(2) == parse_poly("t^(1/2) - t^(-1/2)")  # Hopf link
        assert s.entry(3) == parse_poly("t - 1 + t^-1")  # trefoil

    def test_jones_hopf(self):
        s = link_series(V, 3)
        assert s.entry(2) == parse_poly("-t^(5/2) - t^(1/2)")
        assert s.entry(3) == parse_poly("t + t^3 - t^4")

    def test_homfly_entries_in_az(self):
        s = link_series(H, 3)
        assert 0 not in s.entries
        assert s.entry(2) == parse_poly("a*z + a*z^-1 - a^3*z^-1")
        assert s.entry(3) == parse_poly("a^2*z^2 + 2*a^2 - a^4")

    def test_homfly_odd_entries_convert_to_at(self):
        s = link_series(H, 7)
        knots = knot_series(H, 3)
        for m in range(0, 4):
            assert from_az_form(s.entry(2 * m + 1)) == knots.knot(m)

    def test_bad_range(self):
        with pytest.raises(BadRangeError):
            link_series(A, 1)

    def test_series_is_a_prefix_of_the_entry_generator(self):
        for kind in InvariantKind:
            walked = list(link_entries(kind, range(10)))
            assert walked[0] == unlink2(kind)
            stored = link_series(kind, 9).entries
            assert stored == {n: e for n, e in enumerate(walked) if n in stored}
            assert (0 in stored) is (kind is not H)

    def test_recurrence_holds_in_stored_entries(self):
        for kind in (A, V):
            c = link_coeffs(kind)
            s = link_series(kind, 9)
            for n in range(1, 9):
                assert s.entry(n + 1) == c.l1 * s.entry(n) + c.l2 * s.entry(n - 1)


class TestKnotSeries:
    def test_trefoils(self):
        assert knot_series(A, 1).knot(1) == parse_poly("t - 1 + t^-1")
        assert knot_series(V, 1).knot(1) == parse_poly("t + t^3 - t^4")
        assert knot_series(H, 1).knot(1) == parse_poly("a^2*t + a^2*t^-1 - a^4")

    def test_unknot(self):
        for kind in InvariantKind:
            assert knot_series(kind, 0).knot(0) == LaurentPoly.one()

    def test_cinquefoil_alexander(self):
        assert knot_series(A, 2).knot(2) == parse_poly("t^2 - t + 1 - t^-1 + t^-2")

    def test_cinquefoil_jones_homfly(self):
        assert knot_series(V, 2).knot(2) == parse_poly("t^2 + t^4 - t^5 + t^6 - t^7")
        assert knot_series(H, 2).knot(2) == parse_poly(
            "a^4*t^2 + a^4 + a^4*t^-2 - a^6*t - a^6*t^-1"
        )

    def test_knot_recurrence_reverified_from_entries(self):
        for kind in InvariantKind:
            k = knot_coeffs(kind)
            s = knot_series(kind, 12)
            for m in range(2, 13):
                n = 2 * m + 1
                assert s.entry(n) == k.k1 * s.entry(n - 2) + k.k2 * s.entry(n - 4)

    def test_matches_link_series(self):
        for kind in (A, V):
            knots = knot_series(kind, 10)
            links = link_series(kind, 21)
            for m in range(0, 11):
                assert knots.knot(m) == links.entry(2 * m + 1)

    def test_bad_range(self):
        with pytest.raises(BadRangeError):
            knot_series(A, -1)


def closed_form_knot(m: int) -> dict:
    """Entry m of the two-variable knot series as ``(a, t) exponent pair ->
    coefficient``, from the closed form alone: the sum over i = 0..m of
    a^(2m)*t^(m-2i), minus the sum over i = 0..m-1 of a^(2m+2)*t^(m-1-2i)."""
    terms = {(2 * m, m - 2 * i): 1 for i in range(m + 1)}
    terms.update({(2 * m + 2, m - 1 - 2 * i): -1 for i in range(m)})
    return terms


def specialized(terms: dict, a_to_t: int) -> dict:
    """The image under a -> t^a_to_t, as ``t exponent -> coefficient``."""
    out: dict = {}
    for (ea, et), c in terms.items():
        e = et + a_to_t * ea
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


class TestKnotOracle:
    """Every knot entry up to m = 120 against its closed form, built from
    integer exponents and ±1 coefficients without the ring's arithmetic."""

    M = 120

    def test_homfly(self):
        s = knot_series(H, self.M)
        for m in range(self.M + 1):
            want = LaurentPoly.from_terms(
                (Monomial({"a": ea, "t": et}), c) for (ea, et), c in closed_form_knot(m).items()
            )
            assert s.knot(m)._t == want._t, m

    @pytest.mark.parametrize("kind, a_to_t", [(A, 0), (V, 1)])
    def test_one_variable_specializations(self, kind, a_to_t):
        s = knot_series(kind, self.M)
        for m in range(self.M + 1):
            want = LaurentPoly.from_terms(
                (Monomial({"t": e}), c) for e, c in specialized(closed_form_knot(m), a_to_t).items()
            )
            assert s.knot(m)._t == want._t, m


def _az_poly(terms: dict) -> LaurentPoly:
    """The (a, z) polynomial of ``(a exponent, z exponent) -> coefficient``."""
    return LaurentPoly.from_terms((Monomial({"a": ea, "z": ez}), c) for (ea, ez), c in terms.items())


def _add(terms: dict, key: tuple, c: int) -> None:
    terms[key] = terms.get(key, 0) + c


def closed_form_link(n: int) -> dict:
    """Two-variable link entry n >= 1 as ``(a, z) exponent pair ->
    coefficient``, from x_n = F_n + l2*F_(n-1)*x_0 with l1 = a*z, l2 = a^2,
    x_0 = (a^-1 - a)*z^-1 and F_n = sum over k of
    C(n-1-k, k)*l1^(n-1-2k)*l2^k = sum over k of C(n-1-k, k)*a^(n-1)*z^(n-1-2k)."""
    terms: dict = {}
    for k in range((n - 1) // 2 + 1):
        _add(terms, (n - 1, n - 1 - 2 * k), comb(n - 1 - k, k))
    # l2*F_(n-1)*x_0 = sum over k of C(n-2-k, k)*(a^(n-1) - a^(n+1))*z^(n-3-2k)
    for k in range((n - 2) // 2 + 1):
        _add(terms, (n - 1, n - 3 - 2 * k), comb(n - 2 - k, k))
        _add(terms, (n + 1, n - 3 - 2 * k), -comb(n - 2 - k, k))
    return terms


def lucas(k: int) -> dict:
    """w^k + (-1)^k*w^-k for k >= 1 as ``z exponent -> coefficient``, with
    z = w - w^-1: the sum over i of (k/(k-i))*C(k-i, i)*z^(k-2i)."""
    return {k - 2 * i: k * comb(k - i, i) // (k - i) for i in range(k // 2 + 1)}


def closed_form_knot_az(m: int) -> dict:
    """Knot entry m over (a, z), z = t^(1/2) - t^(-1/2): the closed form's
    two sums of t^j over a symmetric range, each paired into
    t^j + t^-j = w^(2j) + w^(-2j) with w = t^(1/2)."""
    terms: dict = {}
    for ea, top, sign in ((2 * m, m, 1), (2 * m + 2, m - 1, -1)):
        if top % 2 == 0:
            _add(terms, (ea, 0), sign)
        for j in range(top, 0, -2):
            for ez, c in lucas(2 * j).items():
                _add(terms, (ea, ez), sign * c)
    return terms


class TestLinkOracle:
    """Every two-variable link entry up to n = 120 against its closed form,
    built with `math.comb` and integer exponents."""

    N = 120

    def test_homfly(self):
        s = link_series(H, self.N)
        for n in range(1, self.N + 1):
            assert s.entry(n)._t == _az_poly(closed_form_link(n))._t, n


class TestConversionOracle:
    """`to_az_form` of every knot entry up to m = 60 against the Lucas
    expansion of t^j + t^-j in z."""

    M = 60

    def test_knot_entries(self):
        s = knot_series(H, self.M)
        for m in range(self.M + 1):
            assert to_az_form(s.knot(m))._t == _az_poly(closed_form_knot_az(m))._t, m


class TestSpecialize:
    def test_trefoil_examples(self):
        trefoil = parse_poly("a^2*t + a^2*t^-1 - a^4")
        assert specialize_homfly(trefoil, A) == parse_poly("t + t^-1 - 1")
        assert specialize_homfly(trefoil, V) == parse_poly("t^3 + t - t^4")

    def test_unknot(self):
        one = LaurentPoly.one()
        assert specialize_homfly(one, A) == one
        assert specialize_homfly(one, V) == one

    def test_elementwise_over_series(self):
        hom = knot_series(H, 10)
        alex = knot_series(A, 10)
        jones = knot_series(V, 10)
        for m in range(0, 11):
            assert specialize_homfly(hom.knot(m), A) == alex.knot(m)
            assert specialize_homfly(hom.knot(m), V) == jones.knot(m)

    def test_rejects_homfly_target(self):
        with pytest.raises(ValueError):
            specialize_homfly(LaurentPoly.one(), H)


class TestSkeinFromNumbers:
    def test_invariant_families_round_trip(self):
        for fam, kind in ((Family.ALEXANDER, A), (Family.JONES, V), (Family.HOMFLY, H)):
            got = skein_from_numbers(fam)
            want = link_coeffs(kind)
            assert got.l1 == want.l1
            assert got.l2 == want.l2

    def test_positive_sign_convention(self):
        for fam in (Family.ALEXANDER, Family.JONES, Family.HOMFLY):
            got = skein_from_numbers(fam)
            assert got.l1.leading_term()[1] > 0
            assert got.l2.leading_term()[1] > 0

    def test_other_families_when_roots_exist(self):
        # the square roots leave the integer exponent lattice but exist
        got = skein_from_numbers(Family.H1)
        assert got.l1 == parse_poly("q^(1/2) - p^(-1/2)")
        assert got.l2 == parse_poly("q^(1/2)*p^(-1/2)")
        got = skein_from_numbers(Family.H2)
        assert got.l1 == parse_poly("q^(3/2) - p^(1/2)")
        assert got.l2 == parse_poly("q^(3/2)*p^(1/2)")
        got = skein_from_numbers(Family.BMQ)
        assert got.l1 == parse_poly("q^(1/2) - q^(-1/2)")
        assert got.l2 == LaurentPoly.one()


class TestAZForm:
    def test_trefoil(self):
        got = to_az_form(parse_poly("a^2*t + a^2*t^-1 - a^4"))
        assert got == parse_poly("a^2*z^2 + 2*a^2 - a^4")

    def test_without_a(self):
        assert to_az_form(parse_poly("t - 1 + t^-1")) == parse_poly("z^2 + 1")

    def test_constant(self):
        assert to_az_form(LaurentPoly.one()) == LaurentPoly.one()

    def test_half_exponents(self):
        got = to_az_form(parse_poly("a*t^(1/2) - a*t^(-1/2)"))
        assert got == parse_poly("a*z")

    def test_roundtrip_on_knot_entries(self):
        series = knot_series(H, 15)
        for m in range(0, 16):
            p = series.knot(m)
            assert from_az_form(to_az_form(p)) == p

    def test_not_expressible(self):
        with pytest.raises(NotExpressibleError):
            to_az_form(LaurentPoly.var("t"))
        with pytest.raises(NotExpressibleError) as exc:
            to_az_form(parse_poly("t + t^(1/3)"))
        assert str(exc.value) == "t exponent 1/3 is not a half-integer"
        # Jones polynomials are not symmetric under t -> 1/t
        with pytest.raises(NotExpressibleError):
            to_az_form(parse_poly("t + t^3 - t^4"))

    def test_rejects_foreign_variables(self):
        with pytest.raises(ValueError):
            to_az_form(LaurentPoly.var("q"))

    def test_from_az_rejects_negative_z_powers(self):
        with pytest.raises(NotExpressibleError) as exc:
            from_az_form(parse_poly("a*z + a*z^-1"))
        assert str(exc.value) == "z exponent -1 has no Laurent image in t"

    def test_hopf_entry_clears_after_multiplying_through(self):
        # z * P(Hopf) is a z-polynomial, so it has an exact t-form;
        # it must agree with z * l1 + l2 * (z * unlink2) computed in t.
        hopf = link_series(H, 2).entry(2)
        z = LaurentPoly.var("z")
        cleared = from_az_form(hopf * z)
        zt = parse_poly("t^(1/2) - t^(-1/2)")
        c = link_coeffs(H)
        assert cleared == c.l1 * zt + c.l2 * parse_poly("a^-1 - a")

    def test_residue_spans_every_a_part(self):
        with pytest.raises(NotExpressibleError) as exc:
            to_az_form(parse_poly("a*t^-2 + t"))
        assert str(exc.value) == "residue a*t^-2 - t^-1 has no z-polynomial form"
        with pytest.raises(NotExpressibleError) as exc:
            to_az_form(parse_poly("t^(1/2)"))
        assert str(exc.value) == "residue t^(-1/2) has no z-polynomial form"

    def test_link_pair_reaches_are_exact(self):
        # l1 = a*(t^(1/2) - t^(-1/2)) and l2 = a^2 converted: a conversion
        # fits its frame to twice the input's reach, but the result carries
        # the reach of its own exponents
        l1, l2 = qpknot.skein._link_pair(H)
        assert (l1, l1._r) == (parse_poly("a*z"), 1)
        assert (l2, l2._r) == (parse_poly("a^2"), 2)

    @pytest.mark.parametrize("convert", [to_az_form, from_az_form], ids=lambda f: f.__name__)
    def test_zero_converts_to_zero(self, convert):
        got = convert(LaurentPoly.zero())
        assert (got, got._r) == (LaurentPoly.zero(), 0)

    @pytest.mark.parametrize("m, reach", [(0, 0), (1, 4), (5, 12), (12, 26)])
    def test_conversion_reaches_are_exact(self, m, reach):
        def exponent_reach(p):
            exps = [abs(e) for mono, _ in p.terms() for e in mono.exponents.values()]
            return ceil(max(exps, default=0))

        p = knot_series(H, m).knot(m)
        image = to_az_form(p)
        back = from_az_form(image)
        assert exponent_reach(p) == exponent_reach(image) == reach
        assert (image._r, back._r) == (reach, reach)

    def test_no_module_level_state(self):
        def sizes():
            return {
                name: len(value)
                for name, value in vars(qpknot.skein).items()
                if isinstance(value, (dict, list, set))
            }

        p = knot_series(H, 40).knot(40)
        before = sizes()
        for _ in range(2):
            assert from_az_form(to_az_form(p)) == p
        assert sizes() == before


# -- the conversions against the sum of c * rest * (t^(1/2) - t^(-1/2))^j ------

_Z_IN_T = parse_poly("t^(1/2) - t^(-1/2)")


def z_image(p: LaurentPoly) -> LaurentPoly:
    """Substitute z -> t^(1/2) - t^(-1/2) term by term, with ring + and *
    only."""
    powers = [LaurentPoly.one()]
    total = LaurentPoly.zero()
    for mono, c in p.terms():
        exps = mono.exponents
        j = exps.pop("z", Fraction(0))
        assert j.denominator == 1 and j >= 0
        while len(powers) <= j:
            powers.append(powers[-1] * _Z_IN_T)
        total = total + Monomial(exps).as_poly(c) * powers[int(j)]
    return total


# the a-parts; the last three carry t, so their output keys merge with others
_A_PARTS = [
    {},
    {"a": 2},
    {"a": -1},
    {"a": Fraction(2, 3)},
    {"t": 1},
    {"a": 2, "t": Fraction(-1, 2)},
    {"t": Fraction(1, 2)},
]
_T_FREE = 4


def az_polys(a_parts: int):
    """(a, z) polynomials whose a-parts each mix z-exponents 0..40 of both
    parities."""
    term = st.tuples(
        st.integers(min_value=0, max_value=a_parts - 1),
        st.integers(min_value=0, max_value=40),
    )
    coeffs = st.integers(min_value=-9, max_value=9).filter(bool)
    return st.dictionaries(term, coeffs, min_size=1, max_size=16).map(
        lambda terms: LaurentPoly(
            {Monomial({**_A_PARTS[i], "z": j}): c for (i, j), c in terms.items()}
        )
    )


def negative_w_polys(a_parts: int):
    """Nonzero polynomials whose terms are a-part * t^(-k/2), k = 1..44."""
    term = st.tuples(
        st.integers(min_value=0, max_value=a_parts - 1),
        st.integers(min_value=1, max_value=44),
    )
    coeffs = st.integers(min_value=-9, max_value=9).filter(bool)
    return st.dictionaries(term, coeffs, min_size=1, max_size=8).map(
        lambda terms: LaurentPoly(
            {Monomial({**_A_PARTS[i], "t": Fraction(-k, 2)}): c for (i, k), c in terms.items()}
        )
    )


CONVERSIONS = settings(max_examples=60, deadline=None)


class TestAZReference:
    @CONVERSIONS
    @given(az_polys(len(_A_PARTS)))
    @example(parse_poly("z^3 + z^2 + z + 1"))
    @example(parse_poly("t*z^2 - 1"))  # the t^0 terms cancel
    @example(parse_poly("t^(1/2)*z + a^2*t^(-1/2)*z^40 + z^39 - 2*a^2*z^2"))
    def test_from_az_matches_reference(self, p):
        assert from_az_form(p) == z_image(p)

    @CONVERSIONS
    @given(az_polys(_T_FREE))
    @example(parse_poly("a^2*z^40 - a^2*z^39 + a^-1*z + 7"))
    def test_to_az_inverts_from_az(self, p):
        assert to_az_form(from_az_form(p)) == p

    # A nonzero z-polynomial has a term at w^d with d >= 0, so once t^(-k/2)
    # terms r are added to a z-polynomial's image, r is the only residue.
    @CONVERSIONS
    @given(az_polys(_T_FREE), negative_w_polys(_T_FREE))
    @example(parse_poly("z^2"), parse_poly("t^-1"))  # z^2 = t - 2 + t^-1
    @example(parse_poly("z"), parse_poly("-t^(-1/2)"))  # cancels z's t^(-1/2)
    @example(parse_poly("z^3 + a^-1"), parse_poly("a^2*t^-20"))
    def test_residue_is_exactly_the_added_negative_part(self, q, r):
        assert to_az_form(from_az_form(q)) == q
        with pytest.raises(NotExpressibleError) as err:
            to_az_form(from_az_form(q) + r)
        assert str(err.value) == f"residue {r} has no z-polynomial form"

    def test_odd_homfly_link_entries(self):
        links = link_series(H, 81)
        for n in range(1, 82, 2):
            assert from_az_form(links.entry(n)) == z_image(links.entry(n))


class TestKindFamilyBridge:
    def test_roundtrip(self):
        from qpknot import Family, family_for_kind, kind_for_family

        for kind in InvariantKind:
            assert kind_for_family(family_for_kind(kind)) is kind

    def test_extra_families_have_no_kind(self):
        from qpknot import Family, kind_for_family

        for fam in (Family.H1, Family.H2, Family.BMQ):
            with pytest.raises(ValueError):
                kind_for_family(fam)


class TestSeriesObject:
    def test_indices_and_getitem(self):
        s = knot_series(A, 3)
        assert s.indices() == [1, 3, 5, 7]
        assert s[3] == s.knot(1)
        assert s.indexing == "knot"

    def test_json_roundtrip(self):
        for s in (knot_series(H, 5), link_series(V, 6), link_series(H, 5)):
            again = InvariantSeries.from_json_dict(s.to_json_dict())
            assert again.kind == s.kind
            assert again.indexing == s.indexing
            assert dict(again.entries) == dict(s.entries)

    @pytest.mark.parametrize(
        "edit, exc, text",
        [
            (lambda o: o.pop("entries"), ValueError, "series has no 'entries' field"),
            (lambda o: o.pop("kind"), ValueError, "series has no 'kind' field"),
            (lambda o: o.pop("indexing"), ValueError, "series has no 'indexing' field"),
            (lambda o: o["entries"][0].pop("n"), ValueError, "entry has no 'n' field"),
            (lambda o: o["entries"][0].pop("poly"), ValueError, "entry has no 'poly' field"),
            (lambda o: o.update(entries={}), TypeError, "entries must be a JSON array"),
            (lambda o: o["entries"].append(3), TypeError, "entry must be a JSON object"),
            (lambda o: o["entries"][0].update(n=1.5), TypeError, "got 1.5"),
            (lambda o: o["entries"][0].update(n=True), TypeError, "got True"),
            (lambda o: o["entries"][0].update(n="2"), TypeError, "got '2'"),
            (lambda o: o.update(indexing="banana"), ValueError, "got 'banana'"),
        ],
        ids=[
            "no-entries",
            "no-kind",
            "no-indexing",
            "no-n",
            "no-poly",
            "entries-object",
            "entry-number",
            "float-n",
            "bool-n",
            "string-n",
            "bad-indexing",
        ],
    )
    def test_json_rejects_malformed_series(self, edit, exc, text):
        obj = knot_series(A, 1).to_json_dict()
        edit(obj)
        with pytest.raises(exc, match=text):
            InvariantSeries.from_json_dict(obj)

    @pytest.mark.parametrize(
        "rows, text",
        [
            ([{"n": 1}], "entry index n=1 appears twice"),
            ([{"n": -3}], "entry index n must be nonnegative, got -3"),
            ([{"n": 4}], "a knot series has odd indices n = 2m+1 only, got n=4"),
            # the three faults of one document: the first row in order names it
            ([{"n": -3}, {"n": 1}, {"n": 4}], "entry index n must be nonnegative, got -3"),
        ],
        ids=["duplicate-n", "negative-n", "even-knot-n", "all-three"],
    )
    def test_json_rejects_bad_indices(self, rows, text):
        obj = knot_series(A, 1).to_json_dict()
        obj["entries"] += [dict(row, poly={"terms": []}) for row in rows]
        with pytest.raises(ValueError) as err:
            InvariantSeries.from_json_dict(obj)
        assert str(err.value) == text

    def test_json_shape(self):
        obj = knot_series(A, 1).to_json_dict()
        assert obj["kind"] == "alexander"
        assert obj["indexing"] == "knot"
        assert [e["n"] for e in obj["entries"]] == [1, 3]
