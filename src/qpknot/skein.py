"""Skein recurrences for the torus knots T(2m+1,2) and torus links L(2m,2).

Link entries obey a two-term recurrence in the link coefficients (l1, l2);
knot entries are [m+1] - u*v*[m] in the deformed numbers of the family pair
(u, v), whose knot coefficients k1 = u + v, k2 = -u*v equal l1^2 + 2*l2,
-l2^2.  Indices follow L(n,2): odd n are knots (n = 2m+1), even n links.

Variable conventions: Alexander and Jones series live in t, the
two-variable invariant in (a, t) for knots.  Its link entries carry an
inverse power of z = t^(1/2) - t^(-1/2) and are therefore generated and
stored in the (a, z) variables, where they are honest Laurent
polynomials; odd entries convert back to (a, t) exactly.
"""

from __future__ import annotations

import enum
from collections.abc import Iterator, Mapping
from fractions import Fraction
from itertools import accumulate, pairwise
from math import lcm

from qpknot import _kernel as _K
from qpknot._record import Record
from qpknot.errors import BadRangeError, NotExpressibleError
from qpknot.laurent import LaurentPoly, Monomial, _box_reach, _json_field, exact_div, exact_sqrt
from qpknot.qpnumbers import Family, family_spec, qp_number, recurrence_coeffs, two_term_ladder


class InvariantKind(enum.Enum):
    ALEXANDER = "alexander"
    JONES = "jones"
    HOMFLY = "homfly"


def kind_for_family(f: Family) -> InvariantKind:
    try:
        return InvariantKind(f.value)
    except ValueError:
        raise ValueError(f"family {f.value} has no invariant kind") from None


def family_for_kind(kind: InvariantKind) -> Family:
    return Family(kind.value)


class SkeinCoeffs(Record):
    """Link-recurrence coefficient pair (l1, l2)."""

    __slots__ = ("l1", "l2")
    l1: LaurentPoly
    l2: LaurentPoly


class KnotCoeffs(Record):
    """Knot-recurrence coefficient pair (k1, k2)."""

    __slots__ = ("k1", "k2")
    k1: LaurentPoly
    k2: LaurentPoly


def _v(name: str, exp=1) -> LaurentPoly:
    return LaurentPoly.var(name, exp)


_HALF = Fraction(1, 2)


def link_coeffs(kind: InvariantKind) -> SkeinCoeffs:
    """The (l1, l2) pair of each invariant's defining crossing relation."""
    if kind is InvariantKind.ALEXANDER:
        return SkeinCoeffs(_v("t", _HALF) - _v("t", -_HALF), LaurentPoly.one())
    if kind is InvariantKind.JONES:
        return SkeinCoeffs(_v("t", Fraction(3, 2)) - _v("t", _HALF), _v("t", 2))
    a = _v("a")
    return SkeinCoeffs(a * (_v("t", _HALF) - _v("t", -_HALF)), _v("a", 2))


def knot_coeffs(kind: InvariantKind) -> KnotCoeffs:
    """k1 = u + v and k2 = -u*v for the (u, v) pair of the kind's family;
    ``eq8-coeffs`` checks them against l1^2 + 2*l2 and -l2^2."""
    return KnotCoeffs(*recurrence_coeffs(family_spec(family_for_kind(kind))))


def _link_pair(kind: InvariantKind) -> tuple[LaurentPoly, LaurentPoly]:
    """(l1, l2) in the variables of the kind's link series: (a, z) for the
    two-variable invariant, where l1 = a*z and l2 = a^2."""
    c = link_coeffs(kind)
    if kind is InvariantKind.HOMFLY:
        return to_az_form(c.l1), to_az_form(c.l2)
    return c.l1, c.l2


def unlink2(kind: InvariantKind) -> LaurentPoly:
    """Value on the two-component unlink, the link-series seed at n = 0.

    Derived by applying the crossing relation to a kinked unknot diagram:
    (1 - l2) / l1.  For Alexander this is 0 and for Jones
    -t^(1/2) - t^(-1/2).  The two-variable value is not a Laurent
    polynomial in (a, t); it is returned in the (a, z) variables as
    (a^-1 - a) * z^-1.
    """
    l1, l2 = _link_pair(kind)
    return exact_div(LaurentPoly.one() - l2, l1)


class InvariantSeries(Record):
    """Indexed family of polynomial values for one invariant kind.

    ``entries`` maps the series index n to the polynomial of L(n,2);
    knot series hold only odd n = 2m+1.
    """

    __slots__ = ("kind", "indexing", "entries")
    kind: InvariantKind
    indexing: str  # "knot" | "link"
    entries: Mapping[int, LaurentPoly]

    def __getitem__(self, n: int) -> LaurentPoly:
        return self.entries[n]

    def entry(self, n: int) -> LaurentPoly:
        return self.entries[n]

    def knot(self, m: int) -> LaurentPoly:
        """The torus knot T(2m+1,2) entry."""
        return self.entries[2 * m + 1]

    def indices(self) -> list[int]:
        return sorted(self.entries)

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "indexing": self.indexing,
            "entries": [
                {"n": n, "poly": self.entries[n].to_json_dict()} for n in self.indices()
            ],
        }

    @classmethod
    def from_json_dict(cls, obj: Mapping) -> "InvariantSeries":
        rows = _json_field(obj, "entries", "series")
        if not isinstance(rows, list):
            raise TypeError(f"entries must be a JSON array, got {rows!r}")
        entries = {}
        for row in rows:
            n = _json_field(row, "n", "entry")
            # JSON true would pass as the int 1
            if not isinstance(n, int) or isinstance(n, bool):
                raise TypeError(f"entry index n must be an integer, got {n!r}")
            if n < 0:
                raise ValueError(f"entry index n must be nonnegative, got {n}")
            if n in entries:
                raise ValueError(f"entry index n={n} appears twice")
            entries[n] = LaurentPoly.from_json_dict(_json_field(row, "poly", "entry"))
        kind = InvariantKind(_json_field(obj, "kind", "series"))
        indexing = _json_field(obj, "indexing", "series")
        if indexing not in ("knot", "link"):
            raise ValueError(f"indexing must be 'knot' or 'link', got {indexing!r}")
        if indexing == "knot":
            for n in entries:
                if n % 2 == 0:
                    raise ValueError(f"a knot series has odd indices n = 2m+1 only, got n={n}")
        return cls(kind, indexing, entries)


def link_entries(kind: InvariantKind, indices: range) -> Iterator[LaurentPoly]:
    """Yield the entries of L(n,2) for n in ``indices`` by the two-term
    recurrence in (l1, l2), each only when it is asked for.

    Seeds are the n = 0 entry unlink2 and the n = 1 entry 1 (unknot); the
    two-variable entries are produced in (a, z).  The ladder yields only
    the entries its caller asks for, on its packed keys, and the generator
    keeps only the last two entries, so a consumer that compares and drops
    them never holds the whole ladder.
    """
    return two_term_ladder(*_link_pair(kind), unlink2(kind), LaurentPoly.one(), indices)


def link_series(kind: InvariantKind, n_max: int) -> InvariantSeries:
    """Entries n = 0..n_max of :func:`link_entries`.

    The n = 0 entry is asked for only where it lives in the kind's own
    variables (Alexander, Jones).
    """
    if n_max < 2:
        raise BadRangeError(f"n_max must be at least 2, got {n_max}")
    indices = range(1 if kind is InvariantKind.HOMFLY else 0, n_max + 1)
    return InvariantSeries(kind, "link", dict(zip(indices, link_entries(kind, indices))))


def knot_series(kind: InvariantKind, m_max: int) -> InvariantSeries:
    """Entries for the torus knots T(2m+1,2), m = 0..m_max.

    Entry m is [m+1] - u*v*[m] for the (u, v) pair of the kind's family,
    each number a closed sum: the unknot [1] = 1, the trefoil
    [2] - u*v = k1 + k2.  Every entry is a Laurent polynomial in the kind's
    own variables.
    """
    if m_max < 0:
        raise BadRangeError(f"m_max must be nonnegative, got {m_max}")
    spec = family_spec(family_for_kind(kind))
    _, k2 = recurrence_coeffs(spec)  # -u*v
    numbers = pairwise(qp_number(spec, n) for n in range(m_max + 2))
    entries = {2 * m + 1: b + k2 * a for m, (a, b) in enumerate(numbers)}
    return InvariantSeries(kind, "knot", entries)


def specialize_homfly(p: LaurentPoly, target: InvariantKind) -> LaurentPoly:
    """Collapse a two-variable (a, t) polynomial onto one target invariant
    by substituting a -> 1 (Alexander) or a -> t (Jones)."""
    if target is InvariantKind.ALEXANDER:
        image = Monomial.one()
    elif target is InvariantKind.JONES:
        image = Monomial.var("t")
    else:
        raise ValueError("target must be Alexander or Jones")
    return p.substitute({"a": image, "t": Monomial.var("t")})


def skein_from_numbers(f: Family) -> SkeinCoeffs:
    """Reconstruct (l1, l2) from a family's defining pair (u, v).

    Runs the reverse direction: k1 = u + v and k2 = -u*v, then
    l2 = +sqrt(-k2) and l1 = +sqrt(k1 - 2*l2), both square roots taken
    with positive leading coefficient.  For the three invariant families
    this lands exactly on link_coeffs.
    """
    k1, k2 = recurrence_coeffs(family_spec(f))
    l2 = exact_sqrt(-k2)
    l1 = exact_sqrt(k1 - 2 * l2)
    return SkeinCoeffs(l1, l2)


# -- the z = t^(1/2) - t^(-1/2) change of variable ---------------------------

# Both directions work on the same integer rows, one per a-part (the rest of
# the monomial once t or z is taken out) and parity, holding the coefficient
# c(k) of w^k, w = t^(1/2), for k >= 0 only: the image of a z-polynomial has
# c(-k) = (-1)^k c(k), so that half fixes the row.  Multiplying a row by
# z = w - w^-1 is an adjacent difference on the half; dividing by z undoes it
# with a running sum.


def _read_reach(frame, terms: dict) -> LaurentPoly:
    """The polynomial with ``terms`` on the keys of ``frame``, its reach
    read from their exponents.  A conversion fits its output frame to
    twice the input's reach, a bound that the output's exponents need
    not come near: l1 = a*(t^(1/2) - t^(-1/2)) goes to a*z, of reach 1."""
    reach = _box_reach(frame.bounds(terms), frame.scale) if terms else 0
    return LaurentPoly._raw(frame, terms, reach)


def to_az_form(p: LaurentPoly) -> LaurentPoly:
    """Rewrite an (a, t) polynomial as a `LaurentPoly` in a and z, the
    variables of the two-variable link entries and of `unlink2`.

    The inverse of :func:`from_az_form`'s Horner loop.  Each a-part splits
    into one row per parity of the exponent of w = t^(1/2).  Since z is
    unchanged by w -> -w^-1, a row is a z-polynomial exactly when
    c(-k) = (-1)^k c(k) for every k >= 1.  Otherwise c(-k) - (-1)^k c(k)
    at w^-k, over all a-parts, is the residue and
    :class:`NotExpressibleError` names it.

    Horner is then undone on the half row from the bottom.  On a step whose
    parity matches the row, g_j is the row's value at w = 1,
    c(0) + 2 * (c(2) + c(4) + ...), taken off at w^0; dividing by z is the
    running sum q(k-1) = c(k) + q(k+1) from the top, once between steps.

    Keys split and join by field arithmetic: `Frame.split` takes the
    t-exponent out of each key, leaving its a-part, which maps to the
    output frame (the input's other variables and z, at the input's scale)
    once per row, and z^j adds j times the key of z.  The output moves to
    its least scale, so an input with t^(1/2), such as l1, lands in the
    frame of the knot entries' images.
    """
    extra = set(p.variables()) - {"a", "t"}
    if extra:
        raise ValueError(f"expected variables a and t only, found {sorted(extra)}")

    frame, scale = p._f, p._f.scale
    rows: dict[tuple, dict[int, int]] = {}  # (a-part, parity) -> {2 * t-exponent: coeff}
    for e, rest, coeff in frame.split(p._t, "t"):
        if 2 * e % scale:
            raise NotExpressibleError(f"t exponent {Fraction(e, scale)} is not a half-integer")
        doubled = 2 * e // scale
        rows.setdefault((rest, doubled % 2), {})[doubled] = coeff

    # the a-part times w^-k = t^(-k/2), keyed in p's frame; k * scale is
    # even, since an odd scale divides 2e only where it divides e
    residue: dict = {}
    for (rest, parity), row in rows.items():
        sign = -1 if parity else 1
        for k in {abs(e) for e in row if e}:
            r = row.get(-k, 0) - sign * row.get(k, 0)
            if r:
                residue[rest - k * scale // 2 * frame.weight["t"]] = r
    if residue:
        raise NotExpressibleError(
            f"residue {LaurentPoly._raw(frame, residue, p._r)} has no z-polynomial form"
        )

    names = tuple(sorted({*frame.names, "z"} - {"t"}))
    out_frame = _K.Frame(names, scale).fit(2 * p._r)
    units = {v: out_frame.weight[v] for v in names if v != "z"}
    z_unit = scale * out_frame.weight["z"]
    out: dict = {}
    for (rest, parity), row in rows.items():
        base = frame.image(rest, units)
        top = max(row)
        half = [row.get(k, 0) for k in range(top, -1, -2)]
        for j in range(top + 1):
            if j:
                half = list(accumulate(half))
            if j % 2 == parity:
                c0 = half.pop()
                g = c0 + 2 * sum(half)
                if g:
                    out[base + j * z_unit] = g
    return _read_reach(*out_frame.least(out))


def from_az_form(p: LaurentPoly) -> LaurentPoly:
    """Substitute z -> t^(1/2) - t^(-1/2) into an (a, z) polynomial, such
    as a `to_az_form` result or a two-variable link entry.

    The mirror of :func:`to_az_form`: Horner's rule in z on each a-part's
    half row per parity of the z-exponent.  It starts from the top power's
    one-element row two powers down, since the step in between, to the
    other parity, leaves a one-element row as it is.  A step from odd to
    even powers of w makes the new c(0) = c(-1) - c(1) = -2 c(1); g_j is
    added at w^0 on the steps whose parity matches the row.  The finished
    half is mirrored onto w^-k, and the row times its a-part is summed in,
    so terms that already carry t merge.  Requires nonnegative integer
    z-exponents; link entries carrying z^-1 have no Laurent image in t and
    raise :class:`NotExpressibleError`.

    Keys split and join by field arithmetic, as in `to_az_form`: the output
    frame has the input's variables with t in place of z, at the input's
    scale, doubled when a row of odd z-powers brings half-integer powers of
    t; w^k of a row is its a-part's key plus the key of t^(k/2).
    """
    frame, scale = p._f, p._f.scale
    rows: dict[tuple, dict[int, int]] = {}  # (a-part, parity) -> {z-exponent: coeff}
    for e, rest, coeff in frame.split(p._t, "z"):
        if e % scale or e < 0:
            raise NotExpressibleError(
                f"z exponent {Fraction(e, scale)} has no Laurent image in t"
            )
        rows.setdefault((rest, e // scale % 2), {})[e // scale] = coeff

    names = tuple(sorted({*frame.names, "t"} - {"z"}))
    odd = any(parity for _, parity in rows)
    out_frame = _K.Frame(names, lcm(scale, 2) if odd else scale).fit(2 * p._r)
    ratio = out_frame.scale // scale
    units = {v: ratio * out_frame.weight[v] for v in frame.names if v != "z"}
    t_unit = out_frame.weight["t"]
    out: dict = {}
    for (rest, parity), zrow in rows.items():
        top = max(zrow)
        half = [zrow[top]]  # c(k) for k = (top - j) % 2, ..., top - j, step 2
        for j in range(top - 2, -1, -1):
            if (top - j) % 2:
                half = [x - y for x, y in zip(half, half[1:] + [0])]
            else:
                half = [x - y for x, y in zip([-half[0]] + half, half + [0])]
                half[0] += zrow.get(j, 0)
        sign = -1 if parity else 1
        row = [sign * c for c in reversed(half[1 - parity :])] + half
        # w^(2i - top) = t^((2i - top)/2), a whole number of units of t
        t_row = {(2 * i - top) * out_frame.scale // 2 * t_unit: c for i, c in enumerate(row) if c}
        _K.poly_accum_term_mul(out, t_row, frame.image(rest, units), 1)
    return _read_reach(out_frame, out)
