"""Two-parameter deformed integers [n] = (u^n - v^n)/(u - v).

A :class:`QPSpec` fixes the monomial pair (u, v); :class:`Family` names
the specs used by the knot-invariant machinery.  Each number is
computable by three independent routes (closed sum, two-step recurrence,
exact division), which the verification suite cross-checks.
"""

from __future__ import annotations

import enum
from collections.abc import Iterator

from qpknot._record import Record
from qpknot.errors import NegativeIndexError, NotDivisibleError
from qpknot.laurent import LaurentPoly, Monomial, exact_div
from qpknot import _kernel as _K


class QPSpec(Record):
    """Ordered monomial pair (u, v) defining the family [n]_{u,v}."""

    __slots__ = ("u", "v")
    u: Monomial
    v: Monomial

    def __init__(self, u: Monomial, v: Monomial):
        if u == v:
            raise ValueError("u and v must differ, the defining quotient is singular")
        super().__init__(u, v)


class Family(enum.Enum):
    ALEXANDER = "alexander"
    JONES = "jones"
    HOMFLY = "homfly"
    H1 = "h1"
    H2 = "h2"
    BMQ = "bmq"


_T = Monomial.var("t")
_Q = Monomial.var("q")
_P = Monomial.var("p")

_FAMILY_SPECS = {
    Family.ALEXANDER: QPSpec(_T, _T ** -1),
    Family.JONES: QPSpec(_T ** 3, _T),
    # (u, v) with u + v = a^2*(t + t^-1) and u*v = a^4, so that the pair
    # reproduces both knot coefficients of the two-variable invariant.
    Family.HOMFLY: QPSpec(Monomial({"a": 2, "t": 1}), Monomial({"a": 2, "t": -1})),
    Family.H1: QPSpec(_Q, _P ** -1),
    Family.H2: QPSpec(_Q ** 3, _P),
    Family.BMQ: QPSpec(_Q, _Q ** -1),
}


def family_spec(f: Family) -> QPSpec:
    """The defining (u, v) pair of a named family."""
    return _FAMILY_SPECS[f]


def _check_index(n: int) -> None:
    if not isinstance(n, int):
        raise TypeError("n must be an int")
    if n < 0:
        raise NegativeIndexError(f"[n] is undefined for n = {n}")


def qp_number(spec: QPSpec, n: int) -> LaurentPoly:
    """Closed-sum form: sum of u^(n-1-i) * v^i for i = 0..n-1.

    This is the primary definition; it is total and division-free.
    """
    _check_index(n)
    u = spec.u._key
    v = spec.v._key
    term = _K.mono_pow(u, n - 1, 1)
    step = _K.mono_mul(_K.mono_pow(u, -1, 1), v)
    # u != v, so the step v/u is not 1 and, exponents being torsion-free,
    # the n terms u^(n-1) * (v/u)^i are distinct: each is stored once
    out: dict = {}
    for _ in range(n):
        out[term] = 1
        term = _K.mono_mul(term, step)
    return LaurentPoly._raw(out)


def _widest(polys, scale: int) -> dict:
    """The largest |exponent| of each variable over the terms of ``polys``,
    in units of 1/scale."""
    bounds = _K.exponent_bounds([m for p in polys for m in p._t], scale)
    return {v: max(-lo, hi) for v, (lo, hi) in bounds.items()}


def two_term_ladder(
    c1: LaurentPoly, c2: LaurentPoly, x0: LaurentPoly, x1: LaurentPoly, indices: range
) -> Iterator[LaurentPoly]:
    """Yield x(k) for k in ``indices``, where x(k+1) = c1*x(k) + c2*x(k-1).

    ``indices`` is a non-empty range with start >= 0 and step >= 1.  Each
    term is computed only when it is asked for.  The walk runs on the
    packed int keys of one `Frame`, sized for ``indices[-1]``: a step is
    one `packed_accum_term_mul` per coefficient term into a fresh dict.
    The ladder decodes only the entries its caller asks for, each once,
    when it is yielded.

    Span bound: with exponents in units of 1/scale (scale the common
    denominator of the four polynomials), let M_v be the largest |e_v| over
    the terms of c1 and c2 and B_v the largest over x0 and x1.  Every term
    of x(k), and every product summed into it, has |e_v| <= B_v + k*M_v, by
    induction on k.  The frame spans [-(B_v + last*M_v), B_v + last*M_v]
    for last = indices[-1], so it holds every key of the walk.
    """
    if not indices or indices.start < 0 or indices.step < 1:
        raise ValueError(f"indices must be a non-empty ascending range from 0 up, got {indices}")
    last = indices[-1]
    yield from (x for k, x in enumerate((x0, x1)) if k in indices)
    scale = _K.exp_scale(c1._t, c2._t, x0._t, x1._t)
    reach, base = _widest((c1, c2), scale), _widest((x0, x1), scale)
    spans = {}
    for v in reach.keys() | base.keys():
        b = base.get(v, 0) + last * reach.get(v, 0)
        spans[v] = (-b, b)
    frame = _K.Frame(scale, spans)
    pack, unpack = frame.pack, frame.unpack
    terms1 = [(pack(m), c) for m, c in c1._t.items()]
    terms2 = [(pack(m), c) for m, c in c2._t.items()]
    prev = {pack(m): c for m, c in x0._t.items()}
    cur = {pack(m): c for m, c in x1._t.items()}
    for k in range(2, last + 1):
        nxt: dict = {}
        for key, c in terms1:
            _K.packed_accum_term_mul(nxt, cur, key, c)
        for key, c in terms2:
            _K.packed_accum_term_mul(nxt, prev, key, c)
        prev, cur = cur, nxt
        if k in indices:
            yield LaurentPoly._raw({unpack(key): c for key, c in nxt.items()})


def recurrence_coeffs(spec: QPSpec) -> tuple[LaurentPoly, LaurentPoly]:
    """(k1, k2) = (u + v, -u*v): [n+1] = k1*[n] + k2*[n-1], and the knot
    coefficients of the invariant families."""
    return spec.u.as_poly() + spec.v.as_poly(), -(spec.u * spec.v).as_poly()


def qp_numbers(spec: QPSpec, indices: range) -> Iterator[LaurentPoly]:
    """Yield [n] for n in ``indices`` by the recurrence from [0] = 0, [1] = 1.

    The ladder walks up to ``indices[-1]`` and decodes only the entries its
    caller asks for."""
    k1, k2 = recurrence_coeffs(spec)
    return two_term_ladder(k1, k2, LaurentPoly.zero(), LaurentPoly.one(), indices)


def qp_number_recurrence(spec: QPSpec, n: int) -> LaurentPoly:
    """Recurrence form: [k+1] = (u+v)*[k] - u*v*[k-1] from [0]=0, [1]=1.

    The ladder walks to [n] and decodes only that entry."""
    _check_index(n)
    return next(qp_numbers(spec, range(n, n + 1)))


def qp_number_division(spec: QPSpec, n: int) -> LaurentPoly:
    """Quotient form: exact division (u^n - v^n) / (u - v)."""
    _check_index(n)
    num = (spec.u ** n).as_poly() - (spec.v ** n).as_poly()
    den = spec.u.as_poly() - spec.v.as_poly()
    return exact_div(num, den)


def _monomial_quotient(f: Family, n: int) -> Monomial:
    """The single monomial [n]^H / [n]^f."""
    if n < 1:
        raise NegativeIndexError(f"multiplier undefined for n = {n}")
    q = exact_div(qp_number(family_spec(Family.HOMFLY), n), qp_number(family_spec(f), n))
    if not q.is_monomial():
        raise NotDivisibleError(f"quotient is not a monomial: {q}")
    return q.as_monomial()


def homfly_alexander_multiplier(n: int) -> Monomial:
    """The single monomial [n]^H / [n]^A; callers compare it with a^(2(n-1)).

    Raises :class:`NotDivisibleError` when [n]^A does not divide [n]^H or
    the quotient is not a monomial.
    """
    return _monomial_quotient(Family.ALEXANDER, n)


def homfly_jones_multiplier(n: int) -> Monomial:
    """The single monomial [n]^H / [n]^V.

    Direct division yields (a*t^-1)^(2(n-1)); callers compare it against
    tabulated closed forms themselves.  Raises :class:`NotDivisibleError`
    when [n]^V does not divide [n]^H or the quotient is not a monomial.
    """
    return _monomial_quotient(Family.JONES, n)
