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
from qpknot.laurent import LaurentPoly, Monomial, _join, exact_div
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

    This is the primary definition; it is total and division-free.  Its
    keys are an arithmetic progression: (n-1) * key(u) + i * (key(v) -
    key(u)), in the join of the frames of u and v, fitted to their reach
    and to the reach (n-1) times theirs.
    """
    _check_index(n)
    frame, reach = _join((spec.u._m, spec.v._m))
    reach *= max(n - 1, 0)
    frame = frame.fit(reach)
    (fu, ku, _), (fv, kv, _) = spec.u._m, spec.v._m
    u = fu.rekey(ku, frame)
    step = fv.rekey(kv, frame) - u
    # u != v, so the step is not 0 and the n keys are distinct
    first = (n - 1) * u
    return LaurentPoly._raw(frame, dict.fromkeys(range(first, first + n * step, step), 1), reach)


def two_term_ladder(
    c1: LaurentPoly, c2: LaurentPoly, x0: LaurentPoly, x1: LaurentPoly, indices: range
) -> Iterator[LaurentPoly]:
    """Yield x(k) for k in ``indices``, where x(k+1) = c1*x(k) + c2*x(k-1).

    ``indices`` is a non-empty range with start >= 0 and step >= 1.  Each
    term is computed only when it is asked for.  The walk runs on the
    packed int keys of one `Frame`, the join of the four polynomials'
    frames fitted to the reach of x(indices[-1]): a step is one
    `poly_accum_term_mul` per coefficient term into a fresh dict, and
    each entry asked for is handed over on those keys, with no decoding.

    Reach bound: let M be the larger reach of c1 and c2 and B that of x0
    and x1.  Every term of x(k), and every product summed into it, has
    |exponent| <= B + k*M, by induction on k; so does entry k, whose reach
    it is, and the frame holds the walk up to the last index.
    """
    if not indices or indices.start < 0 or indices.step < 1:
        raise ValueError(f"indices must be a non-empty ascending range from 0 up, got {indices}")
    last = indices[-1]
    yield from (x for k, x in enumerate((x0, x1)) if k in indices)
    base, reach = max(x0._r, x1._r), max(c1._r, c2._r)
    frame = c1._f.join(c2._f).join(x0._f).join(x1._f).fit(base + last * reach)
    terms1 = list(c1._in(frame).items())
    terms2 = list(c2._in(frame).items())
    prev, cur = x0._in(frame), x1._in(frame)
    for k in range(2, last + 1):
        nxt: dict = {}
        for key, c in terms1:
            _K.poly_accum_term_mul(nxt, cur, key, c)
        for key, c in terms2:
            _K.poly_accum_term_mul(nxt, prev, key, c)
        prev, cur = cur, nxt
        if k in indices:
            yield LaurentPoly._raw(frame, nxt, base + k * reach)


def recurrence_coeffs(spec: QPSpec) -> tuple[LaurentPoly, LaurentPoly]:
    """(k1, k2) = (u + v, -u*v): [n+1] = k1*[n] + k2*[n-1], and the knot
    coefficients of the invariant families."""
    u, v = spec.u.as_poly(), spec.v.as_poly()
    return u + v, -(u * v)


def qp_numbers(spec: QPSpec, indices: range) -> Iterator[LaurentPoly]:
    """Yield [n] for n in ``indices`` by the recurrence from [0] = 0, [1] = 1.

    The ladder walks up to ``indices[-1]`` and hands over the entries its
    caller asks for."""
    k1, k2 = recurrence_coeffs(spec)
    return two_term_ladder(k1, k2, LaurentPoly.zero(), LaurentPoly.one(), indices)


def qp_number_recurrence(spec: QPSpec, n: int) -> LaurentPoly:
    """Recurrence form: [k+1] = k1*[k] + k2*[k-1] from [0]=0, [1]=1, with
    (k1, k2) = (u + v, -u*v), reached by index doubling.

    The recurrence makes [k] = (u^k - v^k)/(u - v), so with
    s_k = u^k + v^k = 2*[k+1] - k1*[k], two terms,

        [2k]   = [k] * s_k,
        [2k+1] = [k+1] * s_k - (u*v)^k,

    since (u^(k+1) - v^(k+1)) * (u^k + v^k) is u^(2k+1) - v^(2k+1) plus
    (u*v)^k * (u - v); both hold at k = 0 too (s_0 = 2).  Reading the
    binary digits of n from the top, each round takes ([k], [k+1],
    (u*v)^k) to ([2k], [2k+1], (u*v)^(2k)), and a 1 digit then takes one
    recurrence step to k + 1, with u*v = -k2.  So about log2(n) rounds,
    each two products by the two terms of s_k, replace the ladder's n - 1
    steps, and the last round builds only the half it returns.  This is
    the Lucas sequence doubling of Joye and Quisquater (Electronics Letters
    32(6), 1996), in ring operations only, so nothing is decoded."""
    _check_index(n)
    k1, k2 = recurrence_coeffs(spec)
    # [k], [k+1] and (u*v)^k at k = 0
    a, b, w = LaurentPoly.zero(), LaurentPoly.one(), LaurentPoly.one()
    *head, last = f"{n:b}"
    for digit in head:
        s = 2 * b - k1 * a  # u^k + v^k
        a, b, w = a * s, b * s - w, w * w
        if digit == "1":
            a, b, w = b, k1 * b + k2 * a, -(w * k2)
    s = 2 * b - k1 * a
    return b * s - w if last == "1" else a * s


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
