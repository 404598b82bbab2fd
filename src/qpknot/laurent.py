"""Exact sparse multivariate Laurent polynomials with rational exponents.

Coefficients are arbitrary-precision integers; exponents are exact
rationals (so values like t^(1/2) or a^(2/3) are first-class).  All values
are immutable and all operations are pure, so anything built here can be
shared freely between threads.

Monomial order, used for division, square roots and printing, is graded
lexicographic: larger total degree first, ties broken at the
alphabetically first differing variable with the larger exponent winning.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import isqrt
from typing import Iterable, Mapping, Union

from qpknot import _kernel as _K
from qpknot.errors import (
    DivisionByZeroError,
    MissingImageError,
    NotAPerfectSquareError,
    NotDivisibleError,
)

RationalLike = Union[int, Fraction, tuple]


def _as_exponent(r: RationalLike) -> Fraction:
    if isinstance(r, Fraction):
        return r
    if isinstance(r, int):
        return Fraction(r)
    if isinstance(r, tuple) and len(r) == 2:
        return Fraction(r[0], r[1])
    raise TypeError(f"not a rational exponent: {r!r}")


def _check_var(name: str) -> str:
    if not (isinstance(name, str) and len(name) == 1 and "a" <= name <= "z"):
        raise ValueError(f"variable names are single lowercase letters, got {name!r}")
    return name


class Monomial:
    """A finite product of variable powers with exact rational exponents.

    The empty monomial is the multiplicative identity; every monomial is
    invertible.  Instances are immutable and hashable.
    """

    __slots__ = ("_key",)

    def __init__(self, exps: Mapping[str, RationalLike] | None = None):
        key = []
        if exps:
            for name in sorted(exps):
                e = _as_exponent(exps[name])
                if e != 0:
                    key.append((_check_var(name), e.numerator, e.denominator))
        object.__setattr__(self, "_key", tuple(key))

    @classmethod
    def _from_key(cls, key: tuple) -> "Monomial":
        m = cls.__new__(cls)
        object.__setattr__(m, "_key", key)
        return m

    @classmethod
    def one(cls) -> "Monomial":
        return cls._from_key(())

    @classmethod
    def var(cls, name: str, exp: RationalLike = 1) -> "Monomial":
        return cls({name: exp})

    @property
    def exponents(self) -> dict[str, Fraction]:
        return {v: Fraction(n, d) for v, n, d in self._key}

    def exponent(self, name: str) -> Fraction:
        for v, n, d in self._key:
            if v == name:
                return Fraction(n, d)
        return Fraction(0)

    def variables(self) -> tuple[str, ...]:
        return tuple(v for v, _, _ in self._key)

    def degree(self) -> Fraction:
        n, d = _K.mono_deg(self._key)
        return Fraction(n, d)

    @property
    def is_one(self) -> bool:
        return not self._key

    def __mul__(self, other: "Monomial") -> "Monomial":
        if not isinstance(other, Monomial):
            return NotImplemented
        return Monomial._from_key(_K.mono_mul(self._key, other._key))

    def __pow__(self, r: RationalLike) -> "Monomial":
        e = _as_exponent(r)
        return Monomial._from_key(_K.mono_pow(self._key, e.numerator, e.denominator))

    def inverse(self) -> "Monomial":
        return self ** -1

    def as_poly(self, coeff: int = 1) -> "LaurentPoly":
        if coeff == 0:
            return LaurentPoly._raw({})
        return LaurentPoly._raw({self._key: coeff})

    def __eq__(self, other) -> bool:
        return isinstance(other, Monomial) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __str__(self) -> str:
        return _mono_text(self._key) if self._key else "1"

    def __repr__(self) -> str:
        return f"Monomial('{self}')"


def _as_monomial(value) -> Monomial:
    if isinstance(value, Monomial):
        return value
    if value == 1:
        return Monomial.one()
    if isinstance(value, str):
        return Monomial.var(value)
    if isinstance(value, Mapping):
        return Monomial(value)
    raise TypeError(f"not a monomial: {value!r}")


def _exp_text(num: int, den: int) -> str:
    if den == 1:
        return str(num)
    return f"({num}/{den})"


def _mono_text(key: tuple) -> str:
    parts = []
    for v, n, d in key:
        if n == 1 and d == 1:
            parts.append(v)
        else:
            parts.append(f"{v}^{_exp_text(n, d)}")
    return "*".join(parts)


def _merge_terms(pairs: Iterable[tuple]) -> dict:
    """Terms of the ``(monomial, int)`` pairs; repeats add up or cancel."""
    terms: dict = {}
    for mono, coeff in pairs:
        if not isinstance(coeff, int):
            raise TypeError("coefficients must be ints")
        key = _as_monomial(mono)._key
        c = terms.get(key, 0) + coeff
        if c:
            terms[key] = c
        else:
            terms.pop(key, None)
    return terms


def _json_term(entry: Mapping) -> tuple:
    exps = {}
    for v, frac in entry["monomial"].items():
        num, _, den = frac.partition("/")
        exps[v] = Fraction(int(num), int(den) if den else 1)
    return Monomial(exps), int(entry["coeff"])


def _ordered_keys(terms: dict) -> list:
    return sorted(terms, key=_K.Order(_K.exp_scale(terms)).__getitem__)


def _exponent_bounds(terms: dict, scale: int) -> dict:
    """Least and greatest exponent of each variable over the terms, as
    ``var -> (lo, hi)`` in units of 1/scale; a term without the variable
    has exponent 0 in it."""
    seen: dict = {}
    for key in terms:
        for v, n, d in key:
            seen.setdefault(v, []).append(n * scale // d)
    for es in seen.values():
        if len(es) < len(terms):
            es.append(0)
    return {v: (min(es), max(es)) for v, es in seen.items()}


def _check_in_box(key: tuple, box: list, scale: int, what: str, error: type) -> None:
    """Raise ``error`` when the monomial ``key`` lies outside ``box``, a list
    of ``(var, lo, hi)`` exponent bounds in units of 1/scale, sorted by
    variable, that covers every variable of ``key``."""
    i = 0
    nk = len(key)
    for v, lo, hi in box:
        if i < nk and key[i][0] == v:
            _, n, d = key[i]
            e = n * scale // d
            i += 1
        else:
            e = 0
        if e < lo or e > hi:
            raise error(
                f"{what} term needs {v}-exponent {Fraction(e, scale)}, outside the "
                f"Newton bound [{Fraction(lo, scale)}, {Fraction(hi, scale)}]"
            )


class LaurentPoly:
    """A finite integer combination of monomials; the universal value type.

    Construct from an int, a :class:`Monomial`, a ``{Monomial: int}``
    mapping, or another polynomial.  Operators ``+ - * **`` work as
    expected; ``/`` is exact division and raises when the quotient does
    not exist in the ring.
    """

    __slots__ = ("_t", "_h")

    def __init__(self, value=0):
        if isinstance(value, LaurentPoly):
            terms = value._t
        elif isinstance(value, Monomial):
            terms = {value._key: 1}
        elif isinstance(value, int):
            terms = {(): value} if value else {}
        elif isinstance(value, Mapping):
            terms = _merge_terms(value.items())
        else:
            raise TypeError(f"cannot build a polynomial from {value!r}")
        object.__setattr__(self, "_t", dict(terms))
        object.__setattr__(self, "_h", None)

    @classmethod
    def _raw(cls, terms: dict) -> "LaurentPoly":
        p = cls.__new__(cls)
        object.__setattr__(p, "_t", terms)
        object.__setattr__(p, "_h", None)
        return p

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls._raw({})

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls._raw({(): 1})

    @classmethod
    def var(cls, name: str, exp: RationalLike = 1) -> "LaurentPoly":
        return Monomial.var(name, exp).as_poly()

    @classmethod
    def from_terms(cls, items: Iterable[tuple]) -> "LaurentPoly":
        return cls._raw(_merge_terms(items))

    def terms(self) -> list[tuple[Monomial, int]]:
        """Terms in canonical (descending graded-lex) order."""
        return [(Monomial._from_key(k), self._t[k]) for k in _ordered_keys(self._t)]

    def coefficient(self, mono: Monomial) -> int:
        return self._t.get(_as_monomial(mono)._key, 0)

    def variables(self) -> tuple[str, ...]:
        seen = set()
        for key in self._t:
            for v, _, _ in key:
                seen.add(v)
        return tuple(sorted(seen))

    def term_count(self) -> int:
        return len(self._t)

    @property
    def is_zero(self) -> bool:
        return not self._t

    def is_monomial(self) -> bool:
        """True when the value is a single term with coefficient 1."""
        return len(self._t) == 1 and next(iter(self._t.values())) == 1

    def as_monomial(self) -> Monomial:
        if not self.is_monomial():
            raise ValueError(f"not a monomial: {self}")
        return Monomial._from_key(next(iter(self._t)))

    def leading_term(self) -> tuple[Monomial, int]:
        if not self._t:
            raise ValueError("zero polynomial has no leading term")
        key = min(self._t, key=_K.Order(_K.exp_scale(self._t)).__getitem__)
        return Monomial._from_key(key), self._t[key]

    def __bool__(self) -> bool:
        return bool(self._t)

    def __eq__(self, other) -> bool:
        if isinstance(other, LaurentPoly):
            return self._t == other._t
        if isinstance(other, int):
            return self._t == ({(): other} if other else {})
        return NotImplemented

    def __hash__(self) -> int:
        h = self._h
        if h is None:
            # constants hash like the ints they equal
            if not self._t:
                h = hash(0)
            elif len(self._t) == 1 and () in self._t:
                h = hash(self._t[()])
            else:
                h = hash(frozenset(self._t.items()))
            object.__setattr__(self, "_h", h)
        return h

    @staticmethod
    def _coerce(other) -> "LaurentPoly | None":
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, (int, Monomial)):
            return LaurentPoly(other)
        return None

    def __add__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return LaurentPoly._raw(_K.poly_add(self._t, q._t))

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._raw(_K.poly_neg(self._t))

    def __sub__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return LaurentPoly._raw(_K.poly_add(self._t, _K.poly_neg(q._t)))

    def __rsub__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return LaurentPoly._raw(_K.poly_add(q._t, _K.poly_neg(self._t)))

    def __mul__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return LaurentPoly._raw(_K.poly_mul(self._t, q._t))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("polynomial powers must be integers")
        if n < 0:
            return exact_div(LaurentPoly.one(), self ** (-n))
        result = LaurentPoly.one()
        base = self
        k = n
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __truediv__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return exact_div(self, q)

    def substitute(self, images: Mapping[str, object]) -> "LaurentPoly":
        """Ring homomorphism replacing each variable by a monomial image.

        Every variable occurring in the polynomial must have an image;
        raises :class:`MissingImageError` otherwise.  Extra images are
        ignored.
        """
        keyed = {v: _as_monomial(img)._key for v, img in images.items()}
        out: dict = {}
        for key, coeff in self._t.items():
            new = ()
            for v, n, d in key:
                img = keyed.get(v)
                if img is None:
                    raise MissingImageError(v)
                new = _K.mono_mul(new, _K.mono_pow(img, n, d))
            c = out.get(new, 0) + coeff
            if c:
                out[new] = c
            elif new in out:
                del out[new]
        return LaurentPoly._raw(out)

    def __str__(self) -> str:
        return canonical_text(self)

    def __repr__(self) -> str:
        return f"LaurentPoly('{self}')"

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        """Canonical JSON object; round-trips bit-exactly."""
        entries = []
        for key in _ordered_keys(self._t):
            entries.append(
                {
                    "coeff": str(self._t[key]),
                    "monomial": {v: f"{n}/{d}" for v, n, d in key},
                }
            )
        return {"terms": entries}

    @classmethod
    def from_json_dict(cls, obj: Mapping) -> "LaurentPoly":
        return cls._raw(_merge_terms(map(_json_term, obj["terms"])))

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json(cls, text: str) -> "LaurentPoly":
        return cls.from_json_dict(json.loads(text))


# -- canonical text --------------------------------------------------------


def canonical_text(p: LaurentPoly) -> str:
    """Canonical rendering: descending graded-lex terms, explicit signs,
    integer exponents bare and fractional ones parenthesized.

    The output re-parses to an equal value: ``-a^4 + a^2*t + a^2*t^-1``,
    ``t^(1/2) - t^(-1/2)``, ``0``.
    """
    return _render_terms(p, _mono_text, "*")


def _render_terms(p: LaurentPoly, mono_text, sep: str) -> str:
    """The terms in canonical order with explicit signs; a coefficient
    other than 1 is joined to ``mono_text(key)`` by ``sep``."""
    if p.is_zero:
        return "0"
    chunks = []
    for key in _ordered_keys(p._t):
        coeff = p._t[key]
        mag = coeff if coeff > 0 else -coeff
        if not key:
            body = str(mag)
        elif mag == 1:
            body = mono_text(key)
        else:
            body = f"{mag}{sep}{mono_text(key)}"
        if not chunks:
            chunks.append(body if coeff > 0 else f"-{body}")
        else:
            chunks.append(f" + {body}" if coeff > 0 else f" - {body}")
    return "".join(chunks)


# -- spec-level operation names --------------------------------------------


def mono_pow(m: Monomial, r: RationalLike) -> Monomial:
    """Monomial power with a rational exponent (total; zero drops out)."""
    return m ** r


def add(p1: LaurentPoly, p2: LaurentPoly) -> LaurentPoly:
    return p1 + p2


def mul(p1: LaurentPoly, p2: LaurentPoly) -> LaurentPoly:
    return p1 * p2


def substitute(p: LaurentPoly, images: Mapping[str, object]) -> LaurentPoly:
    return p.substitute(images)


def exact_div(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """Exact quotient num/den in the Laurent ring.

    Performs leading-term reduction in graded-lex order and raises
    :class:`NotDivisibleError` as soon as the remainder provably cannot
    vanish: a leading coefficient not divisible by the divisor's, a
    remainder degree below the numerator's minimum, or a candidate
    quotient term outside the Newton box.  By Ostrowski's theorem
    (Newton(num) = Newton(quot) + Newton(den)) every exponent of a variable
    v in the quotient lies in [min_v num - min_v den, max_v num - max_v den].
    Candidates strictly decrease in a monomial order and their exponents
    have bounded denominators, so they are distinct points of a finite box
    and the reduction always stops.
    """
    if den.is_zero:
        raise DivisionByZeroError("division by the zero polynomial")
    if num.is_zero:
        return LaurentPoly.zero()

    den_t = den._t
    if len(den_t) == 1:
        ((dm, dc),) = den_t.items()
        dm_inv = _K.mono_pow(dm, -1, 1)
        out = {}
        for key, coeff in num._t.items():
            if coeff % dc:
                raise NotDivisibleError(f"coefficient {coeff} not divisible by {dc}")
            out[_K.mono_mul(key, dm_inv)] = coeff // dc
        return LaurentPoly._raw(out)

    scale = _K.exp_scale(num._t, den_t)
    order = _K.Order(scale)
    lt_den = min(den_t, key=order.__getitem__)
    dc = den_t[lt_den]
    dm_inv = _K.mono_pow(lt_den, -1, 1)
    num_b = _exponent_bounds(num._t, scale)
    den_b = _exponent_bounds(den_t, scale)
    box = []
    for v in sorted(num_b.keys() | den_b.keys()):
        n_lo, n_hi = num_b.get(v, (0, 0))
        d_lo, d_hi = den_b.get(v, (0, 0))
        box.append((v, n_lo - d_lo, n_hi - d_hi))
    # a key starts with minus the degree, so top is minus num's least degree
    top = max(order[m][0] for m in num._t)
    rem = dict(num._t)
    quot: dict = {}
    while rem:
        lt = min(rem, key=order.__getitem__)
        qm = _K.mono_mul(lt, dm_inv)
        _check_in_box(qm, box, scale, "quotient", NotDivisibleError)
        if order[lt][0] > top:
            raise NotDivisibleError("remainder degree fell below the numerator's range")
        c = rem[lt]
        if c % dc:
            raise NotDivisibleError(f"coefficient {c} not divisible by {dc}")
        q = c // dc
        quot[qm] = q
        _K.poly_accum_term_mul(rem, den_t, qm, -q)
    return LaurentPoly._raw(quot)


def exact_sqrt(p: LaurentPoly) -> LaurentPoly:
    """Square root in the Laurent ring, normalized to a positive leading
    coefficient; the zero polynomial returns zero.  Raises
    :class:`NotAPerfectSquareError` when no root exists.  Rational
    exponents make every monomial a square, so failure shows up in the
    integer coefficients or as a candidate root term outside the Newton
    box: Newton(p) = 2 Newton(root), so every exponent of a variable v in
    the root lies in [min_v p / 2, max_v p / 2].  Candidates strictly
    decrease in a monomial order inside that finite box, so the reduction
    always stops."""
    if p.is_zero:
        return LaurentPoly.zero()

    # root exponents have half the denominators of p's, so p's are even here
    scale = 2 * _K.exp_scale(p._t)
    order = _K.Order(scale)
    lt = min(p._t, key=order.__getitem__)
    lc = p._t[lt]
    if lc < 0:
        raise NotAPerfectSquareError("leading coefficient is negative")
    rc = isqrt(lc)
    if rc * rc != lc:
        raise NotAPerfectSquareError(f"leading coefficient {lc} is not a square")
    rm = _K.mono_pow(lt, 1, 2)
    rm_inv = _K.mono_pow(rm, -1, 1)

    box = [(v, lo // 2, hi // 2) for v, (lo, hi) in sorted(_exponent_bounds(p._t, scale).items())]
    # root terms have degree >= (least degree of p) / 2, i.e. 2 * key[0] <= top
    top = max(order[m][0] for m in p._t)
    root = {rm: rc}
    rem = dict(p._t)
    del rem[lt]  # lt = rm^2 and lc = rc^2
    while rem:
        lt = min(rem, key=order.__getitem__)
        cm = _K.mono_mul(lt, rm_inv)
        _check_in_box(cm, box, scale, "root", NotAPerfectSquareError)
        c = rem[lt]
        if c % (2 * rc):
            raise NotAPerfectSquareError(f"coefficient {c} not divisible by {2 * rc}")
        cc = c // (2 * rc)
        if 2 * order[cm][0] > top:
            raise NotAPerfectSquareError("candidate term degree fell below the root's range")
        _K.poly_accum_term_mul(rem, root, cm, -2 * cc)
        _K.poly_accum_term_mul(rem, {cm: cc}, cm, -cc)
        root[cm] = cc
    return LaurentPoly._raw(root)
