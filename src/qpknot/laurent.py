"""Exact sparse multivariate Laurent polynomials with rational exponents.

Coefficients are arbitrary-precision integers; exponents are exact
rationals (so values like t^(1/2) or a^(2/3) are first-class).  All values
are immutable and all operations are pure, so anything built here can be
shared freely between threads.

Monomial order, used for division, square roots and printing, is graded
lexicographic: larger total degree first, ties broken at the
alphabetically first differing variable with the larger exponent winning,
a missing variable counting as exponent 0.  It has one implementation,
the packed int keys of the kernel's `Frame`: printing and `leading_term`
sort and scan by them, and `exact_div` and `exact_sqrt` run one
leading-term reduction, `_reduce`, on them: a square root is a division
by 2 * root.

A monomial is held as the kernel's key, which this module never builds or
takes apart itself: keys come from `_kernel.mono_of` and `_kernel.ONE`,
their ``(var, num, den)`` items from `_kernel.mono_items`, and the
degree of a packed key from `Frame.degree`.
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterable, Mapping
from fractions import Fraction
from math import isqrt

from qpknot import _kernel as _K
from qpknot.errors import (
    DivisionByZeroError,
    MissingImageError,
    NotAPerfectSquareError,
    NotDivisibleError,
)

RationalLike = int | Fraction | tuple

# every exponent text the JSON writer emits, and nothing else
_JSON_EXPONENT = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _as_exponent(r: RationalLike) -> Fraction:
    if isinstance(r, Fraction):
        return r
    if isinstance(r, int):
        return Fraction(r)
    if isinstance(r, tuple) and len(r) == 2:
        if r[1] == 0:
            raise ValueError(f"zero denominator in exponent {r!r}")
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
        items = []
        for name in sorted(exps or ()):
            e = _as_exponent(exps[name])
            if e:  # a name with a zero exponent drops out unchecked
                items.append((_check_var(name), e.numerator, e.denominator))
        self._key = _K.mono_of(items)

    @classmethod
    def _from_key(cls, key: tuple) -> "Monomial":
        m = cls.__new__(cls)
        m._key = key
        return m

    @classmethod
    def one(cls) -> "Monomial":
        return cls._from_key(_K.ONE)

    @classmethod
    def var(cls, name: str, exp: RationalLike = 1) -> "Monomial":
        return cls({name: exp})

    @property
    def exponents(self) -> dict[str, Fraction]:
        return {v: Fraction(n, d) for v, n, d in _K.mono_items(self._key)}

    def exponent(self, name: str) -> Fraction:
        n, d, _ = _K.mono_split(self._key, name)
        return Fraction(n, d)

    def variables(self) -> tuple[str, ...]:
        return tuple(v for v, _, _ in _K.mono_items(self._key))

    def degree(self) -> Fraction:
        n, d = _K.mono_deg(self._key)
        return Fraction(n, d)

    @property
    def is_one(self) -> bool:
        return self._key == _K.ONE

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
        if not isinstance(coeff, int):
            raise TypeError("coefficients must be ints")
        return LaurentPoly._raw({self._key: int(coeff)} if coeff else {})

    def __eq__(self, other) -> bool:
        return isinstance(other, Monomial) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __str__(self) -> str:
        return "1" if self.is_one else _mono_text(_K.mono_items(self._key))

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


def _mono_text(items) -> str:
    parts = []
    for v, n, d in items:
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


def _json_field(obj, key: str, where: str):
    """``obj[key]`` of a JSON object; raises when ``obj`` is not one or has
    no such field."""
    if not isinstance(obj, Mapping):
        raise TypeError(f"{where} must be a JSON object, got {obj!r}")
    if key not in obj:
        raise ValueError(f"{where} has no {key!r} field")
    return obj[key]


def _json_term(entry) -> tuple:
    monomial = _json_field(entry, "monomial", "term")
    coeff = _json_field(entry, "coeff", "term")
    if not isinstance(monomial, Mapping):
        raise TypeError(f"monomial must be a JSON object, got {monomial!r}")
    exps = {}
    for v, frac in monomial.items():
        if not isinstance(frac, str):
            raise TypeError(f"exponent of {v!r} must be a string 'num/den', got {frac!r}")
        if not _JSON_EXPONENT.fullmatch(frac):
            raise ValueError(f"exponent of {v!r} must read 'num' or 'num/den', got {frac!r}")
        num, _, den = frac.partition("/")
        exps[v] = (int(num), int(den or 1))
    # JSON true and 1.5 would pass int() as 1
    if isinstance(coeff, (bool, float)):
        raise ValueError(f"coefficient {coeff!r} is not an integer")
    return Monomial(exps), int(coeff)


def _ordered_keys(terms: dict) -> list:
    return sorted(terms, key=_K.Frame.of(terms).pack, reverse=True)


def _outside_box(what: str, v: str, e: int, lo: int, hi: int, scale: int) -> str:
    """Why a candidate with v-exponent e/scale fails the box [lo, hi]/scale,
    worded from what `Frame.outside` returns."""
    return (
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

    __slots__ = ("_t",)

    def __init__(self, value=0):
        if isinstance(value, LaurentPoly):
            terms = value._t
        elif isinstance(value, Monomial):
            terms = {value._key: 1}
        elif isinstance(value, int):
            terms = {_K.ONE: int(value)} if value else {}
        elif isinstance(value, Mapping):
            terms = _merge_terms(value.items())
        else:
            raise TypeError(f"cannot build a polynomial from {value!r}")
        self._t = dict(terms)

    @classmethod
    def _raw(cls, terms: dict) -> "LaurentPoly":
        p = cls.__new__(cls)
        p._t = terms
        return p

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls._raw({})

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls._raw({_K.ONE: 1})

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
        return tuple(sorted({v for key in self._t for v, _, _ in _K.mono_items(key)}))

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
        key = max(self._t, key=_K.Frame.of(self._t).pack)
        return Monomial._from_key(key), self._t[key]

    def __bool__(self) -> bool:
        return bool(self._t)

    def __eq__(self, other) -> bool:
        if isinstance(other, LaurentPoly):
            return self._t == other._t
        if isinstance(other, int):
            return self._t == ({_K.ONE: other} if other else {})
        return NotImplemented

    def __hash__(self) -> int:
        # constants hash like the ints they equal
        if not self._t:
            return hash(0)
        if len(self._t) == 1 and _K.ONE in self._t:
            return hash(self._t[_K.ONE])
        return hash(frozenset(self._t.items()))

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
        return LaurentPoly._raw(_K.poly_accum_term_mul(dict(self._t), q._t, _K.ONE, -1))

    def __rsub__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return LaurentPoly._raw(_K.poly_accum_term_mul(dict(q._t), self._t, _K.ONE, -1))

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
            new = _K.ONE
            for v, n, d in _K.mono_items(key):
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
                    "monomial": {v: f"{n}/{d}" for v, n, d in _K.mono_items(key)},
                }
            )
        return {"terms": entries}

    @classmethod
    def from_json_dict(cls, obj: Mapping) -> "LaurentPoly":
        terms = _json_field(obj, "terms", "polynomial")
        if not isinstance(terms, list):
            raise TypeError(f"terms must be a JSON array, got {terms!r}")
        return cls._raw(_merge_terms(map(_json_term, terms)))

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
    other than 1 is joined to ``mono_text(items)``, the rendering of the
    monomial's ``(var, num, den)`` items, by ``sep``."""
    if p.is_zero:
        return "0"
    chunks = []
    for key in _ordered_keys(p._t):
        coeff = p._t[key]
        mag = coeff if coeff > 0 else -coeff
        if key == _K.ONE:
            body = str(mag)
        elif mag == 1:
            body = mono_text(_K.mono_items(key))
        else:
            body = f"{mag}{sep}{mono_text(_K.mono_items(key))}"
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


def _reduce(frame, rem, lead, lc, tail, box, floor, error, what, floor_text):
    """The leading-term reduction of `exact_div` and `exact_sqrt`, on packed
    keys of ``frame``: yields each term ``(key, coeff)`` of the answer.

    At each step the candidate is the remainder's leading term over the
    divisor's, ``lc`` times the key ``lead``.  The reduction fails with
    ``error`` as soon as the remainder provably cannot vanish: a candidate
    outside the Newton ``box`` (named as a ``what`` term), a candidate degree
    below ``floor`` (``floor_text``), or a leading coefficient not divisible
    by ``lc``.  Otherwise the remainder ``rem`` loses its leading term and
    the candidate times ``tail``, the divisor's other terms (a key plus a
    key is the key of their product).  The caller may change ``rem`` and
    ``tail`` before it asks for the next term."""
    while rem:
        lt = max(rem)
        k = lt - lead
        bad = frame.outside(k, box)
        if bad:
            raise error(_outside_box(what, *bad, frame.scale))
        # exact: the box lies inside the frame's spans
        if frame.degree(k) < floor:
            raise error(floor_text)
        c = rem.pop(lt)
        if c % lc:
            raise error(f"coefficient {c} not divisible by {lc}")
        c //= lc
        _K.packed_accum_term_mul(rem, tail, k, -c)
        yield k, c


def exact_div(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """Exact quotient num/den in the Laurent ring.

    Performs leading-term reduction in graded-lex order and raises
    :class:`NotDivisibleError` as soon as the remainder provably cannot
    vanish: a candidate quotient term outside the Newton box, a candidate
    degree below the numerator's least degree minus the divisor's leading
    one (the remainder then fell below the numerator's range), or a leading
    coefficient not divisible by the divisor's.  By Ostrowski's theorem
    (Newton(num) = Newton(quot) + Newton(den)) every exponent of a variable
    v in the quotient lies in [min_v num - min_v den, max_v num - max_v den].
    Candidates strictly decrease in a monomial order and their exponents
    have bounded denominators, so they are distinct points of a finite box
    and the reduction always stops.  Every divisor, monomials included, goes
    through this one reduction, `_reduce`, which square roots share.

    The reduction runs on the packed keys of a `Frame` sized for this call
    (its docstring gives the field widths).  Only the divisor's other terms
    are added into the remainder, since its leading term cancels exactly,
    and each quotient term is decoded to a monomial as it comes.
    """
    if den.is_zero:
        raise DivisionByZeroError("division by the zero polynomial")
    if num.is_zero:
        return LaurentPoly.zero()

    num_t, den_t = num._t, den._t
    scale = _K.exp_scale(num_t, den_t)
    num_b = _K.exponent_bounds(num_t, scale)
    den_b = _K.exponent_bounds(den_t, scale)
    spans, box = {}, {}
    for v in num_b.keys() | den_b.keys():
        n_lo, n_hi = num_b.get(v, (0, 0))
        d_lo, d_hi = den_b.get(v, (0, 0))
        spans[v] = (min(n_lo, d_lo, n_lo - d_hi), max(n_hi, d_hi, n_hi - d_lo))
        box[v] = (n_lo - d_lo, n_hi - d_hi)
    frame = _K.Frame(scale, spans)
    rem = {frame.pack(m): c for m, c in num_t.items()}
    tail = {frame.pack(m): c for m, c in den_t.items()}
    lead = max(tail)
    dc = tail.pop(lead)
    floor = frame.degree(min(rem)) - frame.degree(lead)
    quot = _reduce(
        frame, rem, lead, dc, tail, box, floor, NotDivisibleError,
        "quotient", "remainder degree fell below the numerator's range",
    )
    return LaurentPoly._raw({frame.unpack(k): q for k, q in quot})


def exact_sqrt(p: LaurentPoly) -> LaurentPoly:
    """Square root in the Laurent ring, normalized to a positive leading
    coefficient; the zero polynomial returns zero.  Raises
    :class:`NotAPerfectSquareError` when no root exists.

    Past its leading term the root comes from the one reduction of
    `exact_div`: p minus the square of the root so far is divided by
    2 * root, a divisor that gains one term per step, and each new term
    also takes its own square off the remainder.  Rational exponents make
    every monomial a square, so failure shows up in the integer
    coefficients or as a candidate root term outside the Newton box:
    Newton(p) = 2 Newton(root), so every exponent of a variable v in the
    root lies in [min_v p / 2, max_v p / 2], and every root term has at
    least half p's least degree.  Candidates strictly decrease in a
    monomial order inside that finite box, so the reduction always stops."""
    if p.is_zero:
        return LaurentPoly.zero()

    # root exponents have half the denominators of p's, so every exponent
    # and degree of p is even here
    scale = 2 * _K.exp_scale(p._t)
    bounds = _K.exponent_bounds(p._t, scale)
    spans = {v: (min(lo, lo - hi // 2), max(hi, hi - lo // 2)) for v, (lo, hi) in bounds.items()}
    box = {v: (lo // 2, hi // 2) for v, (lo, hi) in bounds.items()}
    frame = _K.Frame(scale, spans)
    rem = {frame.pack(m): c for m, c in p._t.items()}
    floor = frame.degree(min(rem)) // 2
    lt = max(rem)
    lc = rem.pop(lt)  # lt = rm^2 and lc = rc^2
    if lc < 0:
        raise NotAPerfectSquareError("leading coefficient is negative")
    rc = isqrt(lc)
    if rc * rc != lc:
        raise NotAPerfectSquareError(f"leading coefficient {lc} is not a square")
    rm = lt // 2
    root, tail = {rm: rc}, {}  # tail: 2 * root but its leading term
    terms = _reduce(
        frame, rem, rm, 2 * rc, tail, box, floor, NotAPerfectSquareError,
        "root", "candidate term degree fell below the root's range",
    )
    for k, c in terms:
        root[k], tail[k] = c, 2 * c
        _K.packed_accum_term_mul(rem, {k: c}, k, -c)
    return LaurentPoly._raw({frame.unpack(k): c for k, c in root.items()})
