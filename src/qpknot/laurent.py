"""Exact sparse multivariate Laurent polynomials with rational exponents.

Coefficients are arbitrary-precision integers; exponents are exact
rationals (so values like t^(1/2) or a^(2/3) are first-class).  All values
are immutable and all operations are pure, so anything built here can be
shared freely between threads.

Monomial order, used for division, square roots and printing, is graded
lexicographic: larger total degree first, ties broken at the
alphabetically first differing variable with the larger exponent winning,
a missing variable counting as exponent 0.  It has one implementation,
the int order of the kernel's packed keys.

A polynomial holds a `Frame` of the kernel (its variables, scale and
field width), a dict from the frame's packed int keys to coefficients, and
its reach, a bound on |exponent| in whole units.  Keys stay packed between
operations: operands of one frame add, multiply and compare by int
arithmetic, and operands of different frames are re-packed into the join
of the two (`_common`), fitted to the reach of the result.  `substitute`
is a linear map on keys, `exact_div` and `exact_sqrt` ask the kernel's
packed route first and otherwise run one leading-term reduction,
`_reduce`, on the keys (a square root is a division by 2 * root), and
printing sorts the polynomial's own keys.

A `Monomial` holds what a one-term polynomial does: a frame, one key and
a reach.  Monomials multiply, raise to powers and compare through the
kernel's `mono_*` operations on keys, and a polynomial built from them,
`terms()`, `leading_term` and `as_monomial` hand keys over as they are.
Only canonical text, JSON, hashes and a monomial's exponents and text
decode a key, through `Frame.unpack`; this module never reads a key's
layout itself.
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

_NO_VARS = _K.Frame()  # the frame of the constants

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
    invertible.  Instances are immutable and hashable.  A monomial holds
    the ``(frame, key, reach)`` of a one-term polynomial; equal monomials
    in two frames compare and hash equal.
    """

    __slots__ = ("_m",)

    def __init__(self, exps: Mapping[str, RationalLike] | None = None):
        items = []
        for name in sorted(exps or ()):
            e = _as_exponent(exps[name])
            if e:  # a name with a zero exponent drops out unchecked
                items.append((_check_var(name), e.numerator, e.denominator))
        frame, reach = _K.Frame.of((items,))
        self._m = (frame, frame.pack(items), reach)

    @classmethod
    def _raw(cls, m: tuple) -> "Monomial":
        """The monomial of the packed ``(frame, key, reach)`` triple."""
        mono = cls.__new__(cls)
        mono._m = m
        return mono

    @classmethod
    def one(cls) -> "Monomial":
        return cls._raw((_NO_VARS, 0, 0))

    @classmethod
    def var(cls, name: str, exp: RationalLike = 1) -> "Monomial":
        return cls({name: exp})

    @property
    def exponents(self) -> dict[str, Fraction]:
        frame, key, _ = self._m
        return {v: Fraction(n, d) for v, n, d in frame.unpack(key)}

    def exponent(self, name: str) -> Fraction:
        return self.exponents.get(name, Fraction(0))

    def variables(self) -> tuple[str, ...]:
        return tuple(self.exponents)

    def degree(self) -> Fraction:
        return Fraction(*_K.mono_deg(self._m))

    @property
    def is_one(self) -> bool:
        return self._m[1] == 0

    def __mul__(self, other: "Monomial") -> "Monomial":
        if not isinstance(other, Monomial):
            return NotImplemented
        return Monomial._raw(_K.mono_mul(self._m, other._m))

    def __pow__(self, r: RationalLike) -> "Monomial":
        e = _as_exponent(r)
        return Monomial._raw(_K.mono_pow(self._m, e.numerator, e.denominator))

    def inverse(self) -> "Monomial":
        return self ** -1

    def as_poly(self, coeff: int = 1) -> "LaurentPoly":
        if not isinstance(coeff, int):
            raise TypeError("coefficients must be ints")
        frame, key, reach = self._m
        return LaurentPoly._raw(frame, {key: int(coeff)} if coeff else {}, reach)

    def __eq__(self, other) -> bool:
        return isinstance(other, Monomial) and _K.mono_cmp(self._m, other._m) == 0

    def __hash__(self) -> int:
        frame, key, _ = self._m
        return hash(frame.unpack(key))

    def __str__(self) -> str:
        frame, key, _ = self._m
        return _mono_text(frame.unpack(key)) or "1"

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


def _join(monos: Iterable[tuple]) -> tuple:
    """``(frame, reach)`` of the packed monomials ``monos``: their largest
    reach, and the join of their frames fitted to it."""
    frame, reach = _NO_VARS, 0
    for f, _, r in monos:
        frame, reach = frame.join(f), max(reach, r)
    return frame.fit(reach), reach


def _packed(pairs: Iterable[tuple]) -> tuple:
    """``(frame, terms, reach)`` of the ``(monomial, int)`` pairs: the join
    of the monomials' frames, fitted to their largest reach, and the terms
    on its keys, where repeats add up or cancel."""
    monos = []
    for mono, coeff in pairs:
        if not isinstance(coeff, int):
            raise TypeError("coefficients must be ints")
        monos.append((_as_monomial(mono)._m, coeff))
    frame, reach = _join(m for m, _ in monos)
    terms: dict = {}
    for (f, k, _), coeff in monos:
        key = f.rekey(k, frame)
        c = terms.get(key, 0) + coeff
        if c:
            terms[key] = c
        else:
            terms.pop(key, None)
    return frame, terms, reach


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

    __slots__ = ("_f", "_t", "_r")

    def __init__(self, value=0):
        if isinstance(value, LaurentPoly):
            self._f, self._t, self._r = value._f, dict(value._t), value._r
        elif isinstance(value, Monomial):
            self._f, key, self._r = value._m
            self._t = {key: 1}
        elif isinstance(value, int):
            self._f, self._t, self._r = _NO_VARS, ({0: int(value)} if value else {}), 0
        elif isinstance(value, Mapping):
            self._f, self._t, self._r = _packed(value.items())
        else:
            raise TypeError(f"cannot build a polynomial from {value!r}")

    @classmethod
    def _raw(cls, frame, terms: dict, reach: int) -> "LaurentPoly":
        """The polynomial with ``terms`` on the keys of ``frame``, every
        |exponent| at most ``reach``."""
        p = cls.__new__(cls)
        p._f, p._t, p._r = frame, terms, reach
        return p

    def _in(self, frame) -> dict:
        """The terms on the keys of ``frame``, which holds them."""
        return self._t if self._f == frame else self._f.repack(self._t, frame)

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls._raw(_NO_VARS, {}, 0)

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls._raw(_NO_VARS, {0: 1}, 0)

    @classmethod
    def var(cls, name: str, exp: RationalLike = 1) -> "LaurentPoly":
        return Monomial.var(name, exp).as_poly()

    @classmethod
    def from_terms(cls, items: Iterable[tuple]) -> "LaurentPoly":
        return cls._raw(*_packed(items))

    def terms(self) -> list[tuple[Monomial, int]]:
        """Terms in canonical (descending graded-lex) order."""
        f, t, r = self._f, self._t, self._r
        return [(Monomial._raw((f, k, r)), t[k]) for k in sorted(t, reverse=True)]

    def coefficient(self, mono: Monomial) -> int:
        q = _as_monomial(mono).as_poly()
        _, t, (key,) = _common(self, q, max(self._r, q._r))
        return t.get(key, 0)

    def variables(self) -> tuple[str, ...]:
        if not self._t:
            return ()
        return tuple(v for v, span in self._f.bounds(self._t).items() if span != (0, 0))

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
        return Monomial._raw((self._f, next(iter(self._t)), self._r))

    def leading_term(self) -> tuple[Monomial, int]:
        if not self._t:
            raise ValueError("zero polynomial has no leading term")
        key = max(self._t)
        return Monomial._raw((self._f, key, self._r)), self._t[key]

    def __bool__(self) -> bool:
        return bool(self._t)

    def __eq__(self, other) -> bool:
        if isinstance(other, LaurentPoly):
            if len(self._t) != len(other._t):
                return False
            _, a, b = _common(self, other, max(self._r, other._r))
            return a == b
        if isinstance(other, int):
            return self._t == ({0: other} if other else {})
        return NotImplemented

    def __hash__(self) -> int:
        # constants hash like the ints they equal; other values hash their
        # decoded terms, which every frame agrees on
        t = self._t
        if not t:
            return hash(0)
        if len(t) == 1 and 0 in t:
            return hash(t[0])
        unpack = self._f.unpack
        return hash(frozenset((unpack(k), c) for k, c in t.items()))

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
        reach = max(self._r, q._r)
        frame, a, b = _common(self, q, reach)
        return LaurentPoly._raw(frame, _K.poly_add(a, b), reach)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._raw(self._f, _K.poly_neg(self._t), self._r)

    def __sub__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        reach = max(self._r, q._r)
        frame, a, b = _common(self, q, reach)
        return LaurentPoly._raw(frame, _K.poly_accum_term_mul(dict(a), b, 0, -1), reach)

    def __rsub__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return q - self

    def __mul__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        reach = self._r + q._r
        frame, a, b = _common(self, q, reach)
        return LaurentPoly._raw(frame, _K.poly_mul(a, b, frame), reach)

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
        raises :class:`MissingImageError` for the alphabetically first one
        that has none.  Extra images are ignored.

        The homomorphism is a linear map on keys (`Frame.map`): v^(1/s),
        for s the polynomial's scale, goes to the key of its image's
        1/s-th power, in a frame over the images' variables whose scale is
        s times the images' own, so every image exponent is a whole number
        of its units.  Terms that meet add up or cancel, and the result
        moves to its least scale (`Frame.least`).  A term of reach r goes
        to exponents of magnitude at most r times the sum of the images'
        reaches, which the frame is fitted to.
        """
        frame, t = self._f, self._t
        keyed = {v: _as_monomial(img)._m for v, img in images.items()}
        if t and not keyed.keys() >= set(frame.names):
            for v, span in frame.bounds(t).items():
                if v not in keyed and span != (0, 0):
                    raise MissingImageError(v)
        used = {v: keyed[v] for v in frame.names if v in keyed}
        joined, images_reach = _join(used.values())
        reach = self._r * len(used) * images_reach
        target = _K.Frame(joined.names, frame.scale * joined.scale).fit(reach)
        units = {v: f.rekey(k, target) // frame.scale for v, (f, k, _) in used.items()}
        return LaurentPoly._raw(*target.least(frame.map(t, units)), reach)

    def __str__(self) -> str:
        return canonical_text(self)

    def __repr__(self) -> str:
        return f"LaurentPoly('{self}')"

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        """Canonical JSON object; round-trips bit-exactly."""
        t, unpack = self._t, self._f.unpack
        entries = []
        for key in sorted(t, reverse=True):
            entries.append(
                {
                    "coeff": str(t[key]),
                    "monomial": {v: f"{n}/{d}" for v, n, d in unpack(key)},
                }
            )
        return {"terms": entries}

    @classmethod
    def from_json_dict(cls, obj: Mapping) -> "LaurentPoly":
        terms = _json_field(obj, "terms", "polynomial")
        if not isinstance(terms, list):
            raise TypeError(f"terms must be a JSON array, got {terms!r}")
        return cls._raw(*_packed(map(_json_term, terms)))

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json(cls, text: str) -> "LaurentPoly":
        return cls.from_json_dict(json.loads(text))


def _common(p: LaurentPoly, q: LaurentPoly, reach: int) -> tuple:
    """``(frame, p's terms, q's terms)`` on the keys of one frame: the join
    of the two frames, fitted to exponents of magnitude up to ``reach``.
    An operand already in that frame keeps its own dict, so a caller that
    changes one copies it first."""
    frame = p._f.join(q._f).fit(reach)
    return frame, p._in(frame), q._in(frame)


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
    t, unpack = p._t, p._f.unpack
    chunks = []
    for key in sorted(t, reverse=True):
        coeff = t[key]
        mag = coeff if coeff > 0 else -coeff
        if key == 0:
            body = str(mag)
        elif mag == 1:
            body = mono_text(unpack(key))
        else:
            body = f"{mag}{sep}{mono_text(unpack(key))}"
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
    ``tail`` before it asks for the next term.

    Both tests of a candidate are int operations on its key: `Frame.within`
    reads every field against the box at once, and a degree below ``floor``
    is a key below the least key of that degree.  The frame's fields must
    hold the difference of any candidate exponent and a bound of the box;
    `Frame.outside` decodes the candidate only to word the error."""
    inside, low = frame.within(box), frame.floor_key(floor)
    while rem:
        lt = max(rem)
        k = lt - lead
        if not inside(k):
            raise error(_outside_box(what, *frame.outside(k, box), frame.scale))
        if k < low:
            raise error(floor_text)
        c = rem.pop(lt)
        if c % lc:
            raise error(f"coefficient {c} not divisible by {lc}")
        c //= lc
        _K.poly_accum_term_mul(rem, tail, k, -c)
        yield k, c


def _box_reach(box: dict, scale: int) -> int:
    """The largest |exponent| in the Newton ``box`` (units of 1/scale),
    rounded up to a whole number."""
    return -(-max((max(-lo, hi) for lo, hi in box.values()), default=0) // scale)


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

    Dense operands are first tried on the kernel's packed route
    (`_kernel.dense_div`): the numerator and divisor become one int each,
    `divmod` divides them, and the int quotient is read back onto the
    frame's keys; the Newton box and the route share one read of each
    operand, its `Frame.span`.  The quotient is returned only when the
    remainder is zero, every quotient term lies in the Newton box below,
    and a bound on the coefficients of quotient times divisor stays below
    half a slot; the kernel's docstring proves that the quotient is then
    exact.  Otherwise, or when the route's density rule refuses the call,
    the reduction runs from the start, so the answer and every error text
    are those of the reduction alone.

    The reduction runs on the packed keys of the operands' common frame,
    and the quotient keeps them.  Writing [n_lo, n_hi] and [d_lo, d_hi]
    for the exponents of v in the numerator and the divisor, a quotient
    term enters the remainder only after passing the Newton box, so
    remainder terms stay in [n_lo, n_hi], and a candidate, a remainder term
    over the divisor's leading term, in [n_lo - d_hi, n_hi - d_lo].  So
    a candidate differs from a bound of the box by at most twice the
    larger reach of the operands, which the frame is fitted to.  Only the
    divisor's other terms are added into the remainder, since its leading
    term cancels exactly.
    """
    if den.is_zero:
        raise DivisionByZeroError("division by the zero polynomial")
    if num.is_zero:
        return LaurentPoly.zero()

    frame, rem, tail = _common(num, den, 2 * max(num._r, den._r))
    spans = frame.span(rem), frame.span(tail)
    (_, n_lo, n_hi), (_, d_lo, d_hi) = spans
    box = {v: (a - b, c - d) for v, a, b, c, d in zip(frame.names, n_lo, d_lo, n_hi, d_hi)}
    reach = _box_reach(box, frame.scale)
    quot = _K.dense_div(frame, rem, tail, *spans)
    if quot is not None:
        return LaurentPoly._raw(frame, quot, reach)
    rem, tail = dict(rem), dict(tail)
    lead = max(tail)
    dc = tail.pop(lead)
    floor = frame.degree(min(rem)) - frame.degree(lead)
    quot = _reduce(
        frame, rem, lead, dc, tail, box, floor, NotDivisibleError,
        "quotient", "remainder degree fell below the numerator's range",
    )
    return LaurentPoly._raw(frame, dict(quot), reach)


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
    monomial order inside that finite box, so the reduction always stops.

    The root is keyed in p's frame at twice its scale, where every
    exponent and degree of p is even and half a key is the key of the
    square root.  p is read once, its `Frame.span` in its own frame, where
    the root's Newton box is p's lows and highs and its least degree p's:
    half of an exponent in the doubled frame is that exponent in p's.  A
    dense p is first tried on the kernel's packed route
    (`_kernel.dense_sqrt`), which takes that span and writes the root's
    keys straight into the doubled frame: `math.isqrt` of p's int, read
    back onto p's own lattice, is the root when its square is p's int, its
    terms lie in the Newton box and a coefficient bound holds (proved in
    the kernel), and it is negated when its leading coefficient is
    negative.  Otherwise, or when the density rule refuses the call, p is
    repacked into the doubled frame and the reduction runs from the start
    and gives the answer and the error text.  In the reduction, remainder
    terms stay in p's box and candidates, a remainder term over the root's
    leading term, within 3/2 of p's reach, so a candidate differs from a
    bound of the root's box by at most twice p's reach, which the frame is
    fitted to.  The root moves to its least scale."""
    if p.is_zero:
        return LaurentPoly.zero()

    f = p._f
    frame = _K.Frame(f.names, 2 * f.scale, f.width).fit(2 * p._r)
    reach = -(-p._r // 2)
    span = f.span(p._t)
    root = _K.dense_sqrt(f, p._t, frame, span)
    if root is not None:
        return LaurentPoly._raw(*frame.least(root), reach)
    # half an exponent of p in ``frame`` is that exponent in p's own frame
    _, lows, highs = span
    box = dict(zip(f.names, zip(lows, highs)))
    floor = f.degree(min(p._t))
    rem = f.repack(p._t, frame)
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
        _K.poly_accum_term_mul(rem, {k: c}, k, -c)
    return LaurentPoly._raw(*frame.least(root), reach)
