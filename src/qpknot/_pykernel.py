"""Pure-Python term-arithmetic kernel.

The small set of operations that dominate every computation in the
package; the ring reaches them through `_kernel`.

Data contract:

* polynomial: a `Frame` and a dict mapping the frame's packed int keys to
  nonzero int coefficients.  The empty dict is 0, and the key 0 is the
  monomial 1 in every frame.  Adding two keys of one frame multiplies
  their monomials, and ascending int order is graded-lex order.
* monomial: a ``(frame, key, reach)`` triple, the frame, key and reach of
  a one-term polynomial; `Monomial` holds one, and `mono_mul`, `mono_pow`,
  `mono_deg` and `mono_cmp` take them.
* ``(var, num, den)`` items at the edge: ``var`` a one-letter string and
  ``num/den`` a rational exponent with ``den >= 1``.  `Frame.of` and
  `Frame.pack` encode a monomial's items into a key; `Frame.unpack`
  decodes a key into reduced, nonzero items in variable order, which
  text, JSON, CSV, LaTeX, hashes and `Monomial`'s exponents read.

This module is the only one that reads a key's layout.  Everywhere else a
key is opaque: it is stored, hashed, compared, added to another key of its
frame or handed back to the kernel; a frame's ``weight[v]``, the key of
v^(1/scale), and its methods are the way into its fields.  Five of them
decode fields: `Frame.column` reads one variable's exponent over many
keys, and `span`, `bounds`, `split`, `outside` and the packed route read
through it; `unpack`, `image`, `map` and `least` keep their own per-key
loops, where a call per key would cost more than the loop.

Term dicts meet by two routes.  The term route is `poly_accum_term_mul`,
the one summing loop: out += t * (coeff * key).  `poly_add`,
`poly_term_mul` and `poly_mul` are built on it, and the ring calls it
itself for subtraction, for each step of the leading-term reduction of
exact division and square roots, for each step of the two-term ladder and
for the (a, z) -> t merge.  The packed route (Kronecker substitution, at
the end of this module) puts dense operands on one big int each:
`poly_mul` takes it itself, and the ring's `exact_div` and `exact_sqrt`
ask `dense_div` and `dense_sqrt` first.  One rule, in `_route`, decides,
and a quotient or root is returned only with a certificate that it is
exact; otherwise the ring reduces term by term, so answers and errors do
not depend on the route.  Monomials multiply, raise to powers and compare through
`mono_mul`, `mono_pow` and `mono_cmp` only in `Monomial`'s own arithmetic.
"""

import sys
from array import array
from functools import lru_cache
from itertools import compress
from math import gcd, isqrt, lcm, prod
from operator import add, mul, sub

# Bits per exponent field of a frame whose exponents need no more: every
# |exponent| below 2^15 units of 1/scale.  `Frame.fit` widens past it.
WIDTH = 16


def mono_mul(m1, m2):
    """Product of two monomials: their keys added in the join of their
    frames, fitted to their reaches added."""
    (f1, k1, r1), (f2, k2, r2) = m1, m2
    frame = f1.join(f2).fit(r1 + r2)
    return frame, f1.rekey(k1, frame) + f2.rekey(k2, frame), r1 + r2


def mono_pow(m, num, den):
    """Monomial raised to the rational power num/den (den > 0): in a frame
    of den times its scale, each exponent's count of units times num, then
    moved to its least scale."""
    frame, key, reach = m
    reach = -(-reach * abs(num) // den)
    target = Frame(frame.names, frame.scale * den, frame.width).fit(reach)
    key = frame.image(key, {v: num * target.weight[v] for v in frame.names})
    target, (key,) = target.least({key: 1})
    return target, key, reach


def mono_deg(m):
    """Total degree as a (num, den) pair with den > 0, unreduced:
    `Monomial.degree` makes a `Fraction` of it."""
    frame, key, _ = m
    return frame.degree(key), frame.scale


def mono_cmp(m1, m2):
    """Graded-lex comparison of two monomials: their keys in the join of
    their frames, fitted to the larger reach.  Returns -1, 0 or 1."""
    (f1, k1, r1), (f2, k2, r2) = m1, m2
    frame = f1.join(f2).fit(max(r1, r2))
    k1, k2 = f1.rekey(k1, frame), f2.rekey(k2, frame)
    return (k1 > k2) - (k1 < k2)


class Frame:
    """Packed int keys for monomials in the variables ``names`` whose
    exponents are multiples of 1/scale, each below 2^(width - 1) units in
    magnitude.

    The key of a monomial is the sum, over its variables v, of e_v times
    ``weight[v]``, e_v its exponent in units of 1/scale: one signed bit
    field of ``width`` bits per variable, the alphabetically first in the
    highest, and the total degree above them all.  So adding two keys
    multiplies their monomials, multiplying a key by k raises its monomial
    to the k-th power, and ``weight[v]`` is the key of v^(1/scale).  While
    every |e_v| < 2^(width - 1) the fields are signed digits of the key,
    so ascending int order is graded-lex order (the degree dominates, then
    the first differing field) and each field reads back exactly: every
    method that reads a field adds a private bias, 2^(width - 1) per
    field, so that each field holds e + 2^(width - 1) in [1, 2^width - 1]
    and borrows nothing from the fields above.  The degree needs no bound:
    its field is the top one.

    A frame is a value: frames with equal names, scale and width are equal
    and key alike.  Every polynomial of the ring keeps its terms in one
    frame and carries its reach, a bound on |exponent| in whole units, so
    the ring can `fit` a frame that holds a result before it computes it:
    a sum reaches no further than its operands, a product as far as their
    reaches added.  Operands in different frames meet in their `join`.
    """

    __slots__ = (
        "names", "scale", "width", "weight", "_at", "_bias", "_mask", "_half", "_shift", "_hash"
    )

    def __new__(cls, names=(), scale=1, width=WIDTH):
        return _frame(cls, names, scale, width)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Frame)
            and self.names == other.names
            and self.scale == other.scale
            and self.width == other.width
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Frame({self.names!r}, {self.scale}, {self.width})"

    def __reduce__(self):
        # rebuilt through the constructor, which shares equal frames
        return Frame, (self.names, self.scale, self.width)

    @classmethod
    def of(cls, monos):
        """``(frame, reach)`` for the monomials ``monos``, each a sequence
        of ``(var, num, den)`` items with ``den >= 1``: the least frame that
        holds them, and the largest |exponent| among them rounded up to a
        whole number."""
        names = set()
        scale = 1
        reach = 0
        for m in monos:
            for v, n, d in m:
                names.add(v)
                scale = lcm(scale, d)
                reach = max(reach, -(-abs(n) // d))
        return cls(tuple(sorted(names)), scale).fit(reach), reach

    def fit(self, reach):
        """This frame, or the least wider one, whose fields hold every
        exponent of magnitude up to ``reach``."""
        need = (reach * self.scale).bit_length() + 1
        if need <= self.width:
            return self
        return Frame(self.names, self.scale, need)

    def join(self, other):
        """The least frame whose keys hold the monomials of both frames: the
        union of their variables, the least common multiple of their
        scales and the wider width.  Either frame itself when it is that
        frame.  Its fields hold what both frames' fields hold only while
        the scale does not grow; the ring fits it to the reach it needs."""
        if self == other:
            return self
        names = tuple(sorted(set(self.names).union(other.names)))
        scale = lcm(self.scale, other.scale)
        width = max(self.width, other.width)
        for f in (self, other):
            if f.names == names and f.scale == scale and f.width == width:
                return f
        return Frame(names, scale, width)

    def pack(self, m):
        """Key of the monomial with the ``(var, num, den)`` items ``m``,
        which must lie in this frame."""
        return sum(n * self.scale // d * self.weight[v] for v, n, d in m)

    def unpack(self, key):
        """The ``(var, num, den)`` items of a key, in variable order, each
        exponent reduced and nonzero: equal monomials of any two frames
        give equal items."""
        key += self._bias
        scale, mask, half = self.scale, self._mask, self._half
        out = []
        for v, s in self._at.items():
            e = (key >> s & mask) - half
            if e:
                g = gcd(e, scale)
                out.append((v, e // g, scale // g))
        return tuple(out)

    def column(self, keys, var):
        """The exponent of ``var`` in each of the keys, in their order and in
        units of 1/scale: 0 in each when the frame has no such variable."""
        s = self._at.get(var)
        if s is None:
            return [0] * len(keys)
        bias, mask, half = self._bias, self._mask, self._half
        return [((k + bias) >> s & mask) - half for k in keys]

    def columns(self, keys):
        """The `column` of each variable of the frame, in variable order."""
        return [self.column(keys, v) for v in self.names]

    def split(self, terms, var):
        """``(e, rest, coeff)`` for each term: e the exponent of ``var`` in
        units of 1/scale (0 when the frame has no such variable), rest the
        key without it."""
        unit = self.weight.get(var, 0)
        return [(e, k - e * unit, c) for e, k, c in zip(self.column(terms, var), terms, terms.values())]

    def degree(self, key):
        """Total degree of a key, in units of 1/scale."""
        return (key + self._bias) >> self._shift

    def floor_key(self, degree):
        """The least key of total degree ``degree`` (units of 1/scale): a
        key has a smaller degree exactly when it is smaller."""
        return (degree << self._shift) - self._bias

    def within(self, box):
        """A test of keys: true when the exponent of every variable v lies in
        ``box[v] = (lo, hi)`` (units of 1/scale; ``box`` holds every variable
        of the frame).  Each field of key - key(lo corner) and of
        key(hi corner) - key must be nonnegative, which its top bit shows
        once biased, so the frame's fields must hold those differences."""
        low = sum(lo * self.weight[v] for v, (lo, _) in box.items())
        high = sum(hi * self.weight[v] for v, (_, hi) in box.items())
        top = self._bias  # the top bit of every field

        def inside(key):
            return (key - low + top) & top == top and (high - key + top) & top == top

        return inside

    def outside(self, key, box):
        """``(var, e, lo, hi)`` for the alphabetically first variable whose
        exponent e in a key lies outside ``box[var] = (lo, hi)``, else
        None; ``box`` holds every variable of the frame."""
        for v, (e,) in zip(self.names, self.columns((key,))):
            lo, hi = box[v]
            if e < lo or e > hi:
                return v, e, lo, hi
        return None

    def span(self, keys):
        """``(columns, lows, highs)`` of the keys (some): their `columns`
        and the least and greatest exponent in each."""
        cols = self.columns(keys)
        return cols, [min(es) for es in cols], [max(es) for es in cols]

    def bounds(self, keys):
        """Least and greatest exponent of each variable of the frame over
        the keys (some), as ``var -> (lo, hi)`` in units of 1/scale."""
        _, lows, highs = self.span(keys)
        return dict(zip(self.names, zip(lows, highs)))

    def image(self, key, units):
        """The sum, over the variables v of the frame, of the exponent of v
        in ``key`` (units of 1/scale) times ``units[v]``, a key of another
        frame; a variable without a unit counts as mapped to 1."""
        key += self._bias
        mask, half = self._mask, self._half
        out = 0
        for v, s in self._at.items():
            u = units.get(v)
            if u:
                out += ((key >> s & mask) - half) * u
        return out

    def map(self, terms, units):
        """The terms with every key replaced by its `image`: a linear map on
        keys, so a ring homomorphism sending each v^(1/scale) to the
        monomial of ``units[v]``.  Keys that meet add up, and cancel."""
        bias, mask, half = self._bias, self._mask, self._half
        fields = [(s, units[v]) for v, s in self._at.items() if units.get(v)]
        out = {}
        for k, c in terms.items():
            k += bias
            new = 0
            for s, u in fields:
                new += ((k >> s & mask) - half) * u
            c += out.get(new, 0)
            if c:
                out[new] = c
            elif new in out:
                del out[new]
        return out

    def repack(self, terms, target):
        """The terms keyed in ``target``, a frame with every variable of
        this one, a multiple of its scale and fields that hold the terms."""
        return self.map(terms, _units(self, target))

    def rekey(self, key, target):
        """`repack` for one key: the key itself when ``target`` is this
        frame."""
        return key if self == target else self.image(key, _units(self, target))

    def least(self, terms):
        """``(frame, terms)`` at the least scale that holds the terms: this
        frame's names and width, its scale over the greatest common
        divisor of it and every field.  Equal names and widths give equal
        weights, so each key is divided by that divisor."""
        g = self.scale
        bias, mask, half = self._bias, self._mask, self._half
        shifts = list(self._at.values())
        for k in terms:
            if g == 1:
                return self, terms
            k += bias
            for s in shifts:
                g = gcd(g, (k >> s & mask) - half)
        if g == 1:
            return self, terms
        frame = Frame(self.names, self.scale // g, self.width)
        return frame, {k // g: c for k, c in terms.items()}


@lru_cache(maxsize=256)
def _units(frame, target):
    """The key in ``target`` of v^(1/scale), for each variable v of
    ``frame``.  Built once per pair of frames, like `_frame`'s frames, and
    only read: `Frame.image` and `Frame.map` take it as it is."""
    ratio = target.scale // frame.scale
    return {v: ratio * target.weight[v] for v in frame.names}


@lru_cache(maxsize=256)
def _frame(cls, names, scale, width):
    """The frame with these names, scale and width.  Frames are immutable
    values, so equal ones built close together are one object: the ring
    builds a handful per operation, and most compare by identity."""
    self = object.__new__(cls)
    self.names = names
    self.scale = scale
    self.width = width
    shift = width * len(names)
    # field shift of each variable, the alphabetically first highest
    self._at = {v: shift - width * (i + 1) for i, v in enumerate(names)}
    self.weight = {v: (1 << s) + (1 << shift) for v, s in self._at.items()}
    self._half = 1 << (width - 1)
    self._bias = sum(self._half << s for s in self._at.values())
    self._mask = (1 << width) - 1
    self._shift = shift
    self._hash = hash((names, scale, width))
    return self


def poly_add(t1, t2):
    """Coefficientwise sum of two term dicts of one frame."""
    if len(t1) < len(t2):
        t1, t2 = t2, t1
    return poly_accum_term_mul(dict(t1), t2, 0, 1)


def poly_neg(t):
    return {k: -c for k, c in t.items()}


def poly_mul(t1, t2, frame):
    """Product of two term dicts of ``frame``, which must hold the
    product's exponents.  Dense operands take the packed route
    (`_packed_mul`); otherwise the larger is multiplied by each term of the
    smaller and summed into one dict by the summing loop, which drops
    cancelled sums."""
    if len(t1) < len(t2):
        t1, t2 = t2, t1
    n1, n2 = len(t1), len(t2)
    # the product box has at least n1 + n2 - 1 slots, so the rule of
    # `_route` fails unless this holds, which needs n2 > DENSE
    if n2 > DENSE and DENSE * (n1 + n2 - 1) <= n1 * n2:
        out = _packed_mul(frame, t1, t2)
        if out is not None:
            return out
    out = {}
    for k, c in t2.items():
        poly_accum_term_mul(out, t1, k, c)
    return out


def poly_term_mul(t, key, coeff):
    """Multiply a term dict by the single term coeff * key."""
    return poly_accum_term_mul({}, t, key, coeff)


def poly_accum_term_mul(out, t, key, coeff):
    """In-place out += t * (coeff * key), all keys of one frame; returns
    out."""
    for k, c in t.items():
        k += key
        s = out.get(k, 0) + c * coeff
        if s:
            out[k] = s
        elif k in out:
            del out[k]
    return out


# -- the packed route ------------------------------------------------------
#
# Kronecker substitution: a polynomial becomes one int, and int `*`,
# `divmod` and `math.isqrt` multiply, divide and take roots of it.  The
# operands of one call share a lattice: g_v is the gcd of every operand's
# exponents of v less its least one, and a polynomial whose least exponents
# are ``lows`` puts the term of exponents e in the slot
# sum_v (e_v - low_v) / g_v * stride_v, the strides the mixed radix of the
# extents of the call's largest box (product, dividend or square), the
# first variable the slowest.  So the slot map is injective on that box
# and adds: slot_A(a) + slot_B(b) = slot_AB(a + b) when the lows add.
# Digit i of an operand's int holds slot s0 + G * i, s0 its least slot and
# G the gcd of every operand's slots less their s0: s -> (s - s0) / G is
# injective and adds too, as least slots add.  Digits are balanced,
# |c| < X/2 with X = 2^(8 * width), so an int has at most one such
# expansion and gives back coefficients that small.  A slot of 1, 2, 4 or
# 8 bytes is one signed `array` item, so ints are built and read in C.

# The route is taken when the term route's work, in term pairs, is at
# least DENSE times the slots of the call's largest box (`_route`).  Timed
# (best of 15, Python 3.11.7, shared 2-vCPU Xeon) on dense operands of 3 to
# 64 terms, along t^(1/2) alone or alternating a^0 and a^1, the routes
# broke even at work/slots of 5 to 19: near 11 and 5 for products, 10 and
# 8 for quotients, 8 and 17-19 for roots (one variable, then two).  At 64
# terms the packed route took 0.27 to 0.87 of the term route's time.
# `large-index`'s calls read 27 to 108.
DENSE = 8

# `array` typecodes by bytes; big-endian hosts read slots one by one
_CODES = dict(zip((1, 2, 4, 8), "bhiq")) if sys.byteorder == "little" else {}


def _slot_bytes(bound):
    """Bytes per slot whose balanced digits hold every |c| <= ``bound``,
    |c| < 2^(8 * bytes - 1), rounded up to an `array` item's size."""
    need = bound.bit_length() // 8 + 1
    return next((w for w in _CODES if w >= need), need)


def _lattice(*spans):
    """g for the operands of one call, each its `Frame.span`: per variable
    the gcd of every operand's exponents less its least one, or 1."""
    g = [0] * len(spans[0][0])
    for cols, lows, _ in spans:
        g = [gcd(gv, *[e - lo for e in es]) for gv, es, lo in zip(g, cols, lows)]
    return [gv or 1 for gv in g]


def _route(g, extents, work, bound):
    """The `_Grid` of a call whose largest box has ``extents`` steps of
    ``g`` per variable, its slots holding coefficients up to ``bound``;
    None when the term route's ``work`` is below DENSE times the box's
    slots.  This is the one density rule of the packed route."""
    if DENSE * prod(extents) > work:
        return None
    return _Grid(g, extents, _slot_bytes(bound))


class _Grid:
    """The lattice, slot width and slot gcd G of one packed call."""

    __slots__ = ("strides", "g", "width", "code", "gap")

    def __init__(self, g, extents, width):
        strides, s = [], 1
        for e in reversed(extents):
            strides.append(s)
            s *= e
        self.strides = strides[::-1]
        self.g = g
        self.width = width
        self.code = _CODES.get(width)

    def _tops(self, size):
        """B: ``size`` digits X/2, each slot's top bit."""
        return int.from_bytes((1 << 8 * self.width - 1).to_bytes(self.width, "little") * size, "little")

    def pack(self, *parts):
        """``(int, s0)`` for each ``(terms, span)``, span the terms'
        `Frame.span`: digit i holds slot s0 + G * i.  Sets G."""
        placed, gap = [], 0
        for terms, (cols, lows, _) in parts:
            slots = [0] * len(terms)
            for es, lo, gv, stride in zip(cols, lows, self.g, self.strides):
                slots = [i + (e - lo) // gv * stride for i, e in zip(slots, es)]
            s0 = min(slots)
            gap = gcd(gap, *[s - s0 for s in slots])
            placed.append((terms, slots, s0))
        self.gap = gap = gap or 1
        out = []
        for terms, slots, s0 in placed:
            digits = [0] * ((max(slots) - s0) // gap + 1)
            for s, c in zip(slots, terms.values()):
                digits[(s - s0) // gap] = c
            if self.code:
                data = array(self.code, digits)
            else:
                data = b"".join(c.to_bytes(self.width, "little", signed=True) for c in digits)
            top = self._tops(len(digits))
            out.append(((int.from_bytes(data, "little") ^ top) - top, s0))
        return out

    def unpack(self, n, s0, tops, frame, lows, units):
        """The terms of ``n``, digit i at slot s0 + G * i, keyed in
        ``frame``: j_v steps along v are exponent lows_v + j_v * units_v.
        None unless every digit lies in the box of ``tops[v]`` steps: none
        past its last slot, none past some variable's top."""
        gap, w, strides = self.gap, self.width, self.strides
        weights = [frame.weight[v] for v in frame.names]
        base, steps = sum(map(mul, lows, weights)), list(map(mul, units, weights))
        last = sum(map(mul, tops, strides))
        size = max(0, (last - s0) // gap + 1)
        top = self._tops(size)
        try:
            data = ((n + top) ^ top).to_bytes(size * w, "little")
        except OverflowError:  # a digit past the last slot, or no slot
            return None
        if self.code:
            digits = array(self.code, data)
        else:
            digits = [int.from_bytes(data[i : i + w], "little", signed=True) for i in range(0, len(data), w)]
        # rows along the last variable, their digits G slots apart
        outer = list(zip(strides, tops, steps))[:-1]
        end, unit = tops[-1], steps[-1]
        run = strides[-2] if outer else last + 1
        out = {}
        for r in range(s0 // run, last // run + 1):
            i = max(0, (r * run - s0 + gap - 1) // gap)
            row = digits[i : ((r + 1) * run - s0 + gap - 1) // gap]
            if not any(row):
                continue
            j = s0 + gap * i - r * run
            key, rest = base + j * unit, r * run
            for stride, t, step in outer:
                k, rest = divmod(rest, stride)
                if k > t:
                    return None
                key += k * step
            if any(row[max(0, (end - j) // gap + 1) :]):
                return None
            keys = range(key, key + gap * unit * len(row), gap * unit)
            out.update(zip(compress(keys, row), filter(None, row)))
        return out


def _peak(terms):
    """The largest |coefficient| of a nonempty term dict."""
    return max(map(abs, terms.values()))


def _packed_mul(frame, t1, t2):
    """The product of ``t1`` and the smaller ``t2`` by the packed route, or
    None when `_route` refuses it.  Its coefficients are at most
    max|t1| * max|t2| * len(t2)."""
    span1, span2 = frame.span(t1), frame.span(t2)
    (_, lo1, hi1), (_, lo2, hi2) = span1, span2
    g = _lattice(span1, span2)
    extents = [(h1 - l1 + h2 - l2) // gv + 1 for l1, h1, l2, h2, gv in zip(lo1, hi1, lo2, hi2, g)]
    grid = _route(g, extents, len(t1) * len(t2), _peak(t1) * _peak(t2) * len(t2))
    if grid is None:
        return None
    (n1, m1), (n2, m2) = grid.pack((t1, span1), (t2, span2))
    return grid.unpack(n1 * n2, m1 + m2, [e - 1 for e in extents], frame, map(add, lo1, lo2), g)


def dense_div(frame, num, den, box, num_span, den_span):
    """The exact quotient num/den of two term dicts of ``frame`` by the
    packed route, certified; None when the rule refuses the call or the
    quotient is not certified, and the caller then reduces term by term.
    ``box`` is the quotient's Newton box, ``var -> (lo, hi)`` in units of
    1/scale, which the caller builds from ``num_span`` and ``den_span``,
    the operands' `Frame.span`: the box and the route share one read.

    The rule's work is the term pairs of the reduction, the divisor's terms
    times the quotient's, taken as the slots of the quotient's box but no
    more than the dividend's terms.  With P and D the operands, X/2 half a
    slot, and q the int quotient read back onto the lattice from P's lows
    less D's, from slot q0 = s0(P) - s0(D) (refused when negative), q is
    returned only when

    1. every digit of the int quotient lies in the Newton box B_q
       (`_Grid.unpack`), so q's terms are those digits;
    2. max|q| * max|D| * min(#q, #D) < X/2, where max|P| < X/2 and
       max|D| < X/2 by the slot width;
    3. the int identity q * D == P holds: `divmod` leaves no remainder.

    Then q * D == P as polynomials.  Every term of q * D lies in B_q + B_D,
    P's box, where the slot map is injective and adds, and in a slot
    q0 + s0(D) + G * i = s0(P) + G * i: so the int of q * D is q's int
    times D's, P's int.  Every coefficient of q * D is a sum of at most
    min(#q, #D) products, each at most max|q| * max|D|, so below X/2, as
    are P's.  Balanced base-X expansions are unique, so q * D and P have
    equal coefficients, and q is num/den, as a domain's quotients are
    unique."""
    n_num, n_den = len(num), len(den)
    # P's box has at least n_num slots, and the quotient's box at most the
    # slots of ``box`` at g = 1, so the rule fails unless this holds, which
    # needs n_den >= DENSE
    if n_den < DENSE:
        return None
    if DENSE * n_num > n_den * min(n_num, prod(hi - lo + 1 for lo, hi in box.values())):
        return None
    (_, lon, hin), (_, lod, hid) = num_span, den_span
    g = _lattice(num_span, den_span)
    extents = [(h - l) // gv + 1 for l, h, gv in zip(lon, hin, g)]
    tops = [(hn - ln - hd + ld) // gv for ln, hn, ld, hd, gv in zip(lon, hin, lod, hid, g)]
    if min(tops, default=0) < 0:
        return None
    work = min(n_num, prod(t + 1 for t in tops)) * n_den
    peak = _peak(den)
    grid = _route(g, extents, work, _peak(num) * peak * min(n_num, n_den))
    if grid is None:
        return None
    (p, n0), (d, d0) = grid.pack((num, num_span), (den, den_span))
    if n0 < d0:
        return None
    q, r = divmod(p, d)
    if r:
        return None
    out = grid.unpack(q, n0 - d0, tops, frame, map(sub, lon, lod), g)
    if not out or (_peak(out) * peak * min(len(out), n_den)).bit_length() >= 8 * grid.width:
        return None
    return out


def dense_sqrt(frame, square, target):
    """The square root of a term dict P of ``frame`` by the packed route,
    certified, with a positive leading coefficient, keyed in ``target``,
    ``frame`` at twice its scale; None as for `dense_div`.  The route reads
    P's `Frame.span` in P's frame; the caller repacks P and reads the
    root's Newton box only if it gives up.

    The rule's work, the square of the root's terms, is taken as for
    `dense_div`.  The root r, the int square root of P's int read back onto
    P's lattice from P's lows halved and slot s0(P) / 2 (refused when odd),
    is returned only when every digit lies in B_r, half P's box,
    max|r|^2 * #r < X/2, and r^2 is P's int.  As for `dense_div`, every
    term of r^2 then lies in B_r + B_r, P's box, in a slot s0(P) + G * i,
    every coefficient of it is below X/2, and r^2 == P as polynomials.  In
    ``target`` P's lows halved are P's lows, and g_v is 2 * g_v units.
    `isqrt` gives the root whose top slot is positive; it is negated when
    its graded-lex leading coefficient is not."""
    count = len(square)
    # as in `dense_div`: the rule needs count >= DENSE
    if count < DENSE:
        return None
    span = frame.span(square)
    _, lo, hi = span
    if DENSE * count > min(count, prod(h - l + 1 for l, h in zip(lo, hi))) ** 2:
        return None
    g = _lattice(span)
    extents = [(h - l) // gv + 1 for l, h, gv in zip(lo, hi, g)]
    tops = [(e - 1) // 2 for e in extents]
    work = min(count, prod(t + 1 for t in tops)) ** 2
    grid = _route(g, extents, work, _peak(square) * count)
    if grid is None:
        return None
    ((p, s0),) = grid.pack((square, span))
    if p <= 0 or s0 % 2:
        return None
    r = isqrt(p)
    if r * r != p:
        return None
    out = grid.unpack(r, s0 // 2, tops, target, lo, [2 * gv for gv in g])
    if not out or (_peak(out) ** 2 * len(out)).bit_length() >= 8 * grid.width:
        return None
    if out[max(out)] < 0:
        out = {k: -c for k, c in out.items()}
    return out
