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
keys, and `bounds`, `split`, `outside` and the packed route read through
it (`Frame.columns`); `unpack`, `image`, `map` and `least` keep their own
per-key loops, where a call per key would cost more than the loop.

Term dicts meet by two routes.  The term route is `poly_accum_term_mul`,
the one summing loop: out += t * (coeff * key).  `poly_add`,
`poly_term_mul` and `poly_mul` are built on it, and the ring calls it
itself for subtraction, for each step of the leading-term reduction of
exact division and square roots, for each step of the two-term ladder and
for the (a, z) -> t merge.  The packed route (Kronecker substitution, at
the end of this module) puts dense operands on one big int each and lets
int `*`, `divmod` and `math.isqrt` do the work: `poly_mul` takes it
itself, and the ring's `exact_div` and `exact_sqrt` ask `dense_div` and
`dense_sqrt` first.  One rule, in `_route`, decides, and a quotient or
root is returned only with a certificate that it is exact; otherwise the
ring reduces term by term, so answers and errors do not depend on the
route.  Monomials multiply, raise to powers and compare through
`mono_mul`, `mono_pow` and `mono_cmp` only in `Monomial`'s own arithmetic.
"""

from functools import lru_cache
from math import gcd, isqrt, lcm, prod

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

    def bounds(self, keys):
        """Least and greatest exponent of each variable of the frame over
        the keys (some), as ``var -> (lo, hi)`` in units of 1/scale."""
        return {v: (min(es), max(es)) for v, es in zip(self.names, self.columns(keys))}

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
# Kronecker substitution: a polynomial on a lattice box becomes one int, the
# sum of c * X^slot over its terms, and CPython's int `*`, `divmod` and
# `math.isqrt` multiply, divide and take roots of it.  The lattice is shared
# by every operand of one call: for each variable v of the frame, g_v is the
# gcd of every operand's exponents of v less that operand's least one, and
# a polynomial whose least exponents are ``lows`` puts the term of
# exponents e in the slot sum_v (e_v - low_v) / g_v * stride_v.  The strides
# are the mixed radix of the extents of the call's largest box (the
# product, dividend or square), the alphabetically first variable the
# slowest, so the slot map is injective on that box and adds exponents of
# polynomials whose lows add: slot_A(a) + slot_B(b) = slot_AB(a + b).  Each
# slot holds a balanced digit, |c| < X/2 with X = 2^(8 * width), so an int
# has at most one such expansion and reading its digits back recovers the
# coefficients, provided the polynomial's coefficients are that small.

# The packed route is taken when the term route's work, in term pairs, is
# at least DENSE times the slots of the call's largest box (`_route`): the
# route reads and writes every slot in interpreted code, and the term
# route handles each term pair once.  Timed in process (best of 15, Python
# 3.11.7, shared 2-vCPU Xeon) on dense operands of 3 to 64 terms, along
# t^(1/2) alone or alternating a^0 and a^1, the two routes broke even at
# work/slots of 5 to 19: near 11 and 5 for products, 10 and 8 for
# quotients, 8 and 17-19 for square roots (one variable, then two), in two
# runs.  Past it the packed route wins by more the larger the call: at 64
# terms it took 0.27 to 0.87 of the term route's time.  The calls of the
# benchmark's `large-index` workload read 27 to 108.
DENSE = 8


def _slot_bytes(bound):
    """Bytes per slot whose balanced digits hold every coefficient of
    magnitude up to ``bound``: |c| < 2^(8 * bytes - 1)."""
    return bound.bit_length() // 8 + 1


def _lattice(frame, *parts):
    """``(spans, g)`` for the term dicts ``parts`` of ``frame``, the operands
    of one call: ``(columns, lows, highs)`` for each, its `Frame.columns`
    with the least and greatest exponent of each variable, and for each
    variable the gcd of every operand's exponents less that operand's
    least one (1 where they are all 0)."""
    spans, g = [], [0] * len(frame.names)
    for t in parts:
        cols = frame.columns(t)
        lows = [min(es) for es in cols]
        spans.append((cols, lows, [max(es) for es in cols]))
        g = [gcd(gv, *[e - lo for e in es]) for gv, es, lo in zip(g, cols, lows)]
    return spans, [gv or 1 for gv in g]


def _route(frame, g, extents, work, bound):
    """The `_Grid` of a call whose largest box has ``extents`` steps of
    ``g`` per variable, with slots for coefficients up to ``bound``; None
    when the term route's ``work`` (term pairs) is below DENSE times the
    box's slots.  This is the one density rule of the packed route."""
    if DENSE * prod(extents) > work:
        return None
    return _Grid(frame, g, extents, _slot_bytes(bound))


class _Grid:
    """The lattice and slot width of one packed call (see above)."""

    __slots__ = ("strides", "steps", "weights", "g", "width", "half")

    def __init__(self, frame, g, extents, width):
        strides, s = [], 1
        for e in reversed(extents):
            strides.append(s)
            s *= e
        self.strides = strides[::-1]
        self.weights = [frame.weight[v] for v in frame.names]
        self.steps = [gv * w for gv, w in zip(g, self.weights)]
        self.g = g
        self.width = width
        self.half = 1 << (8 * width - 1)

    def _bias(self, slots):
        """The int whose ``slots`` digits are each X/2."""
        return int.from_bytes(self.half.to_bytes(self.width, "little") * slots, "little")

    def pack(self, terms, columns, lows):
        """The int of ``terms`` whose keys have the exponents ``columns``
        (`Frame.columns`), put on the lattice from ``lows``."""
        slots = [0] * len(terms)
        for es, lo, gv, stride in zip(columns, lows, self.g, self.strides):
            slots = [i + (e - lo) // gv * stride for i, e in zip(slots, es)]
        w, half = self.width, self.half
        top = max(slots) + 1
        buf = bytearray(half.to_bytes(w, "little") * top)
        for i, c in zip(slots, terms.values()):
            i *= w
            buf[i : i + w] = (c + half).to_bytes(w, "little")
        return int.from_bytes(buf, "little") - self._bias(top)

    def unpack(self, n, lows, tops):
        """The term dict of the int ``n`` on the lattice from ``lows``, or
        None unless every digit lies in the box of ``tops[v]`` steps past
        ``lows[v]`` for each variable v: no digit past its last slot, and
        none whose steps in some variable exceed that variable's top."""
        w, half = self.width, self.half
        size = sum(t * s for t, s in zip(tops, self.strides)) + 1
        try:
            data = (n + self._bias(size)).to_bytes(size * w, "little")
        except OverflowError:  # a digit past the last slot, or below the first
            return None
        zero = half.to_bytes(w, "little")
        base = sum(lo * wt for lo, wt in zip(lows, self.weights))
        dims = list(zip(self.strides, tops, self.steps))
        out = {}
        for i in range(0, size * w, w):
            d = data[i : i + w]
            if d != zero:
                key, rest = base, i // w
                for stride, top, step in dims:
                    j, rest = divmod(rest, stride)
                    if j > top:
                        return None
                    key += j * step
                out[key] = int.from_bytes(d, "little") - half
        return out


def _peak(terms):
    """The largest |coefficient| of a nonempty term dict."""
    return max(map(abs, terms.values()))


def _packed_mul(frame, t1, t2):
    """The product of ``t1`` and the smaller ``t2`` by the packed route, or
    None when the rule of `_route` sends it down the term route.  Its
    coefficients are at most max|t1| * max|t2| * len(t2)."""
    ((c1, lo1, hi1), (c2, lo2, hi2)), g = _lattice(frame, t1, t2)
    extents = [(h1 - l1 + h2 - l2) // gv + 1 for l1, h1, l2, h2, gv in zip(lo1, hi1, lo2, hi2, g)]
    grid = _route(frame, g, extents, len(t1) * len(t2), _peak(t1) * _peak(t2) * len(t2))
    if grid is None:
        return None
    n = grid.pack(t1, c1, lo1) * grid.pack(t2, c2, lo2)
    return grid.unpack(n, [a + b for a, b in zip(lo1, lo2)], [e - 1 for e in extents])


def dense_div(frame, num, den, box):
    """The exact quotient num/den of two term dicts of ``frame`` by the
    packed route, certified; None when the route's rule refuses the call
    or the quotient is not certified, and the caller then reduces term by
    term.  ``box`` is the quotient's Newton box, ``var -> (lo, hi)`` in
    units of 1/scale.

    The rule's work is the term pairs of the leading-term reduction, the
    divisor's terms times the quotient's, which are taken as the slots of
    the quotient's box but no more than the dividend's terms (a sparse box
    overstates them).  With P and D the operands, X/2 half a slot, and q
    the int quotient read back onto the lattice from P's lows less D's, q
    is returned only when

    1. every digit of the int quotient lies in the quotient's Newton box
       B_q (`_Grid.unpack`), so q's terms are those digits;
    2. max|q| * max|D| * min(#q, #D) < X/2, where max|P| < X/2 and
       max|D| < X/2 by the choice of the slot width;
    3. the int identity q * D == P holds: `divmod` leaves no remainder.

    Then q * D == P as polynomials.  Every term of q * D lies in B_q + B_D,
    which is P's box, where the slot map is injective and adds exponents:
    so the int of q * D is q's int times D's, which is P's int.  Every
    coefficient of q * D is a sum of at most min(#q, #D) products, each at
    most max|q| * max|D|, so below X/2, as are P's.  The balanced base-X
    expansion of an int is unique, so q * D and P have equal digits in
    every slot of P's box: equal coefficients.  The quotient of a ring
    without zero divisors is unique, so q is num/den."""
    n_num, n_den = len(num), len(den)
    # P's box has at least n_num slots, and the quotient's box at most the
    # slots of ``box`` at g = 1, so the rule fails unless this holds, which
    # needs n_den >= DENSE
    if n_den < DENSE:
        return None
    if DENSE * n_num > n_den * min(n_num, prod(hi - lo + 1 for lo, hi in box.values())):
        return None
    ((cn, lon, hin), (cd, lod, hid)), g = _lattice(frame, num, den)
    extents = [(h - l) // gv + 1 for l, h, gv in zip(lon, hin, g)]
    tops = [(hn - ln - hd + ld) // gv for ln, hn, ld, hd, gv in zip(lon, hin, lod, hid, g)]
    if min(tops, default=0) < 0:
        return None
    work = min(n_num, prod(t + 1 for t in tops)) * n_den
    peak = _peak(den)
    grid = _route(frame, g, extents, work, _peak(num) * peak * min(n_num, n_den))
    if grid is None:
        return None
    q, r = divmod(grid.pack(num, cn, lon), grid.pack(den, cd, lod))
    if r:
        return None
    out = grid.unpack(q, [a - b for a, b in zip(lon, lod)], tops)
    if not out or (_peak(out) * peak * min(len(out), n_den)).bit_length() >= 8 * grid.width:
        return None
    return out


def dense_sqrt(frame, square, box):
    """The square root of a term dict of ``frame``, whose exponents are all
    even, by the packed route, certified and with a positive leading
    coefficient; None as for `dense_div`.  ``box`` is the root's Newton
    box, half the square's.

    The rule's work is the term pairs of the reduction, the square of the
    root's terms, which are taken as for `dense_div`: the slots of the
    root's box but no more than the square's terms.  The root r is the int
    square root of P's int, read back onto P's own lattice (the same
    strides, from P's lows halved), and is returned only when every digit
    lies in B_r, half P's box, max|r|^2 * #r < X/2, and r^2 is P's int.  As for `dense_div`, every
    term of r^2 then lies in B_r + B_r, P's box, every coefficient of it is
    below X/2, and r^2 == P as polynomials.  `isqrt` gives the root whose
    top slot is positive; the root is negated when its graded-lex leading
    coefficient is not."""
    count = len(square)
    # as in `dense_div`: the rule fails unless this holds
    if DENSE * count > min(count, prod(hi - lo + 1 for lo, hi in box.values())) ** 2:
        return None
    ((cs, lo, hi),), g = _lattice(frame, square)
    extents = [(h - l) // gv + 1 for l, h, gv in zip(lo, hi, g)]
    tops = [(e - 1) // 2 for e in extents]
    work = min(count, prod(t + 1 for t in tops)) ** 2
    grid = _route(frame, g, extents, work, _peak(square) * count)
    if grid is None:
        return None
    p = grid.pack(square, cs, lo)
    if p <= 0:
        return None
    r = isqrt(p)
    if r * r != p:
        return None
    out = grid.unpack(r, [e // 2 for e in lo], tops)
    if not out or (_peak(out) ** 2 * len(out)).bit_length() >= 8 * grid.width:
        return None
    if out[max(out)] < 0:
        out = {k: -c for k, c in out.items()}
    return out
