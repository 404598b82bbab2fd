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
v^(1/scale), and its methods are the way into its fields.

`poly_accum_term_mul` is the one summing loop: out += t * (coeff * key).
`poly_add`, `poly_term_mul` and `poly_mul` are built on it, and the ring
calls it itself for subtraction, for each step of the leading-term
reduction of exact division and square roots, for each step of the
two-term ladder and for the (a, z) -> t merge.  Monomials multiply, raise
to powers and compare through `mono_mul`, `mono_pow` and `mono_cmp` only
in `Monomial`'s own arithmetic.
"""

from functools import lru_cache
from math import gcd, lcm

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

    __slots__ = ("names", "scale", "width", "weight", "_at", "_bias", "_mask", "_half", "_shift")

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
        return hash((self.names, self.scale, self.width))

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

    def split(self, terms, var):
        """``(e, rest, coeff)`` for each term: e the exponent of ``var`` in
        units of 1/scale (0 when the frame has no such variable), rest the
        key without it."""
        s = self._at.get(var)
        if s is None:
            return [(0, k, c) for k, c in terms.items()]
        unit, bias, mask, half = self.weight[var], self._bias, self._mask, self._half
        out = []
        for k, c in terms.items():
            e = ((k + bias) >> s & mask) - half
            out.append((e, k - e * unit, c))
        return out

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
        key += self._bias
        mask, half = self._mask, self._half
        for v, s in self._at.items():
            e = (key >> s & mask) - half
            b_lo, b_hi = box[v]
            if e < b_lo or e > b_hi:
                return v, e, b_lo, b_hi
        return None

    def bounds(self, keys):
        """Least and greatest exponent of each variable of the frame over
        the keys (some), as ``var -> (lo, hi)`` in units of 1/scale."""
        biased = [k + self._bias for k in keys]
        mask, half = self._mask, self._half
        out = {}
        for v, s in self._at.items():
            es = [k >> s & mask for k in biased]
            out[v] = (min(es) - half, max(es) - half)
        return out

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
        return self.map(terms, self._units(target))

    def rekey(self, key, target):
        """`repack` for one key: the key itself when ``target`` is this
        frame."""
        return key if self == target else self.image(key, self._units(target))

    def _units(self, target):
        """The key in ``target`` of v^(1/scale), for each variable v."""
        ratio = target.scale // self.scale
        return {v: ratio * target.weight[v] for v in self.names}

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
    return self


def poly_add(t1, t2):
    """Coefficientwise sum of two term dicts of one frame."""
    if len(t1) < len(t2):
        t1, t2 = t2, t1
    return poly_accum_term_mul(dict(t1), t2, 0, 1)


def poly_neg(t):
    return {k: -c for k, c in t.items()}


def poly_mul(t1, t2):
    """Distributive product of two term dicts of one frame: the larger
    times each term of the smaller, summed into one dict.  The frame must
    hold the product's exponents; cancelled sums are dropped by the
    summing loop."""
    if len(t1) < len(t2):
        t1, t2 = t2, t1
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
