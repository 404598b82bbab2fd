"""Pure-Python term-arithmetic kernel.

The small set of operations that dominate every computation in the
package; the ring reaches them through `_kernel`.

Data contract:

* monomial key: tuple of ``(var, num, den)`` triples sorted by ``var``,
  where ``var`` is a one-letter string and ``num/den`` is a reduced
  rational exponent with ``num != 0`` and ``den >= 1``.  The empty tuple,
  `ONE`, is 1.
* polynomial: dict mapping monomial key -> nonzero int coefficient.  The
  empty dict is 0.

This module is the only one that reads either key layout, the triples or
the packed ints of a `Frame`.  Everywhere else a key is opaque: it is
stored, hashed, compared for equality and handed back to the kernel.
`mono_of` builds a key from ``(var, num, den)`` items, `mono_items` lists
them, `mono_split` takes one variable out, and `Frame.degree` reads the
degree of a packed key.

`poly_accum_term_mul` is the one loop that sums one term dict into
another over tuple keys.  `poly_add` (a copy of the larger operand plus the
smaller) and `poly_term_mul` (into an empty dict) are built on it, and the
ring calls it directly for subtraction and for the (a, z) -> t merge.

`Frame` is the one monomial order: it packs a monomial into one int whose
int order is graded-lex order and in which one int addition multiplies two
monomials.  Printing, `leading_term` and `mono_cmp` sort by its keys.
`packed_accum_term_mul` is the summing loop over packed keys: `poly_mul`
sums a product whose smaller operand has more than one term with it, in
one frame per product (a one-term operand goes through `poly_term_mul`),
the one leading-term reduction of exact division and square roots updates
its remainder with it, and
`qpnumbers.two_term_ladder` takes each step of the deformed numbers and of
the link ladder as one call per coefficient term, in one frame sized for
the walk's last index, and decodes only the entries its caller asks for.
"""

from math import gcd, lcm

ONE = ()


def mono_of(items):
    """The key of the monomial with the ``(var, num, den)`` items, one per
    variable, ``den >= 1``: exponents reduced, zero ones dropped, sorted by
    variable, so equal monomials get equal keys."""
    out = []
    for v, n, d in items:
        if n:
            g = gcd(n, d)
            out.append((v, n // g, d // g))
    out.sort()
    return tuple(out)


def mono_items(key):
    """The ``(var, num, den)`` items of a monomial key, in variable order,
    each exponent reduced and nonzero; `mono_of` inverts it."""
    return key


def mono_mul(m1, m2):
    """Product of two monomials (exponents add)."""
    if not m1:
        return m2
    if not m2:
        return m1
    out = []
    i = j = 0
    n1 = len(m1)
    n2 = len(m2)
    while i < n1 and j < n2:
        e1 = m1[i]
        e2 = m2[j]
        v1 = e1[0]
        v2 = e2[0]
        if v1 == v2:
            num = e1[1] * e2[2] + e2[1] * e1[2]
            if num:
                den = e1[2] * e2[2]
                g = gcd(num, den)
                out.append((v1, num // g, den // g))
            i += 1
            j += 1
        elif v1 < v2:
            out.append(e1)
            i += 1
        else:
            out.append(e2)
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    return tuple(out)


def mono_pow(m, num, den):
    """Monomial raised to the rational power num/den (den > 0)."""
    if num == 0:
        return ONE
    out = []
    for v, a, b in m:
        nn = a * num
        dd = b * den
        g = gcd(nn, dd)
        out.append((v, nn // g, dd // g))
    return tuple(out)


def mono_split(m, var):
    """``(num, den, rest)``: the exponent num/den of ``var`` in the monomial
    ``m`` (0/1 when absent) and ``m`` without ``var``."""
    for i, (v, n, d) in enumerate(m):
        if v == var:
            return n, d, m[:i] + m[i + 1 :]
    return 0, 1, m


def mono_deg(m):
    """Total degree as a (num, den) pair with den > 0, unreduced:
    `Monomial.degree` makes a `Fraction` of it."""
    num = 0
    den = 1
    for _, a, b in m:
        num = num * b + a * den
        den *= b
    return num, den


def exp_scale(*polys):
    """Least common denominator of the exponents of every monomial in the
    given collections of monomials (1 when there are none)."""
    return lcm(*{d for t in polys for m in t for _, _, d in m})


def exponent_bounds(terms, scale):
    """Least and greatest exponent of each variable over the monomials
    ``terms``, as ``var -> (lo, hi)`` in units of 1/scale; a monomial without
    the variable has exponent 0 in it."""
    seen = {}
    for m in terms:
        for v, n, d in m:
            seen.setdefault(v, []).append(n * scale // d)
    for es in seen.values():
        if len(es) < len(terms):
            es.append(0)
    return {v: (min(es), max(es)) for v, es in seen.items()}


class Frame:
    """Packed int keys for monomials whose exponents are multiples of
    1/scale and lie, per variable v, in ``spans[v] = (lo, hi)`` (units of
    1/scale).

    The key of a monomial is the sum, over its variables v, of e_v times
    ``weight[v]``: one bit field per variable, the alphabetically first in
    the highest, and the signed total degree above them all.  Adding two
    keys multiplies their monomials, and ascending int order is graded-lex
    order.  There is one kind of key: `unpack`, `outside` and `degree` add
    a private offset, ``-lo`` per field, so that each field holds ``e - lo``
    and reads back exactly while e lies in its span.

    A product, `poly_mul`, spans [lo1 + lo2, hi1 + hi2] for exponents of v
    in [lo1, hi1] and [lo2, hi2] in its operands, since it decodes only
    product terms; an operand's key may lie outside, as only sums of keys
    are read.

    The one leading-term reduction, `laurent._reduce`, runs in
    a frame whose spans hold every monomial it compares or decodes, and
    it reads the `degree` of a candidate only once the candidate has
    passed its Newton box, which lies inside the spans.  Writing
    [n_lo, n_hi] and [d_lo, d_hi] for the exponents of v in a numerator
    and a divisor, ``exact_div`` spans
    [min(n_lo, d_lo, n_lo - d_hi), max(n_hi, d_hi, n_hi - d_lo)]: a
    quotient term enters the remainder only after passing the Newton box
    [n_lo - d_lo, n_hi - d_hi], so remainder terms stay in the numerator's
    box, and a candidate is a remainder term over the divisor's leading
    term.  For ``exact_sqrt`` of p with exponents [lo, hi], root terms lie
    in [lo/2, hi/2], remainder terms in [lo, hi], and candidates, a
    remainder term over the root's leading term, in
    [min(lo, lo - hi/2), max(hi, hi - lo/2)].  The degree is a sum of such
    exponents and needs no bound: its field is the top one.
    """

    __slots__ = ("scale", "fields", "shift", "weight", "_offset")

    def __init__(self, scale, spans):
        self.scale = scale
        # (var, shift, mask, lo), the highest field last until reversed
        fields = []
        shift = 0
        for v in sorted(spans, reverse=True):
            lo, hi = spans[v]
            width = (hi - lo).bit_length()
            fields.append((v, shift, (1 << width) - 1, lo))
            shift += width
        fields.reverse()
        self.fields = fields
        self.shift = shift
        self.weight = {v: (1 << s) + (1 << shift) for v, s, _, _ in fields}
        self._offset = sum(-lo << s for _, s, _, lo in fields)

    @classmethod
    def of(cls, terms):
        """The least frame that orders the monomials ``terms``."""
        scale = exp_scale(terms)
        return cls(scale, exponent_bounds(terms, scale))

    def pack(self, m):
        """Key of the monomial ``m``."""
        scale = self.scale
        weight = self.weight
        k = 0
        for v, n, d in m:
            k += n * scale // d * weight[v]
        return k

    def degree(self, key):
        """Total degree of a key, in units of 1/scale."""
        return (key + self._offset) >> self.shift

    def unpack(self, key):
        """Monomial of a key."""
        key += self._offset
        scale = self.scale
        out = []
        for v, s, mask, lo in self.fields:
            e = (key >> s & mask) + lo
            if e:
                g = gcd(e, scale)
                out.append((v, e // g, scale // g))
        return tuple(out)

    def outside(self, key, box):
        """``(var, e, lo, hi)`` for the alphabetically first variable whose
        exponent e in a key lies outside ``box[var] = (lo, hi)``, else
        None; ``box`` holds every variable of the frame."""
        key += self._offset
        for v, s, mask, lo in self.fields:
            e = (key >> s & mask) + lo
            b_lo, b_hi = box[v]
            if e < b_lo or e > b_hi:
                return v, e, b_lo, b_hi
        return None


def mono_cmp(m1, m2):
    """Graded-lex comparison: total degree first, ties broken at the
    alphabetically first differing variable, larger exponent first.
    Returns -1, 0 or 1."""
    pack = Frame.of((m1, m2)).pack
    k1, k2 = pack(m1), pack(m2)
    return (k1 > k2) - (k1 < k2)


def poly_add(t1, t2):
    """Coefficientwise sum of two term dicts."""
    if len(t1) < len(t2):
        t1, t2 = t2, t1
    return poly_accum_term_mul(dict(t1), t2, ONE, 1)


def poly_neg(t):
    return {m: -c for m, c in t.items()}


def poly_mul(t1, t2):
    """Distributive product of two term dicts: the larger times each term
    of the smaller, summed into one dict.

    A one-term smaller operand multiplies through `poly_term_mul`.  Any
    other product runs in one `Frame`: the larger operand is packed once,
    each term of the smaller is added through `packed_accum_term_mul`, and
    each product key is unpacked once.  The frame's span of a variable v is
    [lo1 + lo2, hi1 + hi2], where [lo, hi] are v's exponent bounds in each
    operand, (0, 0) in one without v.  This is exact: packing is linear, so
    ``pack(m1) + pack(m2)`` is the key of m1*m2 even when an operand's key
    lies outside the spans, and every product exponent e1 + e2 lies in its
    span, so distinct products get distinct keys and each decodes exactly.
    Cancelled sums are dropped by the summing loop."""
    if len(t1) < len(t2):
        t1, t2 = t2, t1
    if len(t2) == 1:
        [(m2, c2)] = t2.items()
        return poly_term_mul(t1, m2, c2)
    scale = exp_scale(t1, t2)
    b1 = exponent_bounds(t1, scale)
    b2 = exponent_bounds(t2, scale)
    spans = {}
    for v in b1.keys() | b2.keys():
        lo1, hi1 = b1.get(v, (0, 0))
        lo2, hi2 = b2.get(v, (0, 0))
        spans[v] = (lo1 + lo2, hi1 + hi2)
    frame = Frame(scale, spans)
    pack = frame.pack
    big = {pack(m): c for m, c in t1.items()}
    out = {}
    for m2, c2 in t2.items():
        packed_accum_term_mul(out, big, pack(m2), c2)
    unpack = frame.unpack
    return {unpack(k): c for k, c in out.items()}


def poly_term_mul(t, mono, coeff):
    """Multiply a term dict by the single term coeff * mono."""
    return poly_accum_term_mul({}, t, mono, coeff)


def poly_accum_term_mul(out, t, mono, coeff):
    """In-place out += t * (coeff * mono); returns out."""
    for m, c in t.items():
        key = mono_mul(m, mono)
        s = out.get(key, 0) + c * coeff
        if s:
            out[key] = s
        elif key in out:
            del out[key]
    return out


def packed_accum_term_mul(out, t, key, coeff):
    """In-place out += t * (coeff * key) on packed int keys, where adding
    two keys multiplies their monomials; returns out."""
    for k, c in t.items():
        k += key
        s = out.get(k, 0) + c * coeff
        if s:
            out[k] = s
        elif k in out:
            del out[k]
    return out
