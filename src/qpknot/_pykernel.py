"""Pure-Python term-arithmetic kernel.

The small set of operations that dominate every computation in the
package; the ring reaches them through `_kernel`.

Data contract:

* monomial: tuple of ``(var, num, den)`` triples sorted by ``var``, where
  ``var`` is a one-letter string and ``num/den`` is a reduced rational
  exponent with ``num != 0`` and ``den >= 1``.  The empty tuple is 1.
* polynomial: dict mapping monomial -> nonzero int coefficient.  The empty
  dict is 0.
"""

from math import gcd, lcm


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
                g = gcd(num if num > 0 else -num, den)
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
    if num == 0 or not m:
        return ()
    out = []
    for v, a, b in m:
        nn = a * num
        dd = b * den
        g = gcd(nn if nn > 0 else -nn, dd)
        out.append((v, nn // g, dd // g))
    return tuple(out)


def mono_deg(m):
    """Total degree as a (num, den) pair with den > 0."""
    num = 0
    den = 1
    for _, a, b in m:
        num = num * b + a * den
        den *= b
    if num == 0:
        return (0, 1)
    g = gcd(num if num > 0 else -num, den)
    return (num // g, den // g)


def exp_scale(*polys):
    """Least common denominator of the exponents of every monomial in the
    given collections of monomials (1 when there are none)."""
    return lcm(*{d for t in polys for m in t for _, _, d in m})


class Order(dict):
    """Sort keys of monomials, computed on first lookup and kept for the
    life of the table.  Ascending key order is descending graded-lex order.

    Every exponent is read as the int ``e = num * scale // den``, so
    ``scale`` must be a multiple of every denominator looked up.  The key is
    ``-(sum of e)``, then for each variable ``ord(v) - 123, -e`` when
    ``e > 0`` and ``123 - ord(v), -e`` otherwise, then a closing ``0`` that
    stands for every variable the monomial lacks.  The variable codes lie in
    -26..-1 and 1..26, on either side of that 0, so at the first variable
    where two monomials differ a positive exponent comes before a missing
    one, and a missing one before a negative one.
    """

    __slots__ = ("scale",)

    def __init__(self, scale):
        self.scale = scale

    def __missing__(self, m):
        scale = self.scale
        key = [0]
        deg = 0
        for v, n, d in m:
            e = n * scale // d
            deg += e
            key += (ord(v) - 123, -e) if e > 0 else (123 - ord(v), -e)
        key[0] = -deg
        key.append(0)
        key = self[m] = tuple(key)
        return key


def mono_cmp(m1, m2):
    """Graded-lex comparison: total degree first, ties broken at the
    alphabetically first differing variable, larger exponent first.
    Returns -1, 0 or 1."""
    order = Order(exp_scale((m1, m2)))
    k1 = order[m1]
    k2 = order[m2]
    return (k1 < k2) - (k1 > k2)


def poly_add(t1, t2):
    """Coefficientwise sum of two term dicts."""
    if not t2:
        return dict(t1)
    if not t1:
        return dict(t2)
    if len(t1) < len(t2):
        t1, t2 = t2, t1
    out = dict(t1)
    for m, c in t2.items():
        s = out.get(m, 0) + c
        if s:
            out[m] = s
        elif m in out:
            del out[m]
    return out


def poly_neg(t):
    return {m: -c for m, c in t.items()}


def poly_mul(t1, t2):
    """Distributive product of two term dicts."""
    if not t1 or not t2:
        return {}
    if len(t1) < len(t2):
        t1, t2 = t2, t1
    out = {}
    for m2, c2 in t2.items():
        if m2:
            for m1, c1 in t1.items():
                m = mono_mul(m1, m2)
                s = out.get(m, 0) + c1 * c2
                if s:
                    out[m] = s
                elif m in out:
                    del out[m]
        else:
            for m1, c1 in t1.items():
                s = out.get(m1, 0) + c1 * c2
                if s:
                    out[m1] = s
                elif m1 in out:
                    del out[m1]
    return out


def poly_term_mul(t, mono, coeff):
    """Multiply a term dict by the single term coeff * mono."""
    return poly_accum_term_mul({}, t, mono, coeff)


def poly_accum_term_mul(out, t, mono, coeff):
    """In-place out += t * (coeff * mono); returns out."""
    if not t or coeff == 0:
        return out
    if mono:
        for m, c in t.items():
            key = mono_mul(m, mono)
            s = out.get(key, 0) + c * coeff
            if s:
                out[key] = s
            elif key in out:
                del out[key]
    else:
        for m, c in t.items():
            s = out.get(m, 0) + c * coeff
            if s:
                out[m] = s
            elif m in out:
                del out[m]
    return out
