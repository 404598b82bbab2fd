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

from math import gcd


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


def mono_cmp(m1, m2):
    """Graded-lex comparison: total degree first, ties broken at the
    alphabetically first differing variable, larger exponent first.
    Returns -1, 0 or 1."""
    if m1 == m2:
        return 0
    n1, d1 = mono_deg(m1)
    n2, d2 = mono_deg(m2)
    lhs = n1 * d2
    rhs = n2 * d1
    if lhs != rhs:
        return 1 if lhs > rhs else -1
    i = j = 0
    len1 = len(m1)
    len2 = len(m2)
    while i < len1 or j < len2:
        if j >= len2 or (i < len1 and m1[i][0] < m2[j][0]):
            return 1 if m1[i][1] > 0 else -1
        if i >= len1 or m2[j][0] < m1[i][0]:
            return -1 if m2[j][1] > 0 else 1
        e1 = m1[i]
        e2 = m2[j]
        lhs = e1[1] * e2[2]
        rhs = e2[1] * e1[2]
        if lhs != rhs:
            return 1 if lhs > rhs else -1
        i += 1
        j += 1
    return 0


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
    if not t or coeff == 0:
        return {}
    if not mono:
        return {m: c * coeff for m, c in t.items()}
    return {mono_mul(m, mono): c * coeff for m, c in t.items()}


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
