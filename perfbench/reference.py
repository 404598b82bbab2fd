"""A frozen yardstick for the speed of the core a pass runs on.

The host's cores are shared: the same pass can take twice as long from
one minute to the next.  Each pass first times this fixed computation,
which is a stdlib-only copy of the program's hot path (sparse polynomials
as dicts of rational-exponent monomials, multiplied term by term along
the two-variable knot recurrence), so it slows down the way the program
does.  It runs before the program is imported and never changes with it.
"""

from math import gcd
from time import perf_counter

# a^2*t + a^2*t^-1 and -a^4: the knot-recurrence coefficients.
_K1 = {(("a", 2, 1), ("t", 1, 1)): 1, (("a", 2, 1), ("t", -1, 1)): 1}
_K2 = {(("a", 4, 1),): -1}
_STEPS = 95


def _mono_mul(m1, m2):
    out = []
    i = j = 0
    while i < len(m1) and j < len(m2):
        v1, n1, d1 = m1[i]
        v2, n2, d2 = m2[j]
        if v1 == v2:
            num = n1 * d2 + n2 * d1
            if num:
                den = d1 * d2
                g = gcd(abs(num), den)
                out.append((v1, num // g, den // g))
            i += 1
            j += 1
        elif v1 < v2:
            out.append(m1[i])
            i += 1
        else:
            out.append(m2[j])
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    return tuple(out)


def _poly_mul(p1, p2):
    out = {}
    for m2, c2 in p2.items():
        for m1, c1 in p1.items():
            m = _mono_mul(m1, m2)
            s = out.get(m, 0) + c1 * c2
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def _poly_add(p1, p2):
    out = dict(p1)
    for m, c in p2.items():
        s = out.get(m, 0) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def run():
    """Seconds taken by the yardstick computation."""
    t0 = perf_counter()
    prev, cur = {(): 1}, _poly_add(_K1, _K2)
    for _ in range(_STEPS):
        prev, cur = cur, _poly_add(_poly_mul(_K1, cur), _poly_mul(_K2, prev))
    sorted(cur.items())
    return perf_counter() - t0
