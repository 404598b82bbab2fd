"""Seeded input generators for the benchmark workloads (stdlib only).

Each workload runs as a sequence of passes; every pass is one fresh
interpreter (see worker.py).  The generators here run in the parent
process and hand the worker only the generated inputs, so the program
under test never sees the seed.

Indices follow a bounded Pareto law, sampled at the midpoints of equal
strata: each batch holds the same multiset of small and large indices
whatever the seed, which keeps pass cost steady across seeds, while the
seed decides which family, invariant and format each index goes with
(and so which requests repeat).
"""

import random
from fractions import Fraction

FAMILIES = ("alexander", "jones", "homfly", "h1", "h2", "bmq")
INVARIANTS = ("alexander", "jones", "homfly")
FORMATS = ("text", "json", "csv", "latex")

# verify-suite: the index range of `qpknot verify --n-max N`.  At 60 the
# (a, z) conversions and the kernel still take most of the time, as at the
# documented n-max 200, while a pass stays near one second.
VERIFY_N_MAX = 60

# request-mix: requests per pass (one service lifetime) by kind.  About 4%
# are expected failures: a non-exact division exits 1, a syntax error 2.
_MIX = (
    ("qp-num", 264),
    ("series", 144),
    ("table", 72),
    ("eval", 96),
    ("eval-nonexact", 12),
    ("eval-syntax", 12),
)

# large-index: base sizes of the heavy calls.  Pass i shifts every index by
# the i-th term of 0, +1, -1, +2, -2, ... so no input repeats within a run
# and the median pass costs what the base sizes cost, however many passes
# fit in the measured time.
LARGE_BASE = {
    "knot_m": 150,  # knot_series(HOMFLY, m)
    "link_n": 170,  # link_series(HOMFLY, n)
    "az_m": 140,  # to_az_form / from_az_form of knot entry m
    "div_a": 90,  # exact_div(A * B, B) with A, B knot entries a, b
    "div_b": 75,
    "sqrt_m": 80,  # exact_sqrt(E * E) for knot entry m
    "rec_n": 300,  # qp_number_recurrence(h2, n)
}


def _stratified(rng, k):
    """The midpoints of k equal strata of [0, 1), shuffled."""
    us = [(i + 0.5) / k for i in range(k)]
    rng.shuffle(us)
    return us


def _pareto_int(u, lo, hi, alpha):
    """Inverse CDF of the Pareto(alpha) law bounded to [lo, hi]."""
    x = lo / (1.0 - u * (1.0 - (lo / hi) ** alpha)) ** (1.0 / alpha)
    return max(lo, min(hi, int(x)))


def _cycled(rng, values, k):
    out = [values[i % len(values)] for i in range(k)]
    rng.shuffle(out)
    return out


def _monomial(rng):
    """A random monomial over a, t, q, p as (exponents, text); t may carry a
    half-integer exponent."""
    exps = {}
    for v in sorted(rng.sample("atqp", rng.randint(1, 2))):
        if v == "t" and rng.random() < 0.3:
            exps[v] = (rng.choice((1, 3, -1)), 2)
        else:
            exps[v] = (rng.choice((1, 1, 2, 3, -1, -2)), 1)
    parts = []
    for v, (num, den) in exps.items():
        if den != 1:
            parts.append(f"{v}^({num}/{den})")
        elif num == 1:
            parts.append(v)
        else:
            parts.append(f"{v}^{num}")
    return exps, "*".join(parts)


def _degree(exps):
    return sum(Fraction(num, den) for num, den in exps.values())


def _monomial_pair(rng, degrees_differ=False):
    """Two monomials of different value, so u - v is never zero.

    A non-exact division by u - v fails fast when u and v differ in total
    degree; when they are equal the reduction runs to its step cap (about
    a quarter second), so those requests would make pass cost depend on
    how many of them a batch happens to draw.  Expected failures therefore
    use pairs of different degree."""
    while True:
        (eu, u), (ev, v) = _monomial(rng), _monomial(rng)
        if eu != ev and (not degrees_differ or _degree(eu) != _degree(ev)):
            return u, v


def request_mix_pass(seed, index):
    """One batch of CLI requests.  Each is {"argv": [...], "expect": code}."""
    rng = random.Random(seed * 1_000_003 + index)
    reqs = []
    for kind, count in _MIX:
        us = _stratified(rng, count)
        fmts = _cycled(rng, FORMATS, count)
        if kind == "qp-num":
            fams = _cycled(rng, FAMILIES, count)
            for u, fam, fmt in zip(us, fams, fmts):
                n = _pareto_int(u, 1, 400, 0.8)
                reqs.append({"argv": ["qp-num", "--family", fam, "--n", str(n), "--format", fmt], "expect": 0})
        elif kind == "series":
            invs = _cycled(rng, INVARIANTS, count)
            for i, (u, inv, fmt) in enumerate(zip(us, invs, fmts)):
                if i % 2:
                    argv = ["series", "--invariant", inv, "--knots", "--max", str(_pareto_int(u, 1, 30, 1.0))]
                else:
                    argv = ["series", "--invariant", inv, "--links", "--max", str(_pareto_int(u, 2, 50, 1.0))]
                reqs.append({"argv": argv + ["--format", fmt], "expect": 0})
        elif kind == "table":
            # Jones entries are not symmetric in t, so they have no (a, z) form.
            invs = _cycled(rng, ("alexander", "homfly"), count)
            for u, inv, fmt in zip(us, invs, fmts):
                m = _pareto_int(u, 1, 30, 1.0)
                reqs.append({"argv": ["table", "--invariant", inv, "--max", str(m), "--az", "--format", fmt], "expect": 0})
        else:
            for u in us:
                a, b = _monomial_pair(rng, degrees_differ=kind == "eval-nonexact")
                n = _pareto_int(u, 2, 60, 1.0)
                if kind == "eval-nonexact":
                    expr, expect = f"(({a})^{n} + ({b})^{n})/(({a}) - ({b}))", 1
                elif kind == "eval-syntax":
                    expr, expect = f"(({a})^{n} - ({b})^{n})/(({a}) - ({b})", 2
                elif rng.random() < 0.5:
                    expr, expect = f"(({a})^{n} - ({b})^{n})/(({a}) - ({b}))", 0
                else:
                    k = rng.randint(1, 5)
                    expr, expect = f"(({a})^{n} - ({b})^{n})*(({a})^{k} + ({b})^{k})/(({a}) - ({b}))", 0
                reqs.append({"argv": ["eval", expr], "expect": expect})
    rng.shuffle(reqs)
    return reqs


def zigzag(index):
    """0, 1, -1, 2, -2, ... for index 0, 1, 2, 3, 4, ..."""
    return (index + 1) // 2 if index % 2 else -(index // 2)


def large_index_pass(seed, index):
    """The heavy calls of one pass, in call order.

    Series come first because the later calls take their entries as
    inputs; the seed fixes the zigzag direction and the order of the rest.
    """
    rng = random.Random(seed)
    d = zigzag(index) * (1 if rng.random() < 0.5 else -1)
    b = {k: v + d for k, v in LARGE_BASE.items()}
    tail = [
        {"op": "to_az_form", "m": b["az_m"]},
        {"op": "from_az_form", "m": b["az_m"]},
        {"op": "mul", "m": b["div_a"], "m2": b["div_b"]},
        {"op": "exact_div", "m": b["div_a"], "m2": b["div_b"]},
        {"op": "mul", "m": b["sqrt_m"], "m2": b["sqrt_m"]},
        {"op": "exact_sqrt", "m": b["sqrt_m"]},
        {"op": "qp_number_recurrence", "family": "h2", "n": b["rec_n"]},
    ]
    # from_az_form consumes to_az_form's result and each root or quotient
    # consumes the product before it, so shuffle whole groups only.
    groups = [tail[0:2], tail[2:4], tail[4:6], tail[6:7]]
    rng2 = random.Random(seed * 7919 + index)
    rng2.shuffle(groups)
    ops = [
        {"op": "knot_series", "kind": "homfly", "m": b["knot_m"]},
        {"op": "link_series", "kind": "homfly", "n": b["link_n"]},
    ]
    for g in groups:
        ops.extend(g)
    return ops


def verify_suite_pass(seed, index):
    """`qpknot verify --n-max N`; the verdict needs no seeded input."""
    return [{"argv": ["verify", "--n-max", str(VERIFY_N_MAX)], "expect": 0}]


PASS_INPUTS = {
    "verify-suite": verify_suite_pass,
    "request-mix": request_mix_pass,
    "large-index": large_index_pass,
}
