"""Independent correctness oracle (stdlib only; never imports qpknot).

Every answer is checked by evaluating it exactly at the rational point
t = 2^6, a = 3^6, q = 5^6, p = 7^6 and comparing with a value computed
here from first principles: deformed numbers as (u^n - v^n)/(u - v),
series entries from their two-term skein recurrences, expressions by
direct evaluation.  Sixth powers keep t^(1/2), t^(1/3) and a^(2/3)
rational, and z = t^(1/2) - t^(-1/2) = 63/8, so every monomial evaluates
to 2^w * 3^x * 5^y * 7^z with integer exponents.

Each ``check_*`` function returns None when the answer is right and a
one-line reason otherwise.
"""

import csv
import functools
import io
import json
import re
from fractions import Fraction

T = Fraction(2**6)
A = Fraction(3**6)
Q = Fraction(5**6)
P = Fraction(7**6)
Z = Fraction(63, 8)  # t^(1/2) - t^(-1/2)
_HALF_T = Fraction(2**3)  # t^(1/2)

_PRIMES = (2, 3, 5, 7)
_PRIME_INDEX = {"t": 0, "a": 1, "q": 2, "p": 3}
_Z_VECTOR = (-3, 2, 0, 1)  # 63/8 = 2^-3 * 3^2 * 7

# Defining pairs (u, v) of the deformed-number families, at the point.
FAMILY_UV = {
    "alexander": (T, 1 / T),
    "jones": (T**3, T),
    "homfly": (A**2 * T, A**2 / T),
    "h1": (Q, 1 / P),
    "h2": (Q**3, P),
    "bmq": (Q, 1 / Q),
}

# Link-recurrence coefficients (l1, l2) of each invariant, at the point.
# The two-variable link series lives in (a, z), where l1 = a*z.
LINK_COEFFS = {
    "alexander": (_HALF_T - 1 / _HALF_T, Fraction(1)),
    "jones": (_HALF_T**3 - _HALF_T, T**2),
    "homfly": (A * Z, A**2),
}

_FAMILY_LATEX = {
    "alexander": "[{n}]^{{A}}",
    "jones": "[{n}]^{{V}}",
    "homfly": "[{n}]^{{H}}",
    "h1": "[{n}]^{{H_1}}",
    "h2": "[{n}]^{{H_2}}",
    "bmq": "[{n}]_{{q}}",
}

_KNOT_NAMES = {0: "0_1", 1: "3_1", 2: "5_1", 3: "7_1", 4: "9_1"}

VERIFY_CHECKS = (
    "three-route",
    "bm-coincidence",
    "eq8-coeffs",
    "trefoil",
    "knot-vs-link",
    "homfly-specialize",
    "roundtrip-sect7",
    "eq33-multiplier",
    "eq34-multiplier",
    "h1-equivalence",
    "h2-equivalence",
    "az-roundtrip",
)


class OracleError(ValueError):
    """An output that does not parse or does not evaluate at the point."""


# -- exact values ------------------------------------------------------------


def qp_value(family, n):
    u, v = FAMILY_UV[family]
    return (u**n - v**n) / (u - v)


@functools.lru_cache(maxsize=None)
def _knot_values(kind, m_max):
    l1, l2 = LINK_COEFFS[kind]
    k1 = l1 * l1 + 2 * l2
    k2 = -(l2 * l2)
    vals = [Fraction(1)]
    if m_max >= 1:
        vals.append(k1 + k2)
    for _ in range(2, m_max + 1):
        vals.append(k1 * vals[-1] + k2 * vals[-2])
    return tuple(vals)


def knot_value(kind, m):
    """Value of the T(2m+1,2) entry, from the knot recurrence."""
    return _knot_values(kind, _bucket(m))[m]


@functools.lru_cache(maxsize=None)
def _link_values(kind, n_max):
    l1, l2 = LINK_COEFFS[kind]
    vals = [(1 - l2) / l1, Fraction(1)]
    for _ in range(2, n_max + 1):
        vals.append(l1 * vals[-1] + l2 * vals[-2])
    return tuple(vals)


def link_value(kind, n):
    """Value of the L(n,2) entry, from the link recurrence."""
    return _link_values(kind, _bucket(n))[n]


def _bucket(n):
    # Share one cached ladder between nearby indices.
    return max(64, 1 << (n.bit_length()))


# -- evaluation of parsed terms ----------------------------------------------


@functools.lru_cache(maxsize=4096)
def _prime_power(i, k):
    return _PRIMES[i] ** k


def value(terms):
    """Exact value at the point of a list of (coeff, {var: (num, den)})."""
    rows = []
    for coeff, exps in terms:
        x = [0, 0, 0, 0]
        for v, (num, den) in exps.items():
            if v == "z":
                if den != 1:
                    raise OracleError(f"fractional z exponent {num}/{den}")
                for i in range(4):
                    x[i] += _Z_VECTOR[i] * num
            elif v in _PRIME_INDEX:
                if (6 * num) % den:
                    raise OracleError(f"exponent {num}/{den} of {v} is not a multiple of 1/6")
                x[_PRIME_INDEX[v]] += 6 * num // den
            else:
                raise OracleError(f"unexpected variable {v!r}")
        rows.append((coeff, x))
    if not rows:
        return Fraction(0)
    mins = [min(x[i] for _, x in rows) for i in range(4)]
    total = 0
    for coeff, x in rows:
        term = coeff
        for i in range(4):
            if x[i] != mins[i]:
                term *= _prime_power(i, x[i] - mins[i])
        total += term
    num, den = total, 1
    for i in range(4):
        if mins[i] >= 0:
            num *= _prime_power(i, mins[i])
        else:
            den *= _prime_power(i, -mins[i])
    return Fraction(num, den)


def variables(terms):
    return {v for _, exps in terms for v in exps}


# -- output parsers ------------------------------------------------------------

_SPLIT = re.compile(r" ([+-]) ")
_TEXT_FACTOR = re.compile(r"([a-z])(?:\^(-?\d+|\((-?\d+)/(\d+)\)))?")
_LATEX_FACTOR = re.compile(r"([a-z])(?:\^\{(-?\d+)(?:/(\d+))?\})?")


def _chunks(src):
    src = src.strip()
    if not src:
        raise OracleError("empty polynomial")
    parts = _SPLIT.split(src)
    first = parts[0]
    sign = 1
    if first.startswith("-"):
        sign, first = -1, first[1:]
    yield sign, first
    for i in range(1, len(parts), 2):
        yield (1 if parts[i] == "+" else -1), parts[i + 1]


def _term(sign, mag_text, factors, match_factor):
    coeff = 1
    if mag_text is not None:
        if not mag_text.isdigit() or int(mag_text) < 1:
            raise OracleError(f"bad coefficient {mag_text!r}")
        coeff = int(mag_text)
    exps = {}
    for f in factors:
        m = match_factor(f)
        if m is None:
            raise OracleError(f"bad factor {f!r}")
        v, num, den = m
        if v in exps or num == 0 or den < 1:
            raise OracleError(f"non-canonical factor {f!r}")
        exps[v] = (num, den)
    return sign * coeff, exps


def _match_text_factor(f):
    m = _TEXT_FACTOR.fullmatch(f)
    if m is None:
        return None
    v, plain, num, den = m.groups()
    if plain is None:
        return v, 1, 1
    if num is not None:
        return v, int(num), int(den)
    return v, int(plain), 1


def _match_latex_factor(f):
    m = _LATEX_FACTOR.fullmatch(f)
    if m is None:
        return None
    v, num, den = m.groups()
    if num is None:
        return v, 1, 1
    return v, int(num), int(den or 1)


def parse_text_poly(src):
    """Canonical text form, e.g. ``-a^4 + 2*a^2*t^(1/2) - t^-1``."""
    if src.strip() == "0":
        return []
    terms = []
    for sign, body in _chunks(src):
        factors = body.split("*")
        mag = factors.pop(0) if factors[0][:1].isdigit() else None
        terms.append(_term(sign, mag, factors, _match_text_factor))
    return terms


def parse_latex_poly(src):
    """LaTeX form, e.g. ``-a^{4} + 2 a^{2} t^{1/2} - t^{-1}``."""
    if src.strip() == "0":
        return []
    terms = []
    for sign, body in _chunks(src):
        factors = body.split(" ")
        mag = factors.pop(0) if factors[0][:1].isdigit() else None
        terms.append(_term(sign, mag, factors, _match_latex_factor))
    return terms


def parse_json_poly(obj):
    terms = []
    for entry in obj["terms"]:
        exps = {}
        for v, frac in entry["monomial"].items():
            num, _, den = frac.partition("/")
            exps[v] = (int(num), int(den or 1))
        terms.append((int(entry["coeff"]), exps))
    return terms


def _parse_rows(fmt, out, expect_kind, expect_indexing):
    """Series-shaped output as a list of (n, terms)."""
    rows = []
    if fmt == "text":
        for line in out.splitlines():
            m = re.fullmatch(r"P\((\d+),2\) = (.+)", line)
            if m is None:
                raise OracleError(f"bad series line {line[:60]!r}")
            rows.append((int(m.group(1)), parse_text_poly(m.group(2))))
    elif fmt == "latex":
        for line in out.splitlines():
            m = re.fullmatch(r"\$P_\{(\d+),2\} = (.+)\$", line)
            if m is None:
                raise OracleError(f"bad latex line {line[:60]!r}")
            rows.append((int(m.group(1)), parse_latex_poly(m.group(2))))
    elif fmt == "csv":
        reader = csv.reader(io.StringIO(out))
        if next(reader) != ["n", "polynomial"]:
            raise OracleError("bad csv header")
        for row in reader:
            rows.append((int(row[0]), parse_text_poly(row[1])))
    elif fmt == "json":
        obj = json.loads(out)
        if obj["kind"] != expect_kind or obj["indexing"] != expect_indexing:
            raise OracleError(f"json header {obj['kind']}/{obj['indexing']}")
        for e in obj["entries"]:
            rows.append((int(e["n"]), parse_json_poly(e["poly"])))
    else:
        raise OracleError(f"unknown format {fmt}")
    return rows


def _table_text_rows(out):
    rows = []
    for line in out.splitlines():
        fields = line.split("\t")
        if len(fields) != 4:
            raise OracleError(f"bad table line {line[:60]!r}")
        m = int(fields[0].removeprefix("m="))
        if fields[0] != f"m={m}" or fields[1] != f"T({2 * m + 1},2)":
            raise OracleError(f"bad table labels {line[:60]!r}")
        if fields[2] != _KNOT_NAMES.get(m, "-"):
            raise OracleError(f"bad knot name {fields[2]!r} for m={m}")
        rows.append((2 * m + 1, parse_text_poly(fields[3])))
    return rows


# -- expression evaluation -------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|([a-z])|([-+*/^()]))")
_VAR_VALUE = {"t": T, "a": A, "q": Q, "p": P}


def _tokens(src):
    pos = 0
    out = []
    src = src.rstrip()
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if m is None:
            raise OracleError(f"unexpected character at {pos}")
        out.append(m.group(1) or m.group(2) or m.group(3))
        pos = m.end()
    out.append(None)
    return out


class _Eval:
    """Recursive descent over the documented grammar, straight to values."""

    def __init__(self, src):
        self.toks = _tokens(src)
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def take(self, want=None):
        tok = self.toks[self.i]
        if want is not None and tok != want:
            raise OracleError(f"expected {want!r}, got {tok!r}")
        self.i += 1
        return tok

    def run(self):
        v = self.expr()
        if self.peek() is not None:
            raise OracleError("trailing input")
        return v

    def expr(self):
        v = self.term()
        while self.peek() in ("+", "-"):
            v = v + self.term() if self.take() == "+" else v - self.term()
        return v

    def term(self):
        v = self.factor()
        while self.peek() == "*":
            self.take()
            v = v * self.factor()
        if self.peek() == "/":
            self.take()
            v = v / self.factor()
        return v

    def factor(self):
        neg = self.peek() == "-"
        if neg:
            self.take()
        tok = self.take()
        var = None
        if tok == "(":
            v = self.expr()
            self.take(")")
        elif tok is not None and tok.isdigit():
            v = Fraction(int(tok))
        elif tok in _VAR_VALUE:
            var, v = tok, _VAR_VALUE[tok]
        else:
            raise OracleError(f"unexpected token {tok!r}")
        if self.peek() == "^":
            self.take()
            e = self.exponent()
            if e.denominator == 1:
                v = v ** int(e)
            elif var is not None:
                v = value([(1, {var: (e.numerator, e.denominator)})])
            else:
                raise OracleError("fractional power of a non-variable")
        return -v if neg else v

    def signed_int(self):
        sign = 1
        if self.peek() == "-":
            self.take()
            sign = -1
        tok = self.take()
        if tok is None or not tok.isdigit():
            raise OracleError("expected an integer")
        return sign * int(tok)

    def exponent(self):
        if self.peek() == "(":
            self.take()
            num = self.signed_int()
            den = 1
            if self.peek() == "/":
                self.take()
                den = self.signed_int()
            self.take(")")
            return Fraction(num, den)
        return Fraction(self.signed_int())


def expression_value(src):
    return _Eval(src).run()


# -- checks ------------------------------------------------------------------------


def _opt(argv, flag):
    return argv[argv.index(flag) + 1] if flag in argv else None


def _expected_indices(kind, indexing, top):
    if indexing == "knot":
        return [2 * m + 1 for m in range(top + 1)]
    return ([] if kind == "homfly" else [0]) + list(range(1, top + 1))


def _check_entry(kind, indexing, n, terms, over_az):
    if over_az and "t" in variables(terms):
        return f"entry {n} still has t"
    expect = knot_value(kind, (n - 1) // 2) if indexing == "knot" else link_value(kind, n)
    return None if value(terms) == expect else f"entry {n} has the wrong value"


def _check_series_rows(rows, kind, indexing, top, over_az):
    got = [n for n, _ in rows]
    want = _expected_indices(kind, indexing, top)
    if got != want:
        return f"indices {got[:6]}... != {want[:6]}..."
    for n, terms in rows:
        reason = _check_entry(kind, indexing, n, terms, over_az)
        if reason is not None:
            return reason
    return None


def check_request(argv, expect_code, code, out):
    """One CLI request: exit code, then the printed answer."""
    if code != expect_code:
        return f"exit {code}, expected {expect_code}"
    if expect_code != 0:
        return None if out == "" else "output on a failed request"
    try:
        return _check_answer(argv, out)
    except (OracleError, ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
        return f"unparseable output: {exc}"


def _check_answer(argv, out):
    cmd = argv[0]
    fmt = _opt(argv, "--format") or "text"
    if cmd == "qp-num":
        family, n = _opt(argv, "--family"), int(_opt(argv, "--n"))
        if fmt == "text":
            terms = parse_text_poly(out.rstrip("\n"))
        elif fmt == "json":
            obj = json.loads(out)
            if obj["family"] != family or obj["n"] != n:
                return "json header mismatch"
            terms = parse_json_poly(obj["poly"])
        elif fmt == "csv":
            rows = list(csv.reader(io.StringIO(out)))
            if rows[0] != ["n", "polynomial"] or len(rows) != 2 or rows[1][0] != str(n):
                return "bad csv layout"
            terms = parse_text_poly(rows[1][1])
        else:
            label = _FAMILY_LATEX[family].format(n=n)
            m = re.fullmatch(r"\$(.+?) = (.+)\$\n", out)
            if m is None or m.group(1) != label:
                return "bad latex layout"
            terms = parse_latex_poly(m.group(2))
        return None if value(terms) == qp_value(family, n) else "wrong value"
    if cmd in ("series", "table"):
        kind, top = _opt(argv, "--invariant"), int(_opt(argv, "--max"))
        indexing = "link" if "--links" in argv else "knot"
        over_az = "--az" in argv or (kind == "homfly" and indexing == "link")
        if cmd == "table" and fmt == "text":
            rows = _table_text_rows(out)
        else:
            rows = _parse_rows(fmt, out, kind, indexing)
        return _check_series_rows(rows, kind, indexing, top, over_az)
    if cmd == "eval":
        lines = out.splitlines()
        if len(lines) != 1:
            return "eval printed more than one line"
        return None if value(parse_text_poly(lines[0])) == expression_value(argv[1]) else "wrong value"
    if cmd == "verify":
        lines = out.splitlines()
        names = [ln.split()[1] for ln in lines if ln.startswith(("PASS ", "FAIL "))]
        if any(ln.startswith("FAIL ") for ln in lines):
            return "a check failed"
        if not set(VERIFY_CHECKS) <= set(names):
            return "missing checks"
        if lines[-1] != f"{len(names)}/{len(names)} checks passed":
            return f"bad verdict line {lines[-1]!r}"
        return None
    return f"unknown command {cmd}"


def check_large(op, out, verified):
    """One heavy library call; ``out`` holds its result in canonical text
    (a dict of index -> text for the series calls).  ``verified`` collects
    series entries already found right, which later passes repeat."""
    try:
        return _check_large(op, out, verified)
    except (OracleError, ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
        return f"unparseable output: {exc}"


def _check_large(op, out, verified):
    name = op["op"]
    if name in ("knot_series", "link_series"):
        kind = op["kind"]
        indexing, top = ("knot", op["m"]) if name == "knot_series" else ("link", op["n"])
        rows = sorted((int(n), text) for n, text in out.items())
        if [n for n, _ in rows] != _expected_indices(kind, indexing, top):
            return "wrong indices"
        for n, text in rows:
            key = (kind, indexing, n, text)
            if key not in verified:
                reason = _check_entry(kind, indexing, n, parse_text_poly(text), kind == "homfly" and indexing == "link")
                if reason is not None:
                    return reason
                verified.add(key)
        return None
    terms = parse_text_poly(out)
    got = value(terms)
    if name == "to_az_form":
        if "t" in variables(terms):
            return "(a, z) form still has t"
        want = knot_value("homfly", op["m"])
    elif name == "from_az_form":
        want = knot_value("homfly", op["m"])
    elif name == "mul":
        want = knot_value("homfly", op["m"]) * knot_value("homfly", op["m2"])
    elif name == "exact_div":
        want = knot_value("homfly", op["m"])
    elif name == "exact_sqrt":
        # The root is normalised to a positive leading coefficient, and
        # knot entries lead with a negative term: compare up to sign.
        want = knot_value("homfly", op["m"])
        got = abs(got)
        want = abs(want)
    elif name == "qp_number_recurrence":
        want = qp_value(op["family"], op["n"])
    else:
        return f"unknown op {name}"
    return None if got == want else "wrong value"
