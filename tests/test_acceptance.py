"""Acceptance criteria, one test per criterion.

Arithmetic is exact, so every comparison is structural equality; the
stated runtime budgets are asserted with wall-clock measurements.  Each
criterion prints its own PASS/FAIL line (run with -s to see them all).
"""

import io
import json
import time

from qpknot import (
    Family,
    InvariantKind,
    LaurentPoly,
    Monomial,
    QPSpec,
    family_spec,
    homfly_alexander_multiplier,
    knot_coeffs,
    knot_series,
    link_coeffs,
    link_series,
    parse_poly,
    qp_number,
    qp_number_division,
    qp_number_recurrence,
    run_check,
    skein_from_numbers,
    to_az_form,
    unlink2,
)
from qpknot.cli import main
from qpknot.substitutions import h1_to_h, h2_to_h


def _finish(name, start, budget, ok):
    elapsed = time.perf_counter() - start
    in_budget = budget is None or elapsed < budget
    verdict = "PASS" if (ok and in_budget) else "FAIL"
    budget_text = f", budget {budget:.0f}s" if budget is not None else ""
    print(f"ACCEPTANCE {name}: {verdict} ({elapsed:.2f}s{budget_text})")
    assert ok, f"{name} failed"
    assert in_budget, f"{name} exceeded budget: {elapsed:.2f}s >= {budget}s"


def _cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_criterion_1_tabulated_values():
    start = time.perf_counter()
    ok = True

    one_param = {1: "1", 2: "q + q^-1", 3: "q^2 + 1 + q^-2", 4: "q^3 + q + q^-1 + q^-3"}
    for n, text in one_param.items():
        code, out = _cli("qp-num", "--family", "bmq", "--n", str(n))
        ok = ok and code == 0 and parse_poly(out.strip()) == parse_poly(text)

    generic = QPSpec(Monomial.var("q"), Monomial.var("p"))
    two_param = {1: "1", 2: "q + p", 3: "q^2 + q*p + p^2", 4: "q^3 + q^2*p + q*p^2 + p^3"}
    for n, text in two_param.items():
        ok = ok and qp_number(generic, n) == parse_poly(text)
        code, out = _cli("eval", f"(q^{n} - p^{n})/(q - p)")
        ok = ok and code == 0 and parse_poly(out.strip()) == parse_poly(text)

    trefoils = {
        InvariantKind.ALEXANDER: "t - 1 + t^-1",
        InvariantKind.JONES: "t + t^3 - t^4",
        InvariantKind.HOMFLY: "a^2*t + a^2*t^-1 - a^4",
    }
    for kind, text in trefoils.items():
        ok = ok and knot_series(kind, 1).knot(1) == parse_poly(text)

    _finish("1 tabulated-value reproduction", start, 1.0, ok)


def test_criterion_2_three_routes():
    start = time.perf_counter()
    report = run_check("three-route", 200)
    ok = report.passed
    # spot-check that the per-call routes agree with the ladder the check used
    spec = family_spec(Family.H2)
    for n in (0, 1, 7, 31):
        ok = ok and qp_number(spec, n) == qp_number_recurrence(spec, n)
        if n >= 1:
            ok = ok and qp_number(spec, n) == qp_number_division(spec, n)
    _finish("2 three-route agreement n<=200", start, 5.0, ok)


def test_criterion_3_knot_vs_link():
    start = time.perf_counter()
    report = run_check("knot-vs-link", 50)
    _finish("3 knot/link consistency m<=50", start, 2.0, report.passed)


def test_criterion_4_specialization():
    start = time.perf_counter()
    report = run_check("homfly-specialize", 50)
    _finish("4 specialization m<=50", start, None, report.passed)


def test_criterion_5_sect7_roundtrip():
    start = time.perf_counter()
    report = run_check("roundtrip-sect7", 1)
    ok = report.passed
    for fam, kind in (
        (Family.ALEXANDER, InvariantKind.ALEXANDER),
        (Family.JONES, InvariantKind.JONES),
        (Family.HOMFLY, InvariantKind.HOMFLY),
    ):
        got = skein_from_numbers(fam)
        want = link_coeffs(kind)
        ok = ok and got.l1 == want.l1 and got.l2 == want.l2
        ok = ok and got.l1.leading_term()[1] > 0 and got.l2.leading_term()[1] > 0
    _finish("5 reverse-construction round trip", start, None, ok)


def test_criterion_6_substitution_equivalences():
    start = time.perf_counter()
    ok = True
    h1 = family_spec(Family.H1)
    h2 = family_spec(Family.H2)
    hom = family_spec(Family.HOMFLY)
    a = Monomial.var("a")
    for n in range(1, 101):
        target = qp_number(hom, n)
        ok = ok and h1_to_h(qp_number(h1, n)) == target
        ok = ok and h2_to_h(qp_number(h2, n)) == target
        ok = ok and homfly_alexander_multiplier(n) == a ** (2 * (n - 1))
        if not ok:
            break
    _finish("6 substitution equivalences n<=100", start, None, ok)


def test_criterion_7_discrepancy_ledger():
    start = time.perf_counter()
    code, out = _cli("verify", "--check", "eq34-multiplier", "--n-max", "50")
    ok = code == 0
    ok = ok and "(a*t^-1)^(2(n-1))" in out
    ok = ok and "does NOT match" in out
    ok = ok and "PASS" in out
    _finish("7 multiplier discrepancy recorded, suite green", start, None, ok)


def test_criterion_8_az_roundtrip():
    start = time.perf_counter()
    report = run_check("az-roundtrip", 50)
    ok = report.passed
    trefoil_az = to_az_form(knot_series(InvariantKind.HOMFLY, 1).knot(1))
    ok = ok and trefoil_az == parse_poly("a^2*z^2 + 2*a^2 - a^4")
    _finish("8 z-form round trip m<=50", start, None, ok)


def _criteria_polynomials():
    """The polynomial closure exercised by criteria 1 through 8."""
    polys = []
    generic = QPSpec(Monomial.var("q"), Monomial.var("p"))
    for n in range(0, 101):
        polys.append(qp_number(generic, n))
        for fam in Family:
            polys.append(qp_number(family_spec(fam), n))
    for kind in InvariantKind:
        c = link_coeffs(kind)
        k = knot_coeffs(kind)
        polys.extend([c.l1, c.l2, k.k1, k.k2, unlink2(kind)])
        sfn = skein_from_numbers(Family(kind.value))
        polys.extend([sfn.l1, sfn.l2])
        knots = knot_series(kind, 50)
        polys.extend(knots.entries.values())
        links = link_series(kind, 101)
        polys.extend(links.entries.values())
    hom = knot_series(InvariantKind.HOMFLY, 50)
    polys.extend(to_az_form(p) for p in hom.entries.values())
    for n in range(1, 101):
        polys.append(homfly_alexander_multiplier(n).as_poly())
    return polys


def test_criterion_9_serialization_roundtrip():
    start = time.perf_counter()
    ok = True
    for p in _criteria_polynomials():
        text = p.to_json()
        back = LaurentPoly.from_json(text)
        if back != p or back.to_json() != text:
            ok = False
            break
    _finish("9 JSON round trip bit-exact", start, None, ok)


def test_criterion_10_full_verify_budget():
    start = time.perf_counter()
    code, out = _cli("verify", "--n-max", "200")
    ok = code == 0 and "12/12 checks passed" in out
    _finish("10 full verify n_max=200", start, 30.0, ok)
